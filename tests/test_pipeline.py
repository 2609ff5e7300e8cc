import dataclasses
import json
import re
from pathlib import Path

import pytest

from nbdistill.cli import main as cli_main
from nbdistill.metrics import corpus_bleu, corpus_stats
from nbdistill.corpus import LABEL_SUFFIXES, FormatError
from nbdistill.features import NATIVE_FEATURES
from nbdistill.mira import INIT_MODES, MiraConfig
from nbdistill.pipeline import (
    CONFIG_KEYS,
    HookError,
    IterationState,
    PipelineConfig,
    best_iteration,
    read_ledger,
    run_iteration,
    run_selftrain,
    status_table,
    stopping_reason,
)
from synth import build_pipeline_fixtures

ROOT = Path(__file__).resolve().parent.parent


def state(i, bleu):
    return IterationState(i, bleu, f"w{i}", f"l{i}", "t0", "t1")


def minimal_config(tmp_path, **overrides):
    for name in ("tune", "dev", "transfer"):
        (tmp_path / f"{name}.src").write_text("a\n")
    for name in ("tune", "dev"):
        (tmp_path / f"{name}.ref").write_text("a\n")
    kwargs = dict(
        workdir=tmp_path / "work",
        tune_src=tmp_path / "tune.src",
        tune_refs=(tmp_path / "tune.ref",),
        dev_src=tmp_path / "dev.src",
        dev_refs=(tmp_path / "dev.ref",),
        transfer_src=tmp_path / "transfer.src",
        hooks={"generate_nbest": "true"},
        passthrough=("total",),
    )
    kwargs.update(overrides)
    return PipelineConfig(**kwargs)


class TestConfig:
    def test_ini_and_json_parse_identically(self, tmp_path):
        ini = build_pipeline_fixtures(tmp_path / "a")
        from_ini = PipelineConfig.from_file(ini)
        sections = {
            "pipeline": {
                "workdir": "work",
                "iterations_max": 3,
                "min_delta": 0.1,
                "top_k_models": 2,
            },
            "data": {
                "tune_src": "tune.src",
                "tune_refs": ["tune.ref"],
                "dev_src": "dev.src",
                "dev_refs": "dev.ref",
                "transfer_src": "transfer.src",
            },
            "features": {
                "passthrough": "total",
                "native": ["mbr_bleu", "len_ratio"],
                "external": "lm",
            },
            "hooks": {
                "generate_nbest": from_ini.hooks["generate_nbest"],
                "score_lm": from_ini.hooks["score_lm"],
            },
            "mira": {"c": 0.01, "epochs": 4, "seed": 0},
        }
        json_path = tmp_path / "a" / "selftrain.json"
        json_path.write_text(json.dumps(sections))
        from_json = PipelineConfig.from_file(json_path)
        assert from_json == from_ini

    def test_test_set_keys_are_accepted_and_ignored(self, tmp_path):
        ini = build_pipeline_fixtures(tmp_path)
        with_test = tmp_path / "with_test.ini"
        with_test.write_text(
            ini.read_text().replace("[data]", "[data]\ntest_src = dev.src\ntest_refs = dev.ref")
        )
        assert PipelineConfig.from_file(with_test) == PipelineConfig.from_file(ini)

    @pytest.mark.parametrize(
        "section, line, message",
        [
            ("[pipeline]", "iteration_max = 9", "unknown config key 'pipeline.iteration_max'"),
            ("[mira]", "epoch = 50", "unknown config key 'mira.epoch'"),
            ("[hooks]", "rescore = true", "unknown config key 'hooks.rescore'"),
            ("[hooks]", "score_ = true", "unknown config key 'hooks.score_'"),
            ("[mira]", "[extra]\nx = 1", "unknown config section 'extra'"),
            ("[mira]", "[DEFAULT]\nroot = x", "unknown config section 'DEFAULT'"),
        ],
        ids=["pipeline-key", "mira-key", "hook", "unnamed-score-hook", "section",
             "default-section"],
    )
    def test_unknown_keys_and_sections_rejected(self, tmp_path, section, line, message):
        ini = build_pipeline_fixtures(tmp_path)
        ini.write_text(ini.read_text().replace(section, f"{section}\n{line}"))
        with pytest.raises(ValueError, match=message):
            PipelineConfig.from_file(ini)

    def test_unknown_json_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"pipeline": {"workdir": "w"}, "data": {"dev_ref": "x"}}))
        with pytest.raises(ValueError, match="unknown config key 'data.dev_ref'"):
            PipelineConfig.from_file(path)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("epochs = 4", "epochs = ten", "config key 'mira.epochs': invalid literal for int"),
            ("min_delta = 0.1", "min_delta = 0.1x",
             "config key 'pipeline.min_delta': could not convert"),
            (None, {"pipeline": {"workdir": "w", "top_k_models": "five"}},
             "config key 'pipeline.top_k_models': invalid literal for int"),
        ],
        ids=["ini-epochs", "ini-min-delta", "json-top-k"],
    )
    def test_bad_value_names_its_key(self, tmp_path, old, new, message):
        path = build_pipeline_fixtures(tmp_path)
        if old is None:
            path = tmp_path / "c.json"
            path.write_text(json.dumps(new))
        else:
            path.write_text(path.read_text().replace(old, new))
        with pytest.raises(ValueError, match=message):
            PipelineConfig.from_file(path)

    @staticmethod
    def json_sections(tmp_path):
        """The stub-hook fixture config, parsed, and a JSON document equal to it."""
        config = PipelineConfig.from_file(build_pipeline_fixtures(tmp_path))
        sections = {
            "pipeline": {"workdir": "work", "iterations_max": 3, "top_k_models": 2},
            "data": {"tune_src": "tune.src", "tune_refs": "tune.ref", "dev_src": "dev.src",
                     "dev_refs": "dev.ref", "transfer_src": "transfer.src"},
            "features": {"passthrough": "total", "native": "mbr_bleu,len_ratio",
                         "external": "lm"},
            "hooks": config.hooks,
            "mira": {"c": 0.01, "epochs": 4, "seed": 0},
        }
        return config, sections

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("pipeline", "top_k_models", True, "expected int, got true"),
            ("pipeline", "iterations_max", 2.9, "expected int, got 2.9"),
            ("mira", "epochs", 4.7, "expected int, got 4.7"),
            ("mira", "c", True, "expected float, got true"),
            ("pipeline", "min_delta", False, "expected float, got false"),
        ],
        ids=["bool-int", "fraction-iterations", "fraction-epochs", "bool-float", "bool-min-delta"],
    )
    def test_json_number_must_fit_its_key(self, tmp_path, section, key, value, message):
        _, sections = self.json_sections(tmp_path)
        sections[section][key] = value
        path = tmp_path / "c.json"
        path.write_text(json.dumps(sections))
        with pytest.raises(ValueError, match=f"^config key '{section}.{key}': {message}$"):
            PipelineConfig.from_file(path)

    def test_json_integral_float_is_an_int(self, tmp_path):
        config, sections = self.json_sections(tmp_path)
        sections["pipeline"]["iterations_max"] = 3.0
        sections["mira"]["epochs"] = 4.0
        path = tmp_path / "c.json"
        path.write_text(json.dumps(sections))
        parsed = PipelineConfig.from_file(path)
        assert parsed == config
        assert type(parsed.iterations_max) is int and type(parsed.mira.epochs) is int

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("pipeline", "workdir", True, "expected a string, got true"),
            ("data", "tune_refs", [2.5, "tune.ref"], "expected a string, got 2.5"),
            ("mira", "init", 0, "expected a string, got 0"),
            ("hooks", "generate_nbest", False, "expected a string, got false"),
        ],
        ids=["workdir", "list-item", "str", "hook"],
    )
    def test_json_string_keys_take_only_strings(self, tmp_path, section, key, value, message):
        _, sections = self.json_sections(tmp_path)
        sections[section][key] = value
        path = tmp_path / "c.json"
        path.write_text(json.dumps(sections))
        with pytest.raises(ValueError, match=f"^config key '{section}.{key}': {message}$"):
            PipelineConfig.from_file(path)

    def test_json_array_items_are_not_split(self, tmp_path):
        _, sections = self.json_sections(tmp_path)
        sections["data"]["tune_refs"] = ["a,b.ref", "tune.ref"]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(sections))
        parsed = PipelineConfig.from_file(path)
        assert parsed.tune_refs == (tmp_path / "a,b.ref", tmp_path / "tune.ref")

    def test_known_keys_are_the_schema_properties(self):
        schema = json.loads((ROOT / "docs" / "config-schema.json").read_text())
        sections = schema["properties"]
        assert set(CONFIG_KEYS) == set(sections)
        for name, keys in CONFIG_KEYS.items():
            assert keys == set(sections[name]["properties"]), name
        assert set(sections["hooks"]["patternProperties"]) == {"^score_.+$"}
        # every schema default is the dataclass default
        defaults = {
            name: {f.name: f.default for f in dataclasses.fields(owner)}
            for name, owner in (("pipeline", PipelineConfig), ("mira", MiraConfig))
        }
        for name, section in sections.items():
            for key, prop in section["properties"].items():
                if "default" in prop:
                    assert prop["default"] == defaults[name][key], f"{name}.{key}"
        assert sections["mira"]["properties"]["init"]["enum"] == list(INIT_MODES)
        assert sections["pipeline"]["properties"]["label_format"]["enum"] == list(LABEL_SUFFIXES)
        native = sections["features"]["properties"]["native"]["oneOf"][1]["items"]["enum"]
        assert native == list(NATIVE_FEATURES)

    def test_readme_example_parses(self, tmp_path):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Self-training configuration", 1)[1]
        block = section.split("```ini\n", 1)[1].split("```", 1)[0]
        ini = tmp_path / "selftrain.ini"
        ini.write_text(block, encoding="utf-8")
        for name in ("tune.src", "tune.ref0", "tune.ref1", "dev.src", "dev.ref", "transfer.src"):
            (tmp_path / name).write_text("a\n")
        config = PipelineConfig.from_file(ini)
        config.validate()
        assert (config.mira.init, config.min_delta, config.label_format) == ("zeros", 0.1, "tsv")
        assert config.external == ("laser", "bwd")

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"pipeline": {"workdir": "w"}}))
        with pytest.raises(ValueError, match="data.tune_src"):
            PipelineConfig.from_file(path)

    def test_missing_score_hook_rejected_before_execution(self, tmp_path):
        config = minimal_config(tmp_path, external=("lm",))
        with pytest.raises(ValueError, match="missing hook 'score_lm'"):
            config.validate()

    def test_score_hook_without_external_feature_rejected(self, tmp_path):
        config = minimal_config(tmp_path, hooks={"generate_nbest": "true", "score_lm": "true"})
        with pytest.raises(ValueError, match="^hook 'score_lm' names no external feature$"):
            config.validate()
        minimal_config(tmp_path, hooks=config.hooks, external=("lm",)).validate()

    def test_missing_generate_hook(self, tmp_path):
        config = minimal_config(tmp_path, hooks={})
        with pytest.raises(ValueError, match="generate_nbest"):
            config.validate()

    def test_iterations_max_zero_is_config_error(self, tmp_path):
        config = minimal_config(tmp_path, iterations_max=0)
        with pytest.raises(ValueError, match="iterations_max"):
            config.validate()

    def test_zero_features_rejected(self, tmp_path):
        config = minimal_config(tmp_path, passthrough=())
        with pytest.raises(ValueError, match="features"):
            config.validate()

    def test_missing_data_file(self, tmp_path):
        config = minimal_config(tmp_path)
        (tmp_path / "dev.src").unlink()
        with pytest.raises(ValueError, match="dev_src"):
            config.validate()


class TestStoppingRule:
    def test_small_delta_converges(self):
        config = _cfg(min_delta=0.1, iterations_max=5)
        assert stopping_reason([state(1, 50.0)], config) is None
        assert stopping_reason([state(1, 50.0), state(2, 50.05)], config) == "converged"

    def test_large_delta_continues_to_cap(self):
        config = _cfg(min_delta=0.1, iterations_max=3)
        states = [state(1, 50.0), state(2, 51.0), state(3, 52.0)]
        assert stopping_reason(states[:2], config) is None
        assert stopping_reason(states, config) == "max_iterations"

    def test_regression_converges(self):
        config = _cfg(min_delta=0.0, iterations_max=5)
        assert stopping_reason([state(1, 50.0), state(2, 49.0)], config) == "converged"

    def test_best_iteration_tie_goes_earliest(self):
        states = [state(1, 50.0), state(2, 50.0), state(3, 49.0)]
        assert best_iteration(states).iter == 1


def _cfg(min_delta, iterations_max):
    # stopping_reason only reads these two fields
    class _C:
        pass

    c = _C()
    c.min_delta = min_delta
    c.iterations_max = iterations_max
    return c


class TestRunIteration:
    def test_completes_and_matches_independent_evaluation(self, tmp_path, capsys):
        config = PipelineConfig.from_file(build_pipeline_fixtures(tmp_path))
        config.validate()
        state = run_iteration(config)
        assert state.iter == 1
        assert Path(state.weights_path).is_file()
        assert Path(state.labels_path).is_file()

        # dev BLEU must equal what the evaluate CLI reports for the persisted
        # dev selections against the dev references
        itdir = Path(config.workdir) / "iter1"
        selections = [
            line.split("\t", 2)[2]
            for line in (itdir / "selections.dev.tsv").read_text().splitlines()
        ]
        hyp_file = tmp_path / "dev.hyp"
        hyp_file.write_text("".join(t + "\n" for t in selections))
        assert (
            cli_main(
                ["evaluate", "--hyp", str(hyp_file), "--refs", str(tmp_path / "dev.ref")]
            )
            == 0
        )
        reported = capsys.readouterr().out.splitlines()[0]
        assert reported == f"BLEU\t{state.dev_bleu:.4f}"

    def test_all_stage_markers_present(self, tmp_path):
        config = PipelineConfig.from_file(build_pipeline_fixtures(tmp_path))
        run_iteration(config)
        itdir = Path(config.workdir) / "iter1"
        for stage in (
            "generate_nbest",
            "scores",
            "assemble",
            "tune",
            "select",
            "distill",
            "evaluate",
        ):
            assert (itdir / f".{stage}.done").exists()

    def test_failing_hook_names_stage(self, tmp_path):
        marker = tmp_path / "crash"
        config = PipelineConfig.from_file(
            build_pipeline_fixtures(tmp_path, fail_marker=marker)
        )
        marker.touch()
        with pytest.raises(HookError, match=r"stage score_lm\[tune\]"):
            run_iteration(config)

    def test_hook_without_output_fails_its_stage(self, tmp_path):
        config = PipelineConfig.from_file(build_pipeline_fixtures(tmp_path))
        silent = dataclasses.replace(config, hooks={**config.hooks, "score_lm": "true"})
        itdir = Path(config.workdir) / "iter1"
        with pytest.raises(HookError, match=r"stage score_lm\[tune\].*scores\.lm\.tune\.tsv"):
            run_iteration(silent)
        assert (itdir / ".generate_nbest.done").exists()
        assert not (itdir / ".scores.done").exists()
        # the stage is not marked done, so a fixed hook recovers the workdir
        state = run_iteration(config)
        assert Path(state.labels_path).is_file()

    def test_hooks_get_quoted_paths_with_spaces(self, tmp_path):
        config = PipelineConfig.from_file(build_pipeline_fixtures(tmp_path))
        config = dataclasses.replace(config, workdir=tmp_path / "work dir")
        state = run_iteration(config)
        assert Path(state.labels_path).is_file()
        assert (tmp_path / "work dir" / "iter1" / "nbest.tune.txt").is_file()

    def test_rerun_returns_ledger_entry(self, tmp_path):
        config = PipelineConfig.from_file(build_pipeline_fixtures(tmp_path))
        first = run_iteration(config)
        again = run_iteration(config)
        assert again == first
        assert len(read_ledger(Path(config.workdir) / "ledger.jsonl")) == 1


class TestCliMatchesStages:
    """Each in-process stage writes what the matching command writes."""

    def test_commands_reproduce_stage_outputs(self, tmp_path, capsys):
        config = PipelineConfig.from_file(build_pipeline_fixtures(tmp_path))
        run_iteration(config)
        itdir = Path(config.workdir) / "iter1"
        out = tmp_path / "cli"
        out.mkdir()
        scores = [
            arg
            for feature in config.external
            for arg in ("--scores", f"{feature}={itdir / f'scores.{feature}.tune.tsv'}")
        ]
        commands = {
            "matrix.tune.tsv": [
                "assemble", "--nbest", itdir / "nbest.tune.txt",
                "--passthrough", ",".join(config.passthrough),
                "--native", ",".join(config.native), *scores,
                "--out", out / "matrix.tune.tsv",
            ],
            "weights.tsv": [
                "tune", "--matrix", itdir / "matrix.tune.tsv",
                "--nbest", itdir / "nbest.tune.txt",
                "--refs", ",".join(str(p) for p in config.tune_refs),
                "--c", config.mira.c, "--epochs", config.mira.epochs,
                "--seed", config.mira.seed, "--init", config.mira.init,
                "--out", out / "weights.tsv",
            ],
            "selections.dev.tsv": [
                "rerank", "--matrix", itdir / "matrix.dev.tsv",
                "--nbest", itdir / "nbest.dev.txt", "--weights", itdir / "weights.tsv",
                "--top-k-models", config.top_k_models,
                "--refs", ",".join(str(p) for p in config.dev_refs),
                "--out", out / "selections.dev.tsv",
            ],
            "labels.tsv": [
                "distill", "--strategy", "rerank", "--nbest", itdir / "nbest.transfer.txt",
                "--src", config.transfer_src, "--matrix", itdir / "matrix.transfer.tsv",
                "--weights", itdir / "weights.tsv", "--top-k-models", config.top_k_models,
                "--out", out / "labels",
            ],
        }
        for name, argv in commands.items():
            assert cli_main([str(a) for a in argv]) == 0, name
            assert (out / name).read_bytes() == (itdir / name).read_bytes(), name


class TestSelfTrain:
    def test_three_iterations_to_cap(self, tmp_path):
        config = PipelineConfig.from_file(build_pipeline_fixtures(tmp_path))
        best, reason = run_selftrain(config)
        states = read_ledger(Path(config.workdir) / "ledger.jsonl")
        assert reason == "max_iterations"
        assert [s.iter for s in states] == [1, 2, 3]
        # dev quality rises sharply with the iteration fixtures
        assert states[2].dev_bleu > states[1].dev_bleu > states[0].dev_bleu
        assert best.iter == 3
        final = Path(config.workdir) / "final.labels.tsv"
        assert final.read_bytes() == Path(best.labels_path).read_bytes()
        summary = json.loads((Path(config.workdir) / "final.json").read_text())
        assert summary["best_iteration"] == 3
        assert summary["stop_reason"] == "max_iterations"

    def test_iterations_max_one(self, tmp_path):
        config = PipelineConfig.from_file(build_pipeline_fixtures(tmp_path, iterations=1))
        best, reason = run_selftrain(config)
        assert reason == "max_iterations"
        assert best.iter == 1
        assert len(read_ledger(Path(config.workdir) / "ledger.jsonl")) == 1

    def test_converged_via_preseeded_dev_bleu(self, tmp_path):
        config = PipelineConfig.from_file(build_pipeline_fixtures(tmp_path))
        workdir = Path(config.workdir)
        for it, bleu in ((1, 50.0), (2, 50.05), (3, 99.0)):
            itdir = workdir / f"iter{it}"
            itdir.mkdir(parents=True, exist_ok=True)
            (itdir / "dev_bleu.txt").write_text(repr(bleu) + "\n")
            (itdir / ".evaluate.done").touch()
        best, reason = run_selftrain(config)
        assert reason == "converged"
        states = read_ledger(workdir / "ledger.jsonl")
        assert [s.iter for s in states] == [1, 2]
        assert [s.dev_bleu for s in states] == [50.0, 50.05]
        # final labels come from the argmax-dev iteration, here iteration 2
        assert best.iter == 2
        final = workdir / "final.labels.tsv"
        assert final.read_bytes() == Path(states[1].labels_path).read_bytes()

    def test_resume_after_crash_is_byte_identical(self, tmp_path):
        marker = tmp_path / "crash"
        crash_config = PipelineConfig.from_file(
            build_pipeline_fixtures(tmp_path / "crashed", fail_marker=marker)
        )
        clean_config = PipelineConfig.from_file(build_pipeline_fixtures(tmp_path / "clean"))

        marker.touch()
        with pytest.raises(HookError):
            run_selftrain(crash_config)
        crash_work = Path(crash_config.workdir)
        assert (crash_work / "iter1" / ".generate_nbest.done").exists()
        assert not (crash_work / "iter1" / ".scores.done").exists()

        marker.unlink()
        best_crash, reason_crash = run_selftrain(crash_config)
        best_clean, reason_clean = run_selftrain(clean_config)
        assert reason_crash == reason_clean
        assert best_crash.iter == best_clean.iter
        assert (
            (crash_work / "final.labels.tsv").read_bytes()
            == (Path(clean_config.workdir) / "final.labels.tsv").read_bytes()
        )
        for it in (1, 2, 3):
            a = crash_work / f"iter{it}" / "weights.tsv"
            b = Path(clean_config.workdir) / f"iter{it}" / "weights.tsv"
            assert a.read_bytes() == b.read_bytes()

    def test_parallel_label_format(self, tmp_path):
        ini = build_pipeline_fixtures(tmp_path, iterations=2)
        ini.write_text(ini.read_text().replace("[pipeline]", "[pipeline]\nlabel_format = parallel"))
        config = PipelineConfig.from_file(ini)
        best, _ = run_selftrain(config)
        workdir = Path(config.workdir)
        states = read_ledger(workdir / "ledger.jsonl")
        assert [s.iter for s in states] == [1, 2]
        assert all(s.labels_path.endswith("labels.tgt") for s in states)
        best_labels = Path(best.labels_path)
        for suffix in (".src", ".tgt"):
            assert (workdir / f"final.labels{suffix}").read_bytes() == (
                best_labels.with_suffix(suffix).read_bytes()
            )
        summary = json.loads((workdir / "final.json").read_text())
        assert Path(summary["labels"]).name == "final.labels.tgt"

    def test_rerun_on_finished_workdir_is_stable(self, tmp_path):
        config = PipelineConfig.from_file(build_pipeline_fixtures(tmp_path))
        run_selftrain(config)
        ledger_before = (Path(config.workdir) / "ledger.jsonl").read_bytes()
        best, reason = run_selftrain(config)
        assert (Path(config.workdir) / "ledger.jsonl").read_bytes() == ledger_before
        assert reason == "max_iterations"


class TestStatus:
    def test_table_lists_iterations(self, tmp_path):
        config = PipelineConfig.from_file(build_pipeline_fixtures(tmp_path, iterations=1))
        run_selftrain(config)
        table = status_table(config.workdir)
        lines = table.splitlines()
        assert lines[0].split()[:2] == ["iter", "dev_bleu"]
        assert lines[1].startswith("1")

    def test_empty_workdir(self, tmp_path):
        assert "no iterations" in status_table(tmp_path)


class TestLedgerValidation:
    ENTRY = {
        "iter": 1,
        "dev_bleu": 1.5,
        "weights_path": "w",
        "labels_path": "l",
        "started": "t0",
        "finished": "t1",
    }

    def test_rejects_non_contiguous_indices(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        entry = json.dumps(
            {
                "iter": 2,
                "dev_bleu": 1.0,
                "weights_path": "w",
                "labels_path": "l",
                "started": "t",
                "finished": "t",
                "hook_statuses": {},
            }
        )
        ledger.write_text(entry + "\n")
        with pytest.raises(ValueError, match="indices"):
            read_ledger(ledger)

    def test_loads_entries_with_hook_statuses(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        entry = {
            "iter": 1,
            "dev_bleu": 1.5,
            "weights_path": "w",
            "labels_path": "l",
            "started": "t0",
            "finished": "t1",
        }
        ledger.write_text(json.dumps({**entry, "hook_statuses": {"generate_nbest.tune": 0}}) + "\n")
        assert read_ledger(ledger) == [IterationState(**entry)]

    def test_rejects_garbage_line(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text("{not json\n")
        with pytest.raises(ValueError, match="bad ledger entry"):
            read_ledger(ledger)

    @pytest.mark.parametrize(
        "field, value",
        [("dev_bleu", None), ("dev_bleu", "x"), ("dev_bleu", True), ("iter", 1.0),
         ("started", 0), ("dev_bleu", float("nan")), ("dev_bleu", float("inf"))],
    )
    def test_rejects_a_field_of_the_wrong_type(self, tmp_path, capsys, field, value):
        entry = json.dumps(self.ENTRY)
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text(entry + "\n" + json.dumps({**self.ENTRY, field: value}) + "\n")
        message = f"{ledger}: bad ledger entry on line 2: {field} must be"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            read_ledger(ledger)
        assert cli_main(["status", "--workdir", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize("digits", [5000, 400])
    def test_rejects_an_integer_too_long_to_load(self, tmp_path, capsys, digits):
        entry = json.dumps(self.ENTRY)
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text(entry + "\n" + entry.replace("1.5", "1" * digits) + "\n")
        message = f"{ledger}: bad ledger entry on line 2: "
        with pytest.raises(FormatError, match=f"^{re.escape(message)}") as err:
            read_ledger(ledger)
        assert err.value.line == 2
        assert cli_main(["status", "--workdir", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_accepts_an_integer_dev_bleu(self, tmp_path):
        entry = {**self.ENTRY, "dev_bleu": 20}
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text(json.dumps(entry) + "\n")
        assert read_ledger(ledger) == [IterationState(**entry)]


class TestSelfTrainCli:
    def test_selftrain_and_status_commands(self, tmp_path, capsys):
        config_path = build_pipeline_fixtures(tmp_path, iterations=1)
        assert cli_main(["selftrain", "--config", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert "stop_reason\tmax_iterations" in out
        assert "best_iteration\t1" in out
        workdir = tmp_path / "work"
        assert cli_main(["status", "--workdir", str(workdir)]) == 0
        table = capsys.readouterr().out
        assert table.splitlines()[0].startswith("iter")
        # re-running resumes off the ledger without re-executing hooks
        assert cli_main(["selftrain", "--config", str(config_path)]) == 0

    def test_relative_config_path(self, tmp_path, monkeypatch, capsys):
        build_pipeline_fixtures(tmp_path, iterations=1)
        monkeypatch.chdir(tmp_path)
        assert cli_main(["selftrain", "--config", "selftrain.ini"]) == 0
        assert "best_iteration\t1" in capsys.readouterr().out
        assert (tmp_path / "work" / "final.labels.tsv").is_file()
