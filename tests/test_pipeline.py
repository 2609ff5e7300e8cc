import configparser
import dataclasses
import io
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import nbdistill.pipeline as pipeline
from nbdistill.cli import main as cli_main
from nbdistill.metrics import corpus_bleu, corpus_stats
from nbdistill.corpus import LABEL_SUFFIXES, FormatError, label_paths, load_nbest
from nbdistill.features import NATIVE_FEATURES, assemble_matrix, mbr_utility
from nbdistill.mira import INIT_MODES, MiraConfig
from nbdistill.pipeline import (
    CONFIG_KEYS,
    METRICS,
    STAGES,
    STRATEGIES,
    HookError,
    IterationState,
    PipelineConfig,
    _read_sections,
    assemble_file,
    best_iteration,
    distill_file,
    evaluate_file,
    oracle_file,
    read_ledger,
    run_iteration,
    run_selftrain,
    status_table,
    stopping_reason,
    tune_file,
)
from nbdistill.rerank import oracle_select
from synth import build_pipeline_fixtures, make_corpus, nbest_lines, write_lines

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
        text = ini.read_text()
        ini.write_text(text.replace(section, f"{section}\n{line}"))
        # the error names the line after the header: the key, or the section it opens
        lineno = text.splitlines().index(section) + 2
        with pytest.raises(FormatError) as err:
            PipelineConfig.from_file(ini)
        assert (str(err.value), err.value.line) == (f"{ini}: line {lineno}: {message}", lineno)

    @pytest.mark.parametrize("document, message", [
        ({"pipeline": {"workdir": "w"}, "data": {"dev_ref": "x"}},
         "unknown config key 'data.dev_ref'"),
        ({"pipeline": 5}, "config section 'pipeline' must be a mapping"),
    ], ids=["unknown-key", "section-no-mapping"])
    def test_unknown_json_key_rejected(self, tmp_path, document, message):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(document))
        with pytest.raises(FormatError) as err:
            PipelineConfig.from_file(path)
        # the JSON decoder gives keys no position
        assert (str(err.value), err.value.line) == (f"{path}: {message}", None)

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"pipeline": {"workdir": "w", "workdir": "v"}}', "workdir"),
            ('{"pipeline": {"workdir": "w"}, "pipeline": {"workdir": "v"}}', "pipeline"),
            ('{"hooks": {"generate_nbest": "a"}, "x": {"y": {"z": 1, "z": 2}}}', "z"),
        ],
        ids=["key", "section", "nested"],
    )
    def test_repeated_json_key_rejected(self, tmp_path, text, key):
        path = tmp_path / "c.json"
        path.write_text(text)
        with pytest.raises(FormatError) as err:
            PipelineConfig.from_file(path)
        assert (str(err.value), err.value.line) == (f"{path}: repeated key {key!r}", None)

    @pytest.mark.parametrize(
        "text", ['{"mira": {"epochs": ' + "1" * 5000 + "}}", '{"x": ' + "[" * 100000],
        ids=["integer-too-long", "nesting-too-deep"],
    )
    def test_json_decoder_limits_name_the_file(self, tmp_path, text):
        path = tmp_path / "c.json"
        path.write_text(text)
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: ") as err:
            PipelineConfig.from_file(path)
        assert err.value.line is None

    def test_indented_line_is_its_own_key(self, tmp_path):
        ini = build_pipeline_fixtures(tmp_path)
        ini.write_text(ini.read_text().replace(
            "workdir = work\n", "workdir = work\n    min_delta = 5\n").replace(
            "min_delta = 0.1\n", ""))
        config = PipelineConfig.from_file(ini)
        assert (config.workdir, config.min_delta) == (tmp_path / "work", 5.0)

    @pytest.mark.parametrize(
        "old, new, key, shown",
        [
            ("min_delta = 0.1", "min_delta = nan", "pipeline.min_delta", "nan"),
            ("min_delta = 0.1", "min_delta = -inf", "pipeline.min_delta", "-inf"),
            ("c = 0.01", "c = nan", "mira.c", "nan"),
            ("c = 0.01", "c = 1e400", "mira.c", "1e400"),
        ],
        ids=["nan-min-delta", "inf-min-delta", "nan-c", "overflow-c"],
    )
    def test_numbers_must_be_finite(self, tmp_path, old, new, key, shown):
        ini = build_pipeline_fixtures(tmp_path)
        text = ini.read_text().replace(old, new)
        ini.write_text(text)
        lineno = text.splitlines().index(new) + 1
        with pytest.raises(FormatError) as err:
            PipelineConfig.from_file(ini)
        message = f"config key '{key}': expected a finite float, got {shown}"
        assert (str(err.value), err.value.line) == (f"{ini}: line {lineno}: {message}", lineno)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-1e400"])
    def test_json_numbers_must_be_finite(self, tmp_path, value):
        _, sections = self.json_sections(tmp_path)
        sections["pipeline"]["min_delta"] = "VALUE"
        path = tmp_path / "c.json"
        path.write_text(json.dumps(sections).replace('"VALUE"', value))
        shown = {"NaN": "nan", "Infinity": "inf", "-1e400": "-inf"}[value]
        with pytest.raises(FormatError) as err:
            PipelineConfig.from_file(path)
        assert str(err.value) == (
            f"{path}: config key 'pipeline.min_delta': expected a finite float, got {shown}")

    def test_mira_checks_name_the_file_and_the_section(self, tmp_path):
        ini = build_pipeline_fixtures(tmp_path)
        text = ini.read_text().replace("epochs = 4", "epochs = 0")
        ini.write_text(text)
        lineno = text.splitlines().index("[mira]") + 1
        with pytest.raises(FormatError) as err:
            PipelineConfig.from_file(ini)
        assert (str(err.value), err.value.line) == (
            f"{ini}: line {lineno}: epochs must be >= 1", lineno)

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_out_of_range_names_the_file_and_the_section(self, tmp_path, seed):
        ini = build_pipeline_fixtures(tmp_path)
        text = ini.read_text().replace("seed = 0", f"seed = {seed}")
        ini.write_text(text)
        lineno = text.splitlines().index("[mira]") + 1
        with pytest.raises(FormatError) as err:
            PipelineConfig.from_file(ini)
        assert (str(err.value), err.value.line) == (
            f"{ini}: line {lineno}: seed must be in 0..18446744073709551615, got {seed}", lineno)

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
            prefix, lineno = f"{path}: ", None
        else:
            text = path.read_text().replace(old, new)
            path.write_text(text)
            lineno = text.splitlines().index(new) + 1
            prefix = f"{path}: line {lineno}: "
        with pytest.raises(FormatError, match=f"^{re.escape(prefix + message)}") as err:
            PipelineConfig.from_file(path)
        assert err.value.line == lineno

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
        message = f"{path}: config key '{section}.{key}': {message}"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$") as err:
            PipelineConfig.from_file(path)
        assert err.value.line is None

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
        message = f"{path}: config key '{section}.{key}': {message}"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$") as err:
            PipelineConfig.from_file(path)
        assert err.value.line is None

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
            assert set(keys) == set(sections[name]["properties"]), name
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
        seed = sections["mira"]["properties"]["seed"]
        assert (seed["minimum"], seed["maximum"]) == (0, 2**64 - 1)
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
        with pytest.raises(FormatError, match="data.tune_src"):
            PipelineConfig.from_file(path)
        ini = tmp_path / "c.ini"
        ini.write_text("[pipeline]\nworkdir = w\n")
        with pytest.raises(FormatError) as err:
            PipelineConfig.from_file(ini)
        assert (str(err.value), err.value.line) == (f"{ini}: config missing 'data.tune_src'", None)

    def test_invalid_utf8_names_the_file_and_the_line(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_bytes(b"[pipeline]\nworkdir = w\xff\n")
        message = f"{path}: line 2: invalid UTF-8: invalid start byte"
        with pytest.raises(FormatError) as err:
            PipelineConfig.from_file(path)
        assert (str(err.value), err.value.line) == (message, 2)
        assert cli_main(["selftrain", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

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

    def test_nan_min_delta_set_from_code_is_rejected(self, tmp_path):
        config = minimal_config(tmp_path, min_delta=float("nan"))
        with pytest.raises(ValueError, match="^min_delta must be >= 0$"):
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

    @pytest.mark.parametrize(
        "changes, message",
        [({"top_k_models": 0}, "top_k_models must be >= 1"),
         ({"tune_refs": ()}, "tune_refs must name at least one file"),
         ({"dev_refs": ("missing.ref",)}, "dev_refs file not found: missing.ref")],
        ids=["top-k-zero", "no-tune-refs", "missing-dev-refs"],
    )
    def test_config_check_text(self, tmp_path, monkeypatch, changes, message):
        monkeypatch.chdir(tmp_path)
        config = minimal_config(tmp_path, **changes)
        with pytest.raises(ValueError) as err:
            config.validate()
        assert str(err.value) == message


NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]*", fullmatch=True)
# values have no blank at either end, and may hold the characters of the grammar
VALUES = st.text("ab =:;#[]{}.,-/\u00e9\u65e5", max_size=8).map(str.strip)
# blank lines and comment lines, which may be indented
FILLER = st.lists(st.sampled_from(["", "  ", "# note", "; k = v", "   # [x]", "\t;"]), max_size=2)


@st.composite
def ini_texts(draw):
    """A config text in the documented grammar, with no repeated section or key."""
    sections = draw(st.dictionaries(
        NAMES.filter(lambda name: name != "DEFAULT"),  # configparser's defaults section
        st.dictionaries(NAMES, VALUES, max_size=4), max_size=4))
    lines = draw(FILLER)
    for name, keys in sections.items():
        lines += [f"[{name}]", *draw(FILLER)]
        for key, value in keys.items():
            lines += [key + draw(st.sampled_from(["=", " = ", "  =", "=\t"])) + value,
                      *draw(FILLER)]
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@given(ini_texts())
def test_ini_reader_matches_configparser(text):
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    cp.read_string(text)
    sections, where = _read_sections(io.StringIO(text))
    assert sections == {name: dict(cp[name]) for name in cp.sections()}
    lines = text.split("\n")
    for name, keys in sections.items():
        assert lines[where[name] - 1] == f"[{name}]"
        for key in keys:
            assert lines[where[f"{name}.{key}"] - 1].split("=")[0].strip() == key


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

    # a placeholder inside a substituted path is part of the path
    @pytest.mark.parametrize("dirname", ["work dir", "work {OUT} dir", "work {IN} dir"])
    def test_hooks_get_quoted_paths_with_spaces(self, tmp_path, dirname):
        config = PipelineConfig.from_file(build_pipeline_fixtures(tmp_path))
        config = dataclasses.replace(config, workdir=tmp_path / dirname)
        state = run_iteration(config)
        assert Path(state.labels_path).is_file()
        assert (tmp_path / dirname / "iter1" / "nbest.tune.txt").is_file()

    def test_undecodable_stderr_of_a_hook_that_succeeds(self, tmp_path):
        config = PipelineConfig.from_file(build_pipeline_fixtures(tmp_path))
        hook = config.hooks["score_lm"] + r" && printf '\377' >&2"
        state = run_iteration(dataclasses.replace(config, hooks={**config.hooks, "score_lm": hook}))
        assert Path(state.labels_path).is_file()

    def test_undecodable_stderr_of_a_hook_that_fails(self, tmp_path):
        config = PipelineConfig.from_file(build_pipeline_fixtures(tmp_path))
        hook = r"printf 'bad \377 byte' >&2; exit 1"
        with pytest.raises(HookError) as err:
            run_iteration(dataclasses.replace(config, hooks={**config.hooks, "score_lm": hook}))
        assert str(err.value) == f"stage score_lm[tune]: hook exited 1: {hook}\nbad \ufffd byte"

    def test_next_iteration_needs_the_previous_labels(self, tmp_path):
        config = PipelineConfig.from_file(build_pipeline_fixtures(tmp_path))
        first = run_iteration(config)
        Path(first.labels_path).unlink()
        with pytest.raises(ValueError) as err:
            run_iteration(config, first)
        assert str(err.value) == f"iteration 2 needs the previous labels: {first.labels_path}"
        assert not (Path(config.workdir) / "iter2").exists()

    def test_invalid_config_fails_before_the_first_stage(self, tmp_path, monkeypatch):
        config = PipelineConfig.from_file(build_pipeline_fixtures(tmp_path))
        hooks = []
        run_hook = pipeline._run_hook
        monkeypatch.setattr(
            pipeline, "_run_hook", lambda *args: (hooks.append(args[1:3]), run_hook(*args)))
        with pytest.raises(
            ValueError, match="^unknown label format 'TSV': expected one of tsv, parallel$"
        ):
            run_iteration(dataclasses.replace(config, label_format="TSV"))
        assert hooks == []
        assert list(Path(config.workdir).rglob("*")) == []

    @pytest.mark.parametrize("field, value", [("top_k_models", 1.5), ("iterations_max", True)])
    def test_a_count_that_is_no_integer_fails_before_the_first_stage(
        self, tmp_path, monkeypatch, field, value
    ):
        # top_k_models = 1.5 failed in the select stage, after four stages had run
        config = PipelineConfig.from_file(build_pipeline_fixtures(tmp_path))
        monkeypatch.setattr(pipeline, "_run_hook", lambda *args: pytest.fail("a hook ran"))
        with pytest.raises(ValueError) as err:
            run_iteration(dataclasses.replace(config, **{field: value}))
        assert str(err.value) == f"{field} must be an integer, got {value}"
        assert list(Path(config.workdir).rglob("*")) == []

    def test_rerun_returns_ledger_entry(self, tmp_path):
        config = PipelineConfig.from_file(build_pipeline_fixtures(tmp_path))
        first = run_iteration(config)
        again = run_iteration(config)
        assert again == first
        assert len(read_ledger(Path(config.workdir) / "ledger.jsonl")) == 1


def _barrier(name, count):
    """A template prefix: mark this call started, then wait up to 10 s until
    ``count`` calls have marked themselves, and exit 1 if they never do."""
    return (f"touch started.{name}.$(basename {{OUT}}); n=0; "
            f"while [ $(ls started.{name}.* | wc -l) -lt {count} ]; do "
            f"n=$((n + 1)); [ $n -le 1000 ] || exit 1; sleep 0.01; done; ")


def _command(template, in_path, out_path):
    """A template of iteration 1 as the hook runs it."""
    values = {"{ITER}": "1", "{IN}": shlex.quote(str(in_path)), "{OUT}": shlex.quote(str(out_path))}
    return re.sub(r"\{(ITER|IN|OUT)\}", lambda m: values[m[0]], template)


@given(st.text(alphabet="ab \t\n\r\x0b\x0c\x1c\x85\u2028\ufffd", max_size=40))
def test_last_lines_of_a_stream_equal_those_of_its_whole_text(text):
    # the whole text as a failed hook's stderr was read: decoded, with \r\n and \r as \n
    whole = text.replace("\r\n", "\n").replace("\r", "\n")
    for n in (1, 2, 5):
        assert pipeline._last_lines(io.StringIO(text, newline=None), n) == "\n".join(
            whole.strip().splitlines()[-n:])


class TestHookCalls:
    """The calls of a hook stage run at the same time, each into its own logs."""

    @pytest.fixture
    def config(self, tmp_path):
        return PipelineConfig.from_file(build_pipeline_fixtures(tmp_path, iterations=1))

    @staticmethod
    def hooks(config, **templates):
        return dataclasses.replace(config, hooks={**config.hooks, **templates})

    def test_the_calls_of_a_stage_run_together(self, config):
        # at most one call at a time, the first call waits 10 s and fails
        lm = config.hooks["score_lm"]
        config = dataclasses.replace(self.hooks(
            config, generate_nbest=_barrier("nbest", 3) + config.hooks["generate_nbest"],
            score_lm=_barrier("scores", 6) + lm, score_lm2=_barrier("scores", 6) + lm,
        ), external=("lm", "lm2"))
        state = run_iteration(config)
        assert Path(state.labels_path).is_file()
        started = sorted(p.name for p in (Path(config.workdir) / "iter1").glob("started.*"))
        assert started == sorted(
            [f"started.nbest.nbest.{name}.txt" for name in pipeline.DATA_SETS]
            + [f"started.scores.scores.{f}.{name}.tsv" for f in ("lm", "lm2")
               for name in pipeline.DATA_SETS])

    def test_a_failed_call_waits_for_its_siblings(self, config):
        copy = config.hooks["generate_nbest"]
        template = ("case {IN} in */tune.src) echo first >&2; echo tune failed >&2; exit 2;; "
                    f"esac; sleep 0.2; {copy}")
        itdir = Path(config.workdir) / "iter1"
        with pytest.raises(HookError) as err:
            run_iteration(self.hooks(config, generate_nbest=template))
        command = _command(template, config.tune_src, itdir / "nbest.tune.txt")
        assert str(err.value) == (
            f"stage generate_nbest[tune]: hook exited 2: {command}\nfirst\ntune failed")
        assert (itdir / "nbest.dev.txt").is_file()
        assert (itdir / "nbest.transfer.txt").is_file()
        assert not (itdir / ".generate_nbest.done").exists()

    def test_the_first_failure_in_call_order_is_reported(self, config):
        # transfer fails first, dev 0.3 s later: the error names dev
        template = ("case {IN} in */dev.src) sleep 0.3; exit 4;; */transfer.src) exit 5;; esac; "
                    + config.hooks["generate_nbest"])
        itdir = Path(config.workdir) / "iter1"
        with pytest.raises(HookError) as err:
            run_iteration(self.hooks(config, generate_nbest=template))
        command = _command(template, config.dev_src, itdir / "nbest.dev.txt")
        assert str(err.value) == f"stage generate_nbest[dev]: hook exited 4: {command}"

    def test_a_start_that_raises_waits_for_the_started_calls(self, config, monkeypatch):
        popen, started = subprocess.Popen, []

        def start(*args, **kwargs):
            if started:
                raise OSError("no more processes")
            started.append(popen(*args, **kwargs))
            return started[-1]

        monkeypatch.setattr(subprocess, "Popen", start)
        config = self.hooks(config, generate_nbest="sleep 0.3; " + config.hooks["generate_nbest"])
        itdir = Path(config.workdir) / "iter1"
        with pytest.raises(OSError, match="^no more processes$"):
            run_iteration(config)
        assert started[0].returncode == 0
        assert (itdir / "nbest.tune.txt").is_file()
        assert not (itdir / ".generate_nbest.done").exists()
        # the logs of the call that never started are not left half made
        assert sorted(p.name for p in (itdir / "logs").iterdir()) == [
            "generate_nbest.tune.err", "generate_nbest.tune.out"]

    def test_hook_output_goes_to_log_files_in_full(self, config):
        hook = ("head -c 1048576 /dev/zero | tr '\\0' x; "
                "for i in $(seq 12); do echo line $i >&2; done; exit 1")
        with pytest.raises(HookError) as err:
            run_iteration(self.hooks(config, score_lm=hook))
        tail = "".join(f"\nline {i}" for i in range(8, 13))
        assert str(err.value) == f"stage score_lm[tune]: hook exited 1: {hook}{tail}"
        logs = Path(config.workdir) / "iter1" / "logs"
        for name in pipeline.DATA_SETS:
            assert (logs / f"score_lm.{name}.out").read_bytes() == b"x" * 1048576
            assert (logs / f"score_lm.{name}.err").read_text() == "".join(
                f"line {i}\n" for i in range(1, 13))
        assert (logs / "generate_nbest.tune.out").read_bytes() == b""

    def test_hook_output_does_not_pass_through_memory(self, tmp_path):
        ini = build_pipeline_fixtures(tmp_path, iterations=1)
        hook = "case {IN} in */tune.src) head -c 52428800 /dev/zero;; esac; exit 1"
        ini.write_text(re.sub(r"(?m)^generate_nbest = .*$", f"generate_nbest = {hook}",
                              ini.read_text()))
        child = ("import resource, sys\n"
                 "from nbdistill.pipeline import HookError, PipelineConfig, run_iteration\n"
                 "config = PipelineConfig.from_file(sys.argv[1])\n"
                 "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
                 "try:\n    run_iteration(config)\nexcept HookError:\n    pass\n"
                 "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n")
        done = subprocess.run([sys.executable, "-c", child, str(ini)],
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        grown_kb = int(done.stdout)  # Linux counts ru_maxrss in KiB
        assert grown_kb < 8 * 1024
        log = tmp_path / "work" / "iter1" / "logs" / "generate_nbest.tune.out"
        assert log.stat().st_size == 52428800

    @pytest.mark.skipif(shutil.which("flock") is None, reason="no flock command")
    def test_a_template_with_flock_runs_its_calls_alone(self, config):
        # each call holds the file busy for 0.2 s, and exits 1 if it is taken
        hold = ("import os, time; os.close(os.open('busy', os.O_CREAT | os.O_EXCL | os.O_WRONLY)); "
                "time.sleep(0.2); os.remove('busy')")
        template = f"flock train.lock {sys.executable} -c {shlex.quote(hold)} && "
        state = run_iteration(self.hooks(
            config, generate_nbest=template + config.hooks["generate_nbest"]))
        assert Path(state.labels_path).is_file()
        assert (Path(config.workdir) / "iter1" / "train.lock").is_file()


@pytest.mark.parametrize("field, value, kind", [
    *((field, value, "be an integer") for field in ("iterations_max", "top_k_models")
      for value in (1.5, True)),
    ("min_delta", True, "be a number"),
    # a string is no tuple of its characters, and a hook command is a string
    ("tune_refs", "tune.ref", "be a tuple of paths"),
    ("native", "len", "be a tuple of strings"),
    ("workdir", 5, "be a path"),
    ("hooks", {"generate_nbest": 5}, "map names to strings"),
    ("mira", 5, "be a MiraConfig"),
])
def test_counts_must_be_integers(field, value, kind):
    with pytest.raises(ValueError) as err:
        _config(**{field: value}).validate()
    assert str(err.value) == f"{field} must {kind}, got {value!r}"


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
                "--refs", ",".join(str(p) for p in config.dev_refs), "--report",
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


class TestCliMatchesSteps:
    """``evaluate`` and ``oracle`` print or write what their file-level steps
    print or write when called in-process."""

    REFS = ["ref0.txt", "ref1.txt"]

    @pytest.fixture
    def lists(self, tmp_path, monkeypatch):
        _, refs, hyps = make_corpus(8, 4, seed=23, num_refs=2)
        write_lines(tmp_path / "nbest.txt", nbest_lines(hyps))
        write_lines(tmp_path / "hyp.txt", [h[1] for h in hyps])
        for k, name in enumerate(self.REFS):
            write_lines(tmp_path / name, [r[k] for r in refs])
        monkeypatch.chdir(tmp_path)
        return tmp_path

    @pytest.mark.parametrize("metric", ["bleu", "chrf"])
    def test_evaluate(self, lists, capsys, metric):
        argv = ["evaluate", "--hyp", "hyp.txt", "--refs", ",".join(self.REFS), "--metric", metric]
        assert cli_main(argv) == 0
        assert capsys.readouterr().out == evaluate_file("hyp.txt", self.REFS, metric)

    @pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
    @pytest.mark.parametrize(
        "flags, kwargs",
        [([], {}), (["--mode", "anti"], {"mode": "anti_oracle"}),
         (["--sweep", "1,2,4"], {"sweep": [1, 2, 4]})],
        ids=["select", "anti", "sweep"],
    )
    def test_oracle(self, lists, capsys, flags, kwargs, to_file):
        out = ["--out", "cli.tsv"] if to_file else []
        assert cli_main(["oracle", "--nbest", "nbest.txt", "--refs", ",".join(self.REFS),
                         *flags, *out]) == 0
        printed = capsys.readouterr().out
        bleu, _ = oracle_file("nbest.txt", self.REFS, "step.tsv" if to_file else None, **kwargs)
        report = "" if bleu is None else f"BLEU\t{bleu:.4f}\n"
        if to_file:
            assert (lists / "cli.tsv").read_bytes() == (lists / "step.tsv").read_bytes()
            assert printed == report
        else:
            assert printed == capsys.readouterr().out + report


def _config(**changes):
    """A config with ``changes``; ``validate`` checks its names before its paths,
    which do not exist."""
    return PipelineConfig(**{
        "workdir": Path("work"), "tune_src": Path("t.src"), "tune_refs": (Path("t.ref"),),
        "dev_src": Path("d.src"), "dev_refs": (Path("d.ref"),), "transfer_src": Path("x.src"),
        "hooks": {"generate_nbest": "g"}, "native": ("len",), **changes,
    })


def _one_list():
    return load_nbest(["0 ||| a b |||  ||| 1.0"])


# Every lookup of a named mode: the kind of name, the names it takes, and a
# call with the name.  A file-level step gets paths that do not exist, so one
# that opens a file before it checks the name fails with FileNotFoundError.
LOOKUPS = {
    "evaluate_file": ("metric", "bleu, chrf",
                      lambda name: evaluate_file("hyp.txt", ["ref.txt"], name)),
    "distill_file strategy": ("strategy", "kd, ki, rerank", lambda name: distill_file(
        name, "n.txt", "s.txt", "labels", matrix="m.tsv", weights="w.tsv", orig_refs=["r.txt"])),
    "distill_file fmt": ("label format", "tsv, parallel",
                         lambda name: distill_file("kd", "n.txt", "s.txt", "labels", name)),
    "oracle_file": ("oracle mode", "oracle, anti_oracle",
                    lambda name: oracle_file("n.txt", ["r.txt"], "o.tsv", mode=name)),
    "oracle_select": ("oracle mode", "oracle, anti_oracle",
                      lambda name: oracle_select(_one_list(), (("a",),), name)),
    "MiraConfig": ("init mode", "zeros, uniform", lambda name: MiraConfig(init=name)),
    "mbr_utility": ("MBR utility", "sentence_bleu, sentence_chrf",
                    lambda name: mbr_utility(["a b"], name)),
    "assemble_matrix": ("native feature", "mbr_bleu, mbr_chrf, len, len_ratio",
                        lambda name: assemble_matrix(_one_list(), native=["len", name])),
    "label_paths": ("label format", "tsv, parallel", lambda name: label_paths("labels", name)),
    "PipelineConfig label_format": ("label format", "tsv, parallel",
                                    lambda name: _config(label_format=name).validate()),
    "PipelineConfig native": ("native feature", "mbr_bleu, mbr_chrf, len, len_ratio",
                              lambda name: _config(native=(name,)).validate()),
}


@pytest.mark.parametrize("spelling", ["wrong case", "misspelt"])
@pytest.mark.parametrize("what, names, call", LOOKUPS.values(), ids=LOOKUPS)
def test_an_unknown_name_fails_before_a_file_is_read(tmp_path, monkeypatch, what, names,
                                                     call, spelling):
    monkeypatch.chdir(tmp_path)
    first = names.split(", ")[0]
    name = first.upper() if spelling == "wrong case" else first + "2"
    message = f"unknown {what} {name!r}: expected one of {names}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(name)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "strategy, given, missing",
    [("rerank", {}, "--matrix"), ("rerank", {"matrix": "m.tsv"}, "--weights"),
     ("rerank", {"weights": "w.tsv"}, "--matrix"), ("ki", {}, "--orig-refs"),
     ("ki", {"orig_refs": ()}, "--orig-refs")],
    ids=["rerank", "rerank-no-weights", "rerank-no-matrix", "ki", "ki-empty"],
)
def test_distill_names_a_missing_argument_before_a_file_is_read(tmp_path, monkeypatch,
                                                                strategy, given, missing):
    monkeypatch.chdir(tmp_path)
    message = f"distill {strategy} requires {missing}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        distill_file(strategy, "n.txt", "s.txt", "labels", **given)
    assert list(tmp_path.iterdir()) == []


# Library calls with an argument that their mode does not read, and the
# message of the command that the step backs.
UNREAD = {
    "kd-matrix": (lambda: distill_file("kd", "n.txt", "s.txt", "labels", matrix="m.tsv"),
                  "distill kd does not read --matrix"),
    "ki-top-k-models": (lambda: distill_file("ki", "n.txt", "s.txt", "labels", top_k_models=0,
                                             orig_refs=["r.txt"]),
                        "distill ki does not read --top-k-models"),
    "rerank-orig-refs": (lambda: distill_file("rerank", "n.txt", "s.txt", "labels",
                                              matrix="m.tsv", weights="w.tsv",
                                              orig_refs=["r.txt"]),
                         "distill rerank does not read --orig-refs"),
    "oracle-sweep-mode": (lambda: oracle_file("n.txt", ["r.txt"], "o.tsv", mode="anti_oracle",
                                              sweep=[1]),
                          "oracle --sweep does not read --mode"),
}


@pytest.mark.parametrize("call, message", UNREAD.values(), ids=UNREAD)
def test_an_argument_the_mode_does_not_read_fails_before_a_file_is_read(tmp_path, monkeypatch,
                                                                        call, message):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
    assert list(tmp_path.iterdir()) == []


class TestTablesCallThroughTheModule:
    """Each ``METRICS`` and ``STRATEGIES`` entry calls its layer function by
    the name that ``nbdistill.pipeline`` binds, so that a function replaced
    there (as the benchmark's tracer replaces it) is the one called."""

    CALLS = {"bleu": "corpus_bleu", "chrf": "corpus_chrf",
             "kd": "kd_top1", "ki": "ki_select", "rerank": "rerank_labels"}
    ARGUMENTS = {"kd": {}, "ki": {"orig_refs": ["ref.txt"]},
                 "rerank": {"matrix": "matrix.tsv", "weights": "weights.tsv"}}

    def test_every_entry_has_its_layer_function(self):
        assert set(self.CALLS) == set(METRICS) | set(STRATEGIES)

    @pytest.fixture
    def called(self, tmp_path, monkeypatch):
        sources, refs, hyps = make_corpus(6, 3, seed=31)
        write_lines(tmp_path / "nbest.txt", nbest_lines(hyps))
        write_lines(tmp_path / "src.txt", sources)
        write_lines(tmp_path / "ref.txt", [r[0] for r in refs])
        write_lines(tmp_path / "hyp.txt", [h[0] for h in hyps])
        monkeypatch.chdir(tmp_path)
        assemble_file("nbest.txt", "matrix.tsv", ("total",), ("len",))
        tune_file("matrix.tsv", "nbest.txt", ["ref.txt"], MiraConfig(epochs=2), "weights.tsv")
        calls = []
        for name in set(self.CALLS.values()):
            def recorder(*args, _name=name, _original=getattr(pipeline, name), **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)
            monkeypatch.setattr(pipeline, name, recorder)
        return calls

    @pytest.mark.parametrize("metric", list(METRICS))
    def test_metric(self, called, metric):
        evaluate_file("hyp.txt", ["ref.txt"], metric)
        assert called == [self.CALLS[metric]]

    @pytest.mark.parametrize("strategy", list(STRATEGIES))
    def test_strategy(self, called, strategy):
        distill_file(strategy, "nbest.txt", "src.txt", "labels", **self.ARGUMENTS[strategy])
        assert called == [self.CALLS[strategy]]


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

    @pytest.mark.parametrize(
        "text, message",
        [("nan\n", "line 1: non-finite dev BLEU 'nan'"),
         ("fifty\n", "line 1: unparseable dev BLEU: 'fifty'"),
         ("50.0\n51.0\n", "expected one line, got 2"),
         ("", "expected one line, got 0")],
        ids=["nan", "word", "two-lines", "empty"],
    )
    def test_a_bad_dev_bleu_file_is_named_and_not_recorded(self, tmp_path, text, message):
        config = PipelineConfig.from_file(build_pipeline_fixtures(tmp_path))
        itdir = Path(config.workdir) / "iter1"
        itdir.mkdir(parents=True)
        (itdir / "dev_bleu.txt").write_text(text)
        for stage in STAGES:
            (itdir / f".{stage}.done").touch()
        with pytest.raises(FormatError) as err:
            run_selftrain(config)
        assert str(err.value) == f"{itdir / 'dev_bleu.txt'}: {message}"
        assert not (Path(config.workdir) / "ledger.jsonl").exists()

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

    def test_a_resumed_iteration_keeps_the_time_of_its_first_start(self, tmp_path, monkeypatch):
        marker = tmp_path / "crash"
        config = PipelineConfig.from_file(
            build_pipeline_fixtures(tmp_path, iterations=1, fail_marker=marker))
        times = iter(f"t{n}" for n in range(10))
        monkeypatch.setattr(pipeline, "_utc_now", lambda: next(times))
        marker.touch()
        with pytest.raises(HookError):
            run_iteration(config)
        marker.unlink()
        state = run_iteration(config)
        assert (state.started, state.finished) == ("t0", "t1")
        assert read_ledger(pipeline.ledger_path(config.workdir)) == [state]

    def test_a_failed_final_write_keeps_the_previous_labels(self, tmp_path, monkeypatch):
        config = PipelineConfig.from_file(build_pipeline_fixtures(tmp_path, iterations=1))
        run_selftrain(config)
        final = Path(config.workdir) / "final.labels.tsv"
        final.write_bytes(b"old\tlabels\n")

        def replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError, match="disk full"):
            run_selftrain(config)
        assert final.read_bytes() == b"old\tlabels\n"

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

    @pytest.mark.parametrize("label", ["weights", "labels"])
    def test_a_ledger_entry_whose_file_is_gone_fails_before_any_stage(
        self, tmp_path, monkeypatch, label
    ):
        config = PipelineConfig.from_file(build_pipeline_fixtures(tmp_path, iterations=2))
        first = run_iteration(config)
        missing = getattr(first, f"{label}_path")
        Path(missing).unlink()
        monkeypatch.setattr(pipeline, "_run_hook", lambda *args: pytest.fail("a hook ran"))
        with pytest.raises(ValueError) as err:
            run_selftrain(config)
        assert str(err.value) == f"ledger iteration 1 references a missing {label} file: {missing}"

    def test_a_copied_workdir_finalizes_from_its_own_files(self, tmp_path, capsys):
        """The ledger's paths are a record: a copy of a finished workdir takes
        each iteration's files from itself, also once the original is gone."""
        ini = build_pipeline_fixtures(tmp_path, iterations=2)
        assert cli_main(["selftrain", "--config", str(ini)]) == 0
        shutil.copytree(tmp_path / "work", tmp_path / "copy")
        copied = tmp_path / "copied.ini"
        copied.write_text(ini.read_text().replace("\nworkdir = work\n", "\nworkdir = copy\n"))
        best = best_iteration(read_ledger(tmp_path / "work" / "ledger.jsonl"))
        Path(best.labels_path).write_text("edited\n")
        labels = tmp_path / "copy" / f"iter{best.iter}" / "labels.tsv"
        for original in ("edited", "deleted"):
            if original == "deleted":
                shutil.rmtree(tmp_path / "work")
            capsys.readouterr()
            assert cli_main(["selftrain", "--config", str(copied)]) == 0, original
            assert f"labels\t{labels}\n" in capsys.readouterr().out
            assert (tmp_path / "copy" / "final.labels.tsv").read_bytes() == labels.read_bytes()

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
        message = f"{ledger}: line 2: bad ledger entry: {field} must be"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            read_ledger(ledger)
        assert cli_main(["status", "--workdir", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize("digits", [5000, 400])
    def test_rejects_an_integer_too_long_to_load(self, tmp_path, capsys, digits):
        entry = json.dumps(self.ENTRY)
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text(entry + "\n" + entry.replace("1.5", "1" * digits) + "\n")
        message = f"{ledger}: line 2: bad ledger entry: "
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
