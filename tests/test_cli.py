import os
import re
import shlex
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from nbdistill.cli import build_parser, main
from nbdistill.corpus import FormatError
from nbdistill.mira import MiraConfig
from nbdistill.pipeline import STRATEGIES, HookError, PipelineConfig
from synth import build_pipeline_fixtures, child_env, make_corpus, nbest_lines, write_lines

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def workspace(tmp_path):
    sources, refs, hyps = make_corpus(10, 4, seed=20, num_refs=2)
    write_lines(tmp_path / "nbest.txt", nbest_lines(hyps))
    write_lines(tmp_path / "src.txt", sources)
    write_lines(tmp_path / "ref0.txt", [r[0] for r in refs])
    write_lines(tmp_path / "ref1.txt", [r[1] for r in refs])
    write_lines(tmp_path / "hyp.txt", [h[0] for h in hyps])
    write_lines(
        tmp_path / "lm.tsv",
        [f"{s}\t{r}\t{-1.0 - 0.1 * (s + r)}" for s in range(10) for r in range(4)],
    )
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEvaluate:
    def test_bleu_output_format(self, workspace, capsys):
        code, out, _ = run(
            capsys, "evaluate", "--hyp", workspace / "hyp.txt",
            "--refs", f"{workspace}/ref0.txt,{workspace}/ref1.txt",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("BLEU\t")
        value = lines[0].split("\t")[1]
        assert len(value.split(".")[1]) == 4
        assert lines[1] == "#signature\tnrefs:2|case:mixed|eff:no|tok:13a|smooth:exp"

    def test_chrf_output_format(self, workspace, capsys):
        code, out, _ = run(
            capsys, "evaluate", "--hyp", workspace / "hyp.txt",
            "--refs", workspace / "ref0.txt", "--metric", "chrf",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("chrF\t")
        assert "nrefs:1" in lines[1] and "nc:6" in lines[1]

    def test_identity_is_100(self, workspace, capsys):
        code, out, _ = run(
            capsys, "evaluate", "--hyp", workspace / "ref0.txt",
            "--refs", workspace / "ref0.txt",
        )
        assert out.splitlines()[0] == "BLEU\t100.0000"

    def test_empty_files_score_zero(self, capsys, tmp_path):
        write_lines(tmp_path / "hyp.txt", [])
        write_lines(tmp_path / "ref.txt", [])
        code, out, _ = run(
            capsys, "evaluate", "--hyp", tmp_path / "hyp.txt", "--refs", tmp_path / "ref.txt"
        )
        assert code == 0
        assert out.splitlines()[0] == "BLEU\t0.0000"

    def test_mismatched_lengths_fail(self, workspace, capsys, tmp_path):
        short = tmp_path / "short.txt"
        short.write_text("one line\n")
        code, _, err = run(
            capsys, "evaluate", "--hyp", short, "--refs", workspace / "ref0.txt"
        )
        assert code == 1
        assert "mismatch" in err

    def test_mismatch_names_the_files(self, workspace, capsys, tmp_path):
        short = tmp_path / "short.txt"
        write_lines(short, (workspace / "ref1.txt").read_text().splitlines()[:9])
        ref0 = workspace / "ref0.txt"
        _, _, err = run(capsys, "evaluate", "--hyp", ref0, "--refs", f"{ref0},{short}")
        assert err == (
            f"error: line count mismatch 10 vs 9 (reference {str(ref0)!r}: 10, "
            f"reference {str(short)!r}: 9)\n"
        )
        _, _, err = run(capsys, "evaluate", "--hyp", short, "--refs", ref0)
        assert err == (
            f"error: line count mismatch 9 vs 10 (hypothesis file {str(short)!r}: 9, "
            "references: 10)\n"
        )

    def test_blank_reference_line_fails(self, workspace, capsys, tmp_path):
        blank = tmp_path / "blank.txt"
        lines = (workspace / "ref1.txt").read_text().splitlines()
        write_lines(blank, lines[:2] + [""] + lines[3:])
        code, out, err = run(
            capsys, "evaluate", "--hyp", workspace / "hyp.txt",
            "--refs", f"{workspace}/ref0.txt,{blank}",
        )
        assert (code, out, err) == (1, "", f"error: {blank}: line 3: empty line in reference stream\n")

    def test_invalid_utf8_hypothesis_names_its_file_and_line(self, workspace, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"one\ntwo\xff\n")
        code, out, err = run(capsys, "evaluate", "--hyp", bad, "--refs", workspace / "ref0.txt")
        assert (code, out) == (1, "")
        assert err == f"error: {bad}: line 2: invalid UTF-8: invalid start byte\n"

    @pytest.mark.parametrize(
        "metric, want",
        [
            ("bleu", ["BLEU\t72.0447", "#signature\tnrefs:2|case:mixed|eff:no|tok:13a|smooth:exp"]),
            ("chrf", ["chrF\t76.2469",
                      "#signature\tnrefs:2|case:mixed|nc:6|nw:0|beta:2|space:collapse"]),
        ],
    )
    def test_golden_output(self, tmp_path, capsys, metric, want):
        # 13a punctuation, digit-internal '.'/',', digit dashes, entities,
        # whitespace runs, non-ASCII and an empty hypothesis
        write_lines(tmp_path / "hyp.txt", [
            "The cat sat on the mat, didn't it?",
            "Prices rose 3.5% to $1,000 in 2019-2020.",
            "He said: &quot;hello&quot; &amp; left.",
            "a  b\tc",
            "Straße (Köln) -- 9-5 shift!",
            "",
        ])
        write_lines(tmp_path / "ref0.txt", [
            "The cat sat on the mat, did it not?",
            "Prices rose by 3.5 % to $1,000 in 2019-2020.",
            'He said: "hello" and left.',
            "a b c",
            "Straße (Köln): 9-5 shift.",
            "nothing here",
        ])
        write_lines(tmp_path / "ref1.txt", [
            "A cat was sitting on the mat, wasn't it?",
            "Prices went up 3.5% to $1.000 during 2019 - 2020.",
            "He said &quot;hello&quot; &amp; went.",
            "a b c d",
            "Strasse Köln 9-5 shift!",
            "empty",
        ])
        code, out, _ = run(
            capsys, "evaluate", "--hyp", tmp_path / "hyp.txt",
            "--refs", f"{tmp_path}/ref0.txt,{tmp_path}/ref1.txt", "--metric", metric,
        )
        assert (code, out.splitlines()) == (0, want)


class TestAssembleTuneRerank:
    def assemble(self, workspace, capsys, out="matrix.tsv"):
        return run(
            capsys, "assemble", "--nbest", workspace / "nbest.txt",
            "--native", "mbr_bleu,len,len_ratio", "--passthrough", "total,lm",
            "--scores", f"ext={workspace}/lm.tsv", "--out", workspace / out,
        )

    def test_assemble_writes_header(self, workspace, capsys):
        code, _, _ = self.assemble(workspace, capsys)
        assert code == 0
        header = (workspace / "matrix.tsv").read_text().splitlines()[0]
        assert header == "#features\ttotal\tlm\tmbr_bleu\tlen\tlen_ratio\text"

    def test_comma_list_items_are_stripped(self, workspace, capsys):
        for out, native in (("plain.tsv", "len,len_ratio"), ("spaced.tsv", "len, len_ratio")):
            code, _, err = run(
                capsys, "assemble", "--nbest", workspace / "nbest.txt",
                "--native", native, "--out", workspace / out,
            )
            assert (code, err) == (0, "")
        assert (workspace / "spaced.tsv").read_bytes() == (workspace / "plain.tsv").read_bytes()

    @pytest.mark.parametrize("spec", ["justafile.tsv", "=s.tsv", "lm=", "="])
    def test_assemble_bad_scores_spec(self, workspace, capsys, spec):
        assert run(
            capsys, "assemble", "--nbest", workspace / "nbest.txt",
            "--scores", spec, "--out", workspace / "m.tsv",
        ) == (1, "", f"error: --scores expects NAME=FILE, got {spec!r}\n")
        assert not (workspace / "m.tsv").exists()

    def test_tune_then_rerank_report(self, workspace, capsys):
        self.assemble(workspace, capsys)
        code, _, _ = run(
            capsys, "tune", "--matrix", workspace / "matrix.tsv",
            "--nbest", workspace / "nbest.txt",
            "--refs", f"{workspace}/ref0.txt,{workspace}/ref1.txt",
            "--epochs", "3", "--out", workspace / "weights.tsv",
        )
        assert code == 0
        weight_lines = (workspace / "weights.tsv").read_text().splitlines()
        assert weight_lines[0].split("\t")[0] == "total"
        assert weight_lines[-1].startswith("#best_epoch\t")
        assert "#tune_bleu\t" in weight_lines[-1]

        code, out, _ = run(
            capsys, "rerank", "--matrix", workspace / "matrix.tsv",
            "--nbest", workspace / "nbest.txt", "--weights", workspace / "weights.tsv",
            "--top-k-models", "3", "--out", workspace / "selections.tsv",
            "--refs", f"{workspace}/ref0.txt,{workspace}/ref1.txt", "--report",
        )
        assert code == 0
        assert out.splitlines()[0].startswith("BLEU\t")
        rows = (workspace / "selections.tsv").read_text().splitlines()
        assert len(rows) == 10
        sid, rank, text = rows[0].split("\t", 2)
        assert sid == "0" and rank in "0123" and text


    def test_report_with_an_empty_reference_list_fails(self, workspace, capsys):
        run(capsys, "assemble", "--nbest", workspace / "nbest.txt", "--passthrough", "total",
            "--out", workspace / "matrix.tsv")
        (workspace / "weights.tsv").write_text("total\t1.0\n")
        assert run(
            capsys, "rerank", "--matrix", workspace / "matrix.tsv",
            "--nbest", workspace / "nbest.txt", "--weights", workspace / "weights.tsv",
            "--out", workspace / "selections.tsv", "--refs", ",", "--report",
        ) == (1, "", "error: at least one reference stream required\n")
        assert not (workspace / "selections.tsv").exists()


class TestTuneDefaults:
    def test_parsed_defaults_build_the_default_config(self):
        args = build_parser().parse_args(
            ["tune", "--matrix", "m", "--nbest", "n", "--refs", "r", "--out", "w"]
        )
        config = MiraConfig(c=args.c, epochs=args.epochs, seed=args.seed, init=args.init)
        assert config == MiraConfig()


    @pytest.mark.parametrize("c", ["nan", "inf", "0"])
    def test_c_must_be_positive_and_finite(self, capsys, c):
        # rejected before any input file is opened
        code, _, err = run(capsys, "tune", "--matrix", "m", "--nbest", "n", "--refs", "r",
                           "--c", c, "--out", "w")
        assert (code, err) == (1, f"error: c must be positive and finite, got {float(c)}\n")

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_must_fit_in_64_bits(self, capsys, seed):
        # rejected before any input file is opened, not reduced modulo 2**64
        code, _, err = run(capsys, "tune", "--matrix", "m", "--nbest", "n", "--refs", "r",
                           "--seed", seed, "--out", "w")
        assert (code, err) == (1, f"error: seed must be in 0..18446744073709551615, got {seed}\n")


class TestOracleCli:
    def test_selection_output(self, workspace, capsys):
        code, out, err = run(
            capsys, "oracle", "--nbest", workspace / "nbest.txt",
            "--refs", workspace / "ref0.txt", "--out", workspace / "oracle.tsv",
        )
        assert code == 0
        assert out.startswith("BLEU\t")
        assert err == ("note: greedy per-sentence selection by smoothed sentence BLEU "
                       "(not a corpus-level oracle)\n")
        assert len((workspace / "oracle.tsv").read_text().splitlines()) == 10

    def test_sweep_tsv(self, workspace, capsys):
        code, out, _ = run(
            capsys, "oracle", "--nbest", workspace / "nbest.txt",
            "--refs", workspace / "ref0.txt", "--sweep", "1,2,4",
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        for line in lines:
            assert len(line.split("\t")) == 4

    def test_anti_mode(self, workspace, capsys):
        code, out, _ = run(
            capsys, "oracle", "--nbest", workspace / "nbest.txt",
            "--refs", workspace / "ref0.txt", "--mode", "anti",
            "--out", workspace / "anti.tsv",
        )
        assert code == 0

    def test_sweep_past_a_short_list_warns(self, tmp_path, capsys):
        write_lines(tmp_path / "nbest.txt", nbest_lines([["a b", "a c"], ["d e"]]))
        write_lines(tmp_path / "ref.txt", ["a b", "d e"])
        code, out, err = run(capsys, "oracle", "--nbest", tmp_path / "nbest.txt",
                             "--refs", tmp_path / "ref.txt", "--sweep", "1,2")
        assert (code, len(out.splitlines())) == (0, 2)
        assert err.endswith("\nwarning: 1 truncated list(s)\n")

    @pytest.mark.parametrize("sweep, message", [
        ("", "no sweep sizes given"),
        ("2,1", "sweep sizes must be non-decreasing"),
        ("0", "sweep sizes must be positive"),
    ], ids=["empty", "decreasing", "zero"])
    def test_bad_sweep_sizes_fail(self, workspace, capsys, sweep, message):
        argv = ["oracle", "--nbest", workspace / "nbest.txt", "--refs", workspace / "ref0.txt"]
        assert run(capsys, *argv, "--sweep", sweep) == (1, "", f"error: {message}\n")

    def test_sweep_size_that_is_no_integer_fails_before_reading(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(capsys, *"oracle --nbest n --refs r --sweep 1,x".split()) == (
            1, "", "error: --sweep takes integers, got 'x'\n")
        assert list(tmp_path.iterdir()) == []


class TestDistillCli:
    def test_kd_tsv(self, workspace, capsys):
        code, out, _ = run(
            capsys, "distill", "--strategy", "kd", "--nbest", workspace / "nbest.txt",
            "--src", workspace / "src.txt", "--out", workspace / "labels",
            "--format", "tsv",
        )
        assert code == 0
        path = Path(out.strip())
        assert path.name == "labels.tsv"
        assert len(path.read_text().splitlines()) == 10

    def test_ki_requires_refs(self, workspace, capsys):
        code, _, err = run(
            capsys, "distill", "--strategy", "ki", "--nbest", workspace / "nbest.txt",
            "--src", workspace / "src.txt", "--out", workspace / "labels",
        )
        assert code == 1
        assert "orig-refs" in err

    def test_ki_parallel(self, workspace, capsys):
        code, out, _ = run(
            capsys, "distill", "--strategy", "ki", "--nbest", workspace / "nbest.txt",
            "--src", workspace / "src.txt", "--orig-refs", workspace / "ref0.txt",
            "--out", workspace / "labels", "--format", "parallel",
        )
        assert code == 0
        paths = [Path(p) for p in out.splitlines()]
        assert {p.suffix for p in paths} == {".src", ".tgt"}
        src_lines = paths[0].read_text().splitlines()
        assert src_lines == (workspace / "src.txt").read_text().splitlines()

    def test_rerank_strategy_needs_matrix(self, workspace, capsys):
        code, _, err = run(
            capsys, "distill", "--strategy", "rerank", "--nbest", workspace / "nbest.txt",
            "--src", workspace / "src.txt", "--out", workspace / "labels",
        )
        assert code == 1
        assert "matrix" in err


def _flag(name):
    return "--" + name.replace("_", "-")


class TestModeFlags:
    """Each mode of distill, oracle and rerank reads its own flags.  Any
    other, or a missing one that it needs, fails before a file is opened."""

    KD = "distill --strategy kd --nbest n --src s --out o"
    KI = "distill --strategy ki --nbest n --src s --out o --orig-refs r"
    RERANK = "distill --strategy rerank --nbest n --src s --out o --matrix m --weights w"
    SWEEP = "oracle --nbest n --refs r --sweep 1,2"
    CASES = [
        (f"{KD} --orig-refs r", "distill kd does not read --orig-refs"),
        (f"{KD} --matrix m", "distill kd does not read --matrix"),
        (f"{KD} --weights w", "distill kd does not read --weights"),
        (f"{KD} --top-k-models 3", "distill kd does not read --top-k-models"),
        (f"{KI} --matrix m", "distill ki does not read --matrix"),
        (f"{KI} --weights w", "distill ki does not read --weights"),
        (f"{KI} --top-k-models 0", "distill ki does not read --top-k-models"),
        (f"{RERANK} --orig-refs r", "distill rerank does not read --orig-refs"),
        (f"{SWEEP} --mode anti", "oracle --sweep does not read --mode"),
        (f"{SWEEP} --mode oracle", "oracle --sweep does not read --mode"),
        ("rerank --matrix m --nbest n --weights w --out o --refs r",
         "rerank without --report does not read --refs"),
        ("oracle --nbest n --refs r --sweep= --mode anti", "oracle --sweep does not read --mode"),
        (KI.replace(" --orig-refs r", ""), "distill ki requires --orig-refs"),
        (RERANK.replace(" --matrix m", ""), "distill rerank requires --matrix"),
        (RERANK.replace(" --weights w", ""), "distill rerank requires --weights"),
        ("rerank --matrix m --nbest n --weights w --out o --report",
         "rerank --report requires --refs or --top-k-models"),
    ]

    @pytest.mark.parametrize("argv, message", CASES)
    def test_a_flag_the_mode_does_not_read_fails(self, tmp_path, monkeypatch, capsys,
                                                 argv, message):
        monkeypatch.chdir(tmp_path)
        assert run(capsys, *argv.split()) == (1, "", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    # the rules that the file-level steps do not state: oracle --sweep reads
    # no --mode, and the two rules of rerank --report
    OTHER_RULES = ["oracle --sweep does not read --mode",
                   "rerank without --report does not read --refs",
                   "rerank --report requires --refs or --top-k-models"]

    def test_every_flag_a_mode_does_not_read_has_a_case(self):
        messages = {message for _, message in self.CASES}
        optional = {name for reads, _ in STRATEGIES.values() for name in reads}
        for strategy, (reads, _) in STRATEGIES.items():
            for name in optional - set(reads):
                assert f"distill {strategy} does not read {_flag(name)}" in messages
        assert set(self.OTHER_RULES) <= messages

    def test_every_flag_a_mode_needs_has_a_case(self):
        messages = {message for _, message in self.CASES}
        for strategy, (reads, _) in STRATEGIES.items():
            for name, needed in reads.items():
                if needed:
                    assert f"distill {strategy} requires {_flag(name)}" in messages
        assert set(self.OTHER_RULES) <= messages


@pytest.mark.skipif(not os.path.exists("/dev/stderr"), reason="no /dev/stdout, /dev/stderr")
@pytest.mark.parametrize("stream", ["stdout", "stderr"])
@pytest.mark.parametrize("mode", ["a", "w"], ids=[">>", ">"])
def test_out_to_standard_output_keeps_what_the_shell_wrote(workspace, capsys, mode, stream):
    """``--out /dev/stdout`` or ``/dev/stderr`` appends to the stream's file
    after what the shell put there, followed by what the command prints to it."""
    argv = ["oracle", "--nbest", workspace / "nbest.txt", "--refs", workspace / "ref0.txt"]
    _, bleu, note = run(capsys, *argv, "--out", workspace / "oracle.tsv")
    log = workspace / "log.txt"
    log.write_text("earlier\n")
    with open(log, mode) as f:
        subprocess.run([sys.executable, "-m", "nbdistill", *map(str, argv), "--out", f"/dev/{stream}"],
                       env=child_env(), check=True, timeout=60,
                       **{"stdout": subprocess.DEVNULL, "stderr": subprocess.DEVNULL, stream: f})
    earlier = "earlier\n" if mode == "a" else ""
    printed = bleu if stream == "stdout" else note
    assert log.read_text() == earlier + (workspace / "oracle.tsv").read_text() + printed


class TestReferenceCoverage:
    @pytest.fixture
    def short_refs(self, tmp_path, capsys):
        """A 6-sentence n-best list with its matrix and weights, and 5 references."""
        sources, refs, hyps = make_corpus(6, 3, seed=21)
        write_lines(tmp_path / "nbest.txt", nbest_lines(hyps))
        write_lines(tmp_path / "src.txt", sources)
        write_lines(tmp_path / "ref.txt", [r[0] for r in refs[:5]])
        write_lines(tmp_path / "weights.tsv", ["total\t1.0"])
        code, _, _ = run(
            capsys, "assemble", "--nbest", tmp_path / "nbest.txt", "--passthrough", "total",
            "--out", tmp_path / "matrix.tsv",
        )
        assert code == 0
        return tmp_path

    @pytest.mark.parametrize(
        "argv",
        [
            "tune --matrix matrix.tsv --nbest nbest.txt --refs ref.txt --out w.tsv",
            "rerank --matrix matrix.tsv --nbest nbest.txt --weights weights.tsv "
            "--refs ref.txt --report --out sel.tsv",
            "oracle --nbest nbest.txt --refs ref.txt",
            "oracle --nbest nbest.txt --refs ref.txt --sweep 1,2",
            "distill --strategy ki --nbest nbest.txt --src src.txt --orig-refs ref.txt "
            "--out labels",
        ],
        ids=["tune", "rerank", "oracle", "sweep", "ki"],
    )
    def test_short_references_name_both_counts(self, short_refs, capsys, monkeypatch, argv):
        monkeypatch.chdir(short_refs)
        code, _, err = run(capsys, *argv.split())
        assert code == 1
        assert err.splitlines()[-1] == "error: references cover 5 sentences, corpus has 6"


class TestErrorsNameTheFile:
    """A command that reads several files says which one is malformed."""

    @pytest.fixture
    def files(self, tmp_path, capsys, monkeypatch):
        sources, refs, hyps = make_corpus(4, 2, seed=22)
        write_lines(tmp_path / "nbest.txt", nbest_lines(hyps))
        write_lines(tmp_path / "src.txt", sources)
        write_lines(tmp_path / "ref.txt", [r[0] for r in refs])
        write_lines(tmp_path / "lm.tsv", [f"{s}\t{r}\t-1.0" for s in range(4) for r in range(2)])
        write_lines(tmp_path / "weights.tsv", ["#tuned", "total\t1.0"])
        monkeypatch.chdir(tmp_path)
        code, _, _ = run(capsys, "assemble", "--nbest", "nbest.txt", "--passthrough", "total",
                         "--out", "matrix.tsv")
        assert code == 0
        return tmp_path

    @pytest.mark.parametrize(
        "argv, bad_file, text, message",
        [
            ("assemble --nbest nbest.txt --passthrough total --scores lm=lm.tsv --out m.tsv",
             "lm.tsv", "0\t0\t-1.0\nx\t1\t-1.0\n", "line 2: bad id/rank: 'x', '1'"),
            ("tune --matrix matrix.tsv --nbest nbest.txt --refs ref.txt --out w.tsv",
             "matrix.tsv", "#features\ttotal\n0\t0\tx\n", "line 2: unparseable matrix row"),
            ("rerank --matrix matrix.tsv --nbest nbest.txt --weights weights.tsv --out sel.tsv",
             "weights.tsv", "#tuned\ntotal\tx\n", "line 2: unparseable weight: 'x'"),
            ("rerank --matrix matrix.tsv --nbest nbest.txt --weights weights.tsv --out sel.tsv",
             "weights.tsv", "#tuned\n", "no weights"),
            ("oracle --nbest nbest.txt --refs ref.txt",
             "nbest.txt", "0 ||| a |||  ||| 0.0\n0 ||| b |||  ||| x\n",
             "line 2: unparseable total: 'x'"),
            ("oracle --nbest nbest.txt --refs ref.txt",
             "nbest.txt", "0 ||| a ||| lm= 1 x ||| 0.0\n",
             "line 1: score field must be 'NAME= VALUE' pairs"),
            ("tune --matrix matrix.tsv --nbest nbest.txt --refs ref.txt --out w.tsv",
             "matrix.tsv", "", "empty matrix file"),
            ("distill --strategy kd --nbest nbest.txt --src src.txt --out labels",
             "src.txt", "a\n\nc\nd\n", "line 2: empty line in source stream"),
            ("distill --strategy rerank --matrix matrix.tsv --nbest nbest.txt "
             "--weights weights.tsv --src src.txt --out labels",
             "nbest.txt", "0 ||| a |||  ||| 0.0\n0 ||| b |||  ||| x\n",
             "line 2: unparseable total: 'x'"),
        ],
        ids=["assemble", "tune", "rerank", "no-weights", "oracle", "score-pairs", "empty-matrix",
             "distill-kd", "distill-rerank"],
    )
    def test_error_names_its_file(self, files, capsys, argv, bad_file, text, message):
        (files / bad_file).write_text(text, encoding="utf-8")
        code, _, err = run(capsys, *argv.split())
        assert (code, err) == (1, f"error: {bad_file}: {message}\n")


class TestInputsThatDoNotFit:
    """Files that each parse but do not belong together fail with exit 1
    and one error line, before any output is written."""

    @pytest.fixture
    def matrix(self, workspace, capsys):
        code, _, _ = run(capsys, "assemble", "--nbest", workspace / "nbest.txt",
                         "--passthrough", "total", "--out", workspace / "matrix.tsv")
        assert code == 0
        (workspace / "weights.tsv").write_text("total\t1.0\n")
        return workspace / "matrix.tsv"

    @pytest.mark.parametrize("command", ["tune", "rerank"])
    @pytest.mark.parametrize(
        "cut, message",
        [(lambda hyps: hyps[:9], "matrix has 10 sentences, corpus has 9"),
         (lambda hyps: hyps[:3] + [hyps[3][:3]] + hyps[4:],
          "sentence 3: matrix has 4 rows, corpus has 3 hypotheses")],
        ids=["fewer-sentences", "shorter-list"],
    )
    def test_matrix_of_another_nbest_file(self, workspace, matrix, capsys, command, cut,
                                          message):
        _, _, hyps = make_corpus(10, 4, seed=20, num_refs=2)
        write_lines(workspace / "other.txt", nbest_lines(cut(hyps)))
        argv = {"tune": ["--refs", workspace / "ref0.txt"],
                "rerank": ["--weights", workspace / "weights.tsv"]}[command]
        out = workspace / "out.tsv"
        code, stdout, err = run(capsys, command, "--matrix", matrix,
                                "--nbest", workspace / "other.txt", *argv, "--out", out)
        assert (code, stdout, err) == (1, "", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "sources, message",
        [(lambda lines: lines[:9], "label for unknown sentence 9"),
         (lambda lines: lines[:2] + ["a\tb"] + lines[3:],
          "source sentence 2 contains a tab (tsv format)")],
        ids=["short-src", "tab-in-src"],
    )
    def test_sources_that_do_not_fit_the_labels(self, workspace, capsys, sources, message):
        lines = (workspace / "src.txt").read_text().splitlines()
        write_lines(workspace / "bad.src", sources(lines))
        code, stdout, err = run(capsys, "distill", "--strategy", "kd",
                                "--nbest", workspace / "nbest.txt",
                                "--src", workspace / "bad.src", "--out", workspace / "labels")
        assert (code, stdout, err) == (1, "", f"error: {message}\n")
        assert not (workspace / "labels.tsv").exists()


def test_python_m_nbdistill_prints_the_usage(tmp_path):
    done = subprocess.run([sys.executable, "-m", "nbdistill", "--help"], cwd=tmp_path,
                          env=child_env(), capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("usage: nbdistill ")


class TestConfigSyntaxErrors:
    """A config file that does not parse is named with its bad line, in a
    fresh process, so an escaping exception would show as a traceback."""

    @pytest.mark.parametrize(
        "name, text, line, message",
        [
            ("bad.ini", "[pipeline]\nworkdir = w\njunk\n", 3, "expected 'key = value', got 'junk'"),
            ("bad.ini", "[pipeline]\nworkdir = w\nworkdir = v\n", 3,
             "repeated key 'pipeline.workdir'"),
            ("bad.ini", "[pipeline]\nworkdir = w\n[pipeline]\n", 3, "repeated section [pipeline]"),
            ("bad.ini", "workdir = w\n", 1, "expected a [section] header, got 'workdir = w'"),
            ("bad.ini", "[pipeline]\n# ':' is no delimiter\nworkdir: w\n", 3,
             "expected 'key = value', got 'workdir: w'"),
            ("bad.ini", "[pipeline]\n = w\n", 2, "expected 'key = value', got ' = w'"),
            ("bad.json", '{"pipeline": {"workdir": "w",}}', 1,
             "Expecting property name enclosed in double quotes at column 30"),
        ],
        ids=["not-key-value", "repeated-key", "repeated-section", "no-section", "colon",
             "no-key", "json"],
    )
    def test_error_names_the_file_and_the_line(self, tmp_path, name, text, line, message):
        (tmp_path / name).write_text(text, encoding="utf-8")
        with pytest.raises(FormatError) as err:
            PipelineConfig.from_file(tmp_path / name)
        assert err.value.line == line
        done = subprocess.run(
            [sys.executable, "-m", "nbdistill", "selftrain", "--config", name],
            cwd=tmp_path, env=child_env(), capture_output=True, text=True, timeout=60,
        )
        assert (done.returncode, done.stderr) == (1, f"error: {name}: line {line}: {message}\n")


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("iterations_max = 3", "iterations_max = 0", "iterations_max must be >= 1"),
        ("native = mbr_bleu,len_ratio", "native = mbr_bleu,bleu",
         "unknown native feature 'bleu': expected one of mbr_bleu, mbr_chrf, len, len_ratio"),
        ("tune_src = tune.src", "tune_src = missing.src",
         "tune_src file not found: {root}/missing.src"),
    ],
    ids=["iterations_max", "native", "missing-file"],
)
def test_selftrain_config_check_names_the_file(tmp_path, capsys, monkeypatch, old, new, message):
    """A config that parses but fails a check is named by its path, with no
    line, before any hook runs."""
    ini = build_pipeline_fixtures(tmp_path)
    ini.write_text(ini.read_text().replace(old, new))
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "selftrain", "--config", ini.name)
    assert (code, out, err) == (1, "", f"error: {ini.name}: {message.format(root=tmp_path)}\n")
    assert list((tmp_path / "work").iterdir()) == []


@pytest.mark.parametrize("signum, code", [(signal.SIGTERM, 143), (signal.SIGINT, -signal.SIGINT)],
                         ids=["SIGTERM", "SIGINT"])
def test_an_interrupted_selftrain_ends_its_hook_calls(tmp_path, signum, code):
    """The calls of the running hook stage end with the orchestrator, so
    none of them writes its output afterwards, and a resume re-runs the stage."""
    ini = build_pipeline_fixtures(tmp_path, iterations=1)
    ini.write_text(ini.read_text().replace(
        "generate_nbest = ", "generate_nbest = touch started.$(basename {OUT}) && sleep 3 && "))
    # a shell may start a background job with SIGINT ignored, and Python then
    # keeps ignoring it
    child = ("import signal, sys\n"
             "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
             "from nbdistill.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")
    argv = ["selftrain", "--config", ini.name]
    env = child_env()
    proc = subprocess.Popen([sys.executable, "-c", child, *argv], cwd=tmp_path, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    itdir = tmp_path / "work" / "iter1"
    try:
        deadline = time.monotonic() + 60
        while len(list(itdir.glob("started.*"))) < 3:
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        proc.send_signal(signum)
        assert proc.wait(timeout=5) == code
    finally:
        proc.kill()
        proc.wait()
    time.sleep(4)
    assert list(itdir.glob("nbest.*")) == []
    assert not (itdir / ".generate_nbest.done").exists()
    done = subprocess.run([sys.executable, "-m", "nbdistill", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "work" / "final.json").is_file()


def test_selftrain_holds_its_sigterm_handler_only_while_it_runs(tmp_path, capsys, monkeypatch):
    import nbdistill.cli as cli

    ini = build_pipeline_fixtures(tmp_path, iterations=1)
    monkeypatch.chdir(tmp_path)
    before, during = signal.getsignal(signal.SIGTERM), []

    def run_selftrain(config):
        during.append(signal.getsignal(signal.SIGTERM))
        raise HookError("stage generate_nbest[tune]: hook exited 1: false")

    monkeypatch.setattr(cli, "run_selftrain", run_selftrain)
    code, _, err = run(capsys, "selftrain", "--config", ini.name)
    assert (code, err) == (1, "error: stage generate_nbest[tune]: hook exited 1: false\n")
    assert during[0] not in (before, signal.SIG_DFL)
    assert signal.getsignal(signal.SIGTERM) == before


def test_cli_reads_scores_and_writes_only_through_pipeline_steps():
    """Each command makes one ``pipeline`` call, so the CLI binds no loader,
    scorer, selector or writer of its own."""
    import nbdistill.cli as cli

    forbidden = {"corpus_stats", "corpus_bleu", "corpus_chrf", "oracle_select", "beam_sweep",
                 "write_text"}
    names = {getattr(value, "__name__", name) for name, value in vars(cli).items()}
    assert {n for n in names if n.startswith(("load_", "nbdistill.")) or n in forbidden} == set()


README = (SRC.parent / "README.md").read_text(encoding="utf-8")


def test_readme_commands_parse(tmp_path, monkeypatch, capsys):
    """Every ``nbdistill`` command in the README's fenced blocks, with its
    continuation lines joined, passes the parser and the argument rules: run
    in an empty directory, it succeeds or fails only for a missing file."""
    blocks = README.split("```")[1::2]
    commands = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("nbdistill ")]
    assert {command.split()[1] for command in commands} == {
        "evaluate", "assemble", "tune", "rerank", "oracle", "distill", "selftrain", "status"}
    monkeypatch.chdir(tmp_path)
    for command in commands:
        code, _, err = run(capsys, *shlex.split(command)[1:])
        assert code == 0 or err.startswith("error: [Errno 2] No such file or directory: "), (
            command, err)


def test_readme_flag_table_states_what_each_strategy_reads_and_needs():
    rows = re.findall(r"^\| `distill --strategy (\S+)` \|([^|]*)\|([^|]*)\|$", README,
                      flags=re.MULTILINE)
    flags = {strategy: (re.findall(r"`(--[a-z-]+)`", reads), re.findall(r"`(--[a-z-]+)`", needs))
             for strategy, reads, needs in rows}
    assert len(rows) == len(flags)
    assert flags == {
        strategy: ([_flag(name) for name in reads],
                   [_flag(name) for name, needed in reads.items() if needed])
        for strategy, (reads, _) in STRATEGIES.items()}


class TestDeterminism:
    def test_cli_outputs_byte_identical_across_runs(self, workspace, capsys):
        suite = TestAssembleTuneRerank()
        suite.assemble(workspace, capsys, out="m1.tsv")
        suite.assemble(workspace, capsys, out="m2.tsv")
        assert (workspace / "m1.tsv").read_bytes() == (workspace / "m2.tsv").read_bytes()

        for out in ("w1.tsv", "w2.tsv"):
            run(
                capsys, "tune", "--matrix", workspace / "m1.tsv",
                "--nbest", workspace / "nbest.txt", "--refs", workspace / "ref0.txt",
                "--epochs", "3", "--seed", "7", "--out", workspace / out,
            )
        assert (workspace / "w1.tsv").read_bytes() == (workspace / "w2.tsv").read_bytes()

        outs = []
        for _ in range(2):
            _, out, _ = run(
                capsys, "evaluate", "--hyp", workspace / "hyp.txt",
                "--refs", workspace / "ref0.txt",
            )
            outs.append(out)
        assert outs[0] == outs[1]
