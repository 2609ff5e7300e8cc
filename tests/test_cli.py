from pathlib import Path

import pytest

from nbdistill.cli import build_parser, main
from nbdistill.mira import MiraConfig
from synth import make_corpus, nbest_lines, write_lines


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
        assert (code, out) == (1, "")
        assert f"line 3: empty line in reference {str(blank)!r} stream" in err

    def test_invalid_utf8_hypothesis_names_its_file_and_line(self, workspace, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"one\ntwo\xff\n")
        code, out, err = run(capsys, "evaluate", "--hyp", bad, "--refs", workspace / "ref0.txt")
        assert (code, out) == (1, "")
        assert err == f"error: line 2: invalid UTF-8 in {str(bad)!r}: invalid start byte\n"

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

    def test_assemble_bad_scores_spec(self, workspace, capsys):
        code, _, err = run(
            capsys, "assemble", "--nbest", workspace / "nbest.txt",
            "--scores", "justafile.tsv", "--out", workspace / "m.tsv",
        )
        assert code == 1
        assert "NAME=FILE" in err

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


class TestTuneDefaults:
    def test_parsed_defaults_build_the_default_config(self):
        args = build_parser().parse_args(
            ["tune", "--matrix", "m", "--nbest", "n", "--refs", "r", "--out", "w"]
        )
        config = MiraConfig(c=args.c, epochs=args.epochs, seed=args.seed, init=args.init)
        assert config == MiraConfig()


class TestOracleCli:
    def test_selection_output(self, workspace, capsys):
        code, out, err = run(
            capsys, "oracle", "--nbest", workspace / "nbest.txt",
            "--refs", workspace / "ref0.txt", "--out", workspace / "oracle.tsv",
        )
        assert code == 0
        assert out.startswith("BLEU\t")
        assert "greedy" in err
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
            "--refs ref.txt --out sel.tsv",
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
