"""Acceptance suite: one test per criterion, each printing one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v`; the per-criterion lines go to
the real stdout so they are visible with or without pytest capture.
"""

import io
import json
import random
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from nbdistill.cli import main as cli_main
from nbdistill.corpus import load_nbest
from nbdistill.features import assemble_matrix
from nbdistill.metrics import (
    corpus_bleu,
    corpus_stats,
    sentence_bleu,
    sentence_chrf,
    tokenize_13a,
)
from nbdistill.mira import MiraConfig, WeightVector, tune_mira
from nbdistill.distill import kd_top1, ki_select, rerank_labels
from nbdistill.pipeline import (
    HookError,
    PipelineConfig,
    read_ledger,
    run_selftrain,
)
from nbdistill.rerank import beam_sweep, oracle_select, rerank, select_models
from oracles import (
    bf_argmax_dot,
    bf_corpus_bleu,
    bf_sentence_chrf,
)
from synth import build_pipeline_fixtures, make_corpus, make_planted_instance, nbest_lines, write_lines

DATA = Path(__file__).parent / "data"

# one line per criterion; echoed by conftest in the terminal summary
RESULTS: list = []


def _report(num: int, description: str, ok: bool) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"{status} criterion {num}: {description}"
    RESULTS.append(line)
    print(line, file=sys.__stdout__, flush=True)


def test_criterion_1_metric_oracle_agreement():
    ok = False
    try:
        _, refs, hyps = make_corpus(50, 1, seed=101, num_refs=2)
        flat = [h[0] for h in hyps]
        start = time.perf_counter()
        ours = corpus_bleu(corpus_stats(flat, refs))
        oracle = bf_corpus_bleu(flat, refs)
        assert abs(ours - oracle) <= 1e-9
        for hyp, sentence_refs in zip(flat, refs):
            got = sentence_chrf(hyp, sentence_refs)
            want = bf_sentence_chrf(hyp, sentence_refs)
            assert abs(got - want) <= 1e-9
        elapsed = time.perf_counter() - start
        # identity scores exactly 100, empty hypotheses exactly 0
        identity = [r[0] for r in refs]
        assert corpus_bleu(corpus_stats(identity, refs)) == 100.0
        assert sentence_bleu(identity[0], [identity[0]]) == 100.0
        assert sentence_chrf(identity[0], [identity[0]]) == 100.0
        assert sentence_bleu("", refs[0]) == 0.0
        assert sentence_chrf("", refs[0]) == 0.0
        assert corpus_bleu(corpus_stats([""] * 50, refs)) == 0.0
        assert elapsed < 1.0, f"took {elapsed:.3f}s"
        ok = True
    finally:
        _report(1, "corpus BLEU and sentence chrF match the brute-force oracle to 1e-9", ok)


def test_criterion_2_tokenizer_conformance():
    ok = False
    try:
        inputs = (DATA / "tok13a_input.txt").read_text(encoding="utf-8").split("\n")[:-1]
        expected = (DATA / "tok13a_expected.txt").read_text(encoding="utf-8").split("\n")[:-1]
        assert len(inputs) == len(expected) == 200
        for line, want in zip(inputs, expected):
            got = " ".join(tokenize_13a(line))
            assert got == want, f"tokenizer diverges on {line!r}: {got!r} != {want!r}"
        ok = True
    finally:
        _report(2, "tokenize_13a matches the captured reference output on 200 stress lines", ok)


def test_criterion_3_rerank_matches_exhaustive_argmax():
    ok = False
    try:
        rng = random.Random(103)
        _, _, hyps = make_corpus(100, 8, seed=103)
        ragged = [h[: rng.randint(1, 8)] for h in hyps]
        corpus = load_nbest(nbest_lines(ragged))
        noise = []
        from nbdistill.corpus import load_scores

        for name in ("e1", "e2", "e3"):
            lines = [
                f"{sid}\t{rank}\t{rng.uniform(-5, 5)}"
                for sid, sentence_hyps in enumerate(ragged)
                for rank in range(len(sentence_hyps))
            ]
            noise.append((name, load_scores(lines)))
        matrix = assemble_matrix(
            corpus, passthrough=["total", "lm"], native=["len"], external=noise
        )
        assert len(matrix.feature_names) == 6
        rows = [arr.tolist() for arr in matrix.values]
        start = time.perf_counter()
        for _ in range(1000):
            ws = tuple(rng.uniform(-2.0, 2.0) for _ in range(6))
            weights = WeightVector(matrix.feature_names, ws)
            got = rerank(matrix, corpus, weights).selections
            for sid, sentence_rows in enumerate(rows):
                assert got[sid] == bf_argmax_dot(sentence_rows, ws)
            scale = rng.uniform(0.01, 100.0)
            scaled = WeightVector(matrix.feature_names, tuple(w * scale for w in ws))
            assert rerank(matrix, corpus, scaled).selections == got
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.3f}s"
        ok = True
    finally:
        _report(3, "rerank equals exhaustive argmax for 1000 weight vectors, scale-invariant", ok)


def test_criterion_4_kd_ki_rerank_consistency():
    ok = False
    try:
        # one-hot 'total' rerank equals KD top-1 on a total-sorted fixture
        _, refs, hyps = make_corpus(12, 5, seed=104)
        corpus = load_nbest(nbest_lines(hyps))
        for totals in corpus.totals:
            assert list(totals) == sorted(totals, reverse=True)
        matrix = assemble_matrix(corpus, passthrough=["total"], native=["len"])
        one_hot = WeightVector(matrix.feature_names, (1.0, 0.0))
        assert rerank_labels(matrix, corpus, one_hot) == kd_top1(corpus)

        # KI selections are exhaustively optimal per sentence
        refset = tuple(tuple(r) for r in refs)
        ki = ki_select(corpus, refset)
        for sid, texts in enumerate(corpus.texts):
            scores = [sentence_bleu(text, list(refset[sid])) for text in texts]
            assert sentence_bleu(ki[sid], list(refset[sid])) == max(scores)

        # n=1 collapses all three strategies
        _, refs1, hyps1 = make_corpus(8, 1, seed=105)
        corpus1 = load_nbest(nbest_lines(hyps1))
        refset1 = tuple(tuple(r) for r in refs1)
        matrix1 = assemble_matrix(corpus1, passthrough=["total"], native=["len"])
        weights1 = WeightVector(matrix1.feature_names, (0.3, -0.7))
        kd = kd_top1(corpus1)
        assert ki_select(corpus1, refset1) == kd
        assert rerank_labels(matrix1, corpus1, weights1) == kd
        ok = True
    finally:
        _report(4, "KD/KI/rerank agree on one-hot, exhaustive and n=1 cases", ok)


def test_criterion_5_mira_planted_recovery():
    ok = False
    try:
        corpus, refset, matrix, refs, hyps = make_planted_instance(200, 8, seed=42)
        num_sentences = corpus.num_sentences
        singles = []
        for j in range(len(matrix.feature_names)):
            sel = [int(np.argmax(matrix.values[s][:, j])) for s in range(num_sentences)]
            hyp = [hyps[s][sel[s]] for s in range(num_sentences)]
            singles.append(corpus_bleu(corpus_stats(hyp, refs)))
        best_single = max(singles)

        start = time.perf_counter()
        positive_signs = 0
        for seed in range(20):
            run = tune_mira(
                matrix, corpus, refset, MiraConfig(c=0.01, epochs=10, seed=seed)
            )
            tuned = run.history[run.best_epoch][1]
            assert tuned >= best_single - 1e-9, f"seed {seed}: {tuned} < {best_single}"
            assert tuned >= run.history[0][1] - 1e-12
            if run.history[run.best_epoch][0].weights[0] > 0:
                positive_signs += 1
        elapsed = time.perf_counter() - start
        assert positive_signs >= 19, f"sign recovered in only {positive_signs}/20 seeds"
        assert elapsed < 60.0, f"took {elapsed:.3f}s"
        ok = True
    finally:
        _report(5, "MIRA recovers the planted signal feature across 20 seeds", ok)


def test_criterion_6_oracle_sweep_properties():
    ok = False
    try:
        _, refs, hyps = make_corpus(25, 8, seed=106)
        corpus = load_nbest(nbest_lines(hyps))
        refset = tuple(tuple(r) for r in refs)
        sizes = [1, 2, 4, 8]
        rows, short_lists = beam_sweep(corpus, refset, sizes)
        assert short_lists == 0
        # per-sentence oracle max non-decreasing, anti-oracle min non-increasing
        for sid in range(corpus.num_sentences):
            scores = [sentence_bleu(t, refs[sid]) for t in hyps[sid]]
            best = [max(scores[:n]) for n in sizes]
            worst = [min(scores[:n]) for n in sizes]
            assert all(b >= a for a, b in zip(best, best[1:]))
            assert all(b <= a for a, b in zip(worst, worst[1:]))
        # corpus-level ordering at every truncation size
        for row in rows:
            assert row.oracle >= row.top1 - 1e-9
            assert row.top1 >= row.anti_oracle - 1e-9
        ok = True
    finally:
        _report(6, "oracle/anti-oracle sweeps are monotone and bracket top-1", ok)


def test_criterion_7_model_selection_consistency():
    ok = False
    try:
        _, _, hyps = make_corpus(15, 4, seed=107)
        corpus = load_nbest(nbest_lines(hyps))
        matrix = assemble_matrix(
            corpus, passthrough=["total", "lm", "tm"], native=["len", "len_ratio"]
        )
        weights = WeightVector(matrix.feature_names, (0.4, -1.3, 0.9, 0.05, -0.2))
        full_mask = select_models(weights, len(matrix.feature_names))
        assert (
            rerank(matrix, corpus, weights, mask=full_mask).selections
            == rerank(matrix, corpus, weights).selections
        )
        assert select_models(weights, 1) == frozenset(("lm",))
        ok = True
    finally:
        _report(7, "top-k model selection is consistent with full reranking", ok)


def test_criterion_8_pipeline_dry_run(tmp_path):
    ok = False
    try:
        # (a) three stub-hook iterations complete quickly with a valid ledger
        start = time.perf_counter()
        config = PipelineConfig.from_file(build_pipeline_fixtures(tmp_path / "full"))
        best, reason = run_selftrain(config)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.3f}s"
        states = read_ledger(Path(config.workdir) / "ledger.jsonl")
        assert [s.iter for s in states] == [1, 2, 3]
        assert reason == "max_iterations"
        for state in states:
            assert Path(state.weights_path).is_file()
            assert Path(state.labels_path).is_file()

        # (b) dev BLEUs (50.0, 50.05) with min_delta=0.1 stop as "converged";
        #     final labels come from the argmax-dev iteration (iteration 2)
        config2 = PipelineConfig.from_file(build_pipeline_fixtures(tmp_path / "conv"))
        workdir2 = Path(config2.workdir)
        for it, bleu in ((1, 50.0), (2, 50.05), (3, 99.0)):
            itdir = workdir2 / f"iter{it}"
            itdir.mkdir(parents=True, exist_ok=True)
            (itdir / "dev_bleu.txt").write_text(repr(bleu) + "\n")
            (itdir / ".evaluate.done").touch()
        best2, reason2 = run_selftrain(config2)
        assert reason2 == "converged"
        assert best2.iter == 2
        states2 = read_ledger(workdir2 / "ledger.jsonl")
        assert [s.dev_bleu for s in states2] == [50.0, 50.05]
        assert (workdir2 / "final.labels.tsv").read_bytes() == Path(
            states2[1].labels_path
        ).read_bytes()

        # (c) a mid-iteration kill resumes to byte-identical final labels
        marker = tmp_path / "crash"
        crash_config = PipelineConfig.from_file(
            build_pipeline_fixtures(tmp_path / "crashed", fail_marker=marker)
        )
        marker.touch()
        with pytest.raises(HookError):
            run_selftrain(crash_config)
        marker.unlink()
        run_selftrain(crash_config)
        assert (
            (Path(crash_config.workdir) / "final.labels.tsv").read_bytes()
            == (Path(config.workdir) / "final.labels.tsv").read_bytes()
        )
        ok = True
    finally:
        _report(8, "self-training dry run completes, converges and resumes correctly", ok)


def _cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main([str(a) for a in argv])
    assert code == 0, f"command failed: {argv}"
    return buf.getvalue()


def test_criterion_9_cli_determinism(tmp_path):
    ok = False
    try:
        sources, refs, hyps = make_corpus(10, 4, seed=109, num_refs=2)
        write_lines(tmp_path / "nbest.txt", nbest_lines(hyps))
        write_lines(tmp_path / "src.txt", sources)
        write_lines(tmp_path / "ref0.txt", [r[0] for r in refs])
        write_lines(tmp_path / "ref1.txt", [r[1] for r in refs])
        write_lines(tmp_path / "hyp.txt", [h[0] for h in hyps])
        refs_arg = f"{tmp_path}/ref0.txt,{tmp_path}/ref1.txt"

        outputs = {}
        for tag in ("a", "b"):
            d = tmp_path / tag
            d.mkdir()
            stdout = []
            stdout.append(_cli(["evaluate", "--hyp", tmp_path / "hyp.txt", "--refs", refs_arg]))
            stdout.append(
                _cli(
                    ["evaluate", "--hyp", tmp_path / "hyp.txt", "--refs", refs_arg,
                     "--metric", "chrf"]
                )
            )
            _cli(
                ["assemble", "--nbest", tmp_path / "nbest.txt",
                 "--native", "mbr_bleu,mbr_chrf,len,len_ratio",
                 "--passthrough", "total,lm,tm", "--out", d / "matrix.tsv"]
            )
            _cli(
                ["tune", "--matrix", d / "matrix.tsv", "--nbest", tmp_path / "nbest.txt",
                 "--refs", refs_arg, "--epochs", "4", "--seed", "11",
                 "--out", d / "weights.tsv"]
            )
            stdout.append(
                _cli(
                    ["rerank", "--matrix", d / "matrix.tsv", "--nbest", tmp_path / "nbest.txt",
                     "--weights", d / "weights.tsv", "--top-k-models", "3",
                     "--out", d / "selections.tsv", "--refs", refs_arg, "--report"]
                )
            )
            stdout.append(
                _cli(
                    ["oracle", "--nbest", tmp_path / "nbest.txt", "--refs", refs_arg,
                     "--sweep", "1,2,4", "--out", d / "sweep.tsv"]
                )
            )
            _cli(
                ["distill", "--strategy", "rerank", "--nbest", tmp_path / "nbest.txt",
                 "--src", tmp_path / "src.txt", "--matrix", d / "matrix.tsv",
                 "--weights", d / "weights.tsv", "--top-k-models", "3",
                 "--out", d / "labels", "--format", "tsv"]
            )
            files = {
                name: (d / name).read_bytes()
                for name in ("matrix.tsv", "weights.tsv", "selections.tsv",
                             "sweep.tsv", "labels.tsv")
            }
            outputs[tag] = (stdout, files)
        assert outputs["a"][0] == outputs["b"][0]
        for name in outputs["a"][1]:
            assert outputs["a"][1][name] == outputs["b"][1][name], f"{name} differs"
        ok = True
    finally:
        _report(9, "every CLI command is byte-identical across re-runs", ok)
