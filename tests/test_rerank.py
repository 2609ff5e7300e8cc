import random

import numpy as np
import pytest

from nbdistill.corpus import load_nbest
from nbdistill.features import assemble_matrix
from nbdistill.metrics import corpus_bleu, sentence_bleu
from nbdistill.mira import WeightVector
from nbdistill.rerank import (
    beam_sweep,
    format_sweep,
    oracle_select,
    rerank,
    select_models,
)
from oracles import bf_argmax_dot, bf_topk_by_magnitude
from reference_stats import reference_hyp_stats, reference_total
from synth import make_corpus, nbest_lines


def build(num_sentences, n, seed=0, num_refs=1):
    _, refs, hyps = make_corpus(num_sentences, n, seed=seed, num_refs=num_refs)
    corpus = load_nbest(nbest_lines(hyps))
    refset = tuple(tuple(r) for r in refs)
    matrix = assemble_matrix(corpus, passthrough=["total", "lm", "tm"], native=["len"])
    return corpus, refset, matrix


class TestRerank:
    def test_single_feature_selects_column_max(self):
        corpus, _, matrix = build(5, 4)
        sub = assemble_matrix(corpus, passthrough=["lm"])
        weights = WeightVector(("lm",), (1.0,))
        result = rerank(sub, corpus, weights)
        for sid, arr in enumerate(sub.values):
            assert result.selections[sid] == int(np.argmax(arr[:, 0]))

    def test_positive_scaling_invariance(self):
        corpus, _, matrix = build(6, 4, seed=1)
        weights = WeightVector(matrix.feature_names, (0.5, -1.5, 2.0, 0.25))
        scaled = WeightVector(matrix.feature_names, tuple(w * 3.75 for w in weights.weights))
        assert rerank(matrix, corpus, weights).selections == rerank(
            matrix, corpus, scaled
        ).selections

    def test_hand_weights_match_enumeration(self):
        corpus = load_nbest(
            [
                "0 ||| one ||| a= 1.0 b= 0.0 ||| 0.0",
                "0 ||| two ||| a= 0.0 b= 2.0 ||| 0.0",
                "0 ||| three ||| a= 0.6 b= 0.9 ||| 0.0",
            ]
        )
        matrix = assemble_matrix(corpus, passthrough=["a", "b"])
        weights = WeightVector(("a", "b"), (2.0, 1.0))
        # dot products: 2.0, 2.0, 2.1 -> rank 2 wins
        assert rerank(matrix, corpus, weights).selections == (2,)
        # exact ties fall back to the lowest rank
        only_ties = WeightVector(("a", "b"), (0.0, 0.0))
        assert rerank(matrix, corpus, only_ties).selections == (0,)

    def test_selected_texts_match_corpus(self):
        corpus, refset, matrix = build(4, 3, seed=2)
        weights = WeightVector(matrix.feature_names, (1.0, 0.5, -0.5, 0.1))
        result = rerank(matrix, corpus, weights, refs=refset)
        for sid, pick in enumerate(result.selections):
            assert result.selected_texts[sid] == corpus.texts[sid][pick]
        assert result.corpus_score is not None

    def test_random_weights_match_bruteforce(self):
        corpus, _, matrix = build(20, 5, seed=3)
        rng = random.Random(0)
        for _ in range(50):
            ws = tuple(rng.uniform(-2, 2) for _ in matrix.feature_names)
            weights = WeightVector(matrix.feature_names, ws)
            result = rerank(matrix, corpus, weights)
            for sid, arr in enumerate(matrix.values):
                assert result.selections[sid] == bf_argmax_dot(arr.tolist(), ws)

    def test_rerank_score_agrees_with_reference_stats(self):
        corpus, refset, matrix = build(8, 4, seed=4)
        weights = WeightVector(matrix.feature_names, (0.3, 1.0, -0.2, 0.05))
        result = rerank(matrix, corpus, weights, refs=refset)
        stats, _ = reference_hyp_stats(corpus.texts, refset)
        total = reference_total(stats[sid][pick] for sid, pick in enumerate(result.selections))
        assert result.corpus_score == corpus_bleu(total)


def test_scores_are_plain_floats_and_a_mask_is_a_frozenset():
    corpus, refset, matrix = build(4, 3, seed=2)
    weights = WeightVector(matrix.feature_names, (1.0, 0.5, -0.5, 0.1))
    scores = [
        rerank(matrix, corpus, weights, refs=refset).corpus_score,
        oracle_select(corpus, refset).corpus_score,
        oracle_select(corpus, refset, "anti_oracle").corpus_score,
    ]
    rows, _ = beam_sweep(corpus, refset, [1, 3])
    scores += [score for row in rows for score in (row.anti_oracle, row.top1, row.oracle)]
    assert [type(score) for score in scores] == [float] * len(scores)
    assert type(select_models(weights, 2)) is frozenset


class TestSelectModels:
    def test_k_equals_m_keeps_all(self):
        weights = WeightVector(("a", "b", "c"), (0.1, -0.2, 0.3))
        mask = select_models(weights, 3)
        assert mask == frozenset(("a", "b", "c"))

    def test_k_larger_than_m_keeps_all(self):
        weights = WeightVector(("a", "b"), (0.1, -0.2))
        assert select_models(weights, 10) == frozenset(("a", "b"))

    def test_magnitude_selection(self):
        weights = WeightVector(("p", "q", "r"), (0.5, -0.9, 0.1))
        assert select_models(weights, 1) == frozenset(("q",))

    def test_lexicographic_tie_break(self):
        weights = WeightVector(("b", "a", "c"), (0.3, -0.3, 0.2))
        assert select_models(weights, 2) == frozenset(("a", "b"))

    def test_matches_bruteforce(self):
        rng = random.Random(5)
        names = tuple("fghijk")
        for _ in range(30):
            ws = tuple(rng.choice([-0.5, -0.25, 0.25, 0.5, rng.uniform(-1, 1)]) for _ in names)
            k = rng.randint(1, len(names))
            weights = WeightVector(names, ws)
            assert select_models(weights, k) == bf_topk_by_magnitude(names, ws, k)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            select_models(WeightVector(("a",), (1.0,)), 0)

    def test_mask_full_equals_no_mask(self):
        corpus, _, matrix = build(6, 4, seed=6)
        weights = WeightVector(matrix.feature_names, (0.4, -0.3, 0.2, 0.9))
        full = select_models(weights, len(matrix.feature_names))
        assert (
            rerank(matrix, corpus, weights, mask=full).selections
            == rerank(matrix, corpus, weights).selections
        )

    def test_mask_zeroes_inactive_columns(self):
        corpus, _, matrix = build(6, 4, seed=7)
        weights = WeightVector(matrix.feature_names, (0.4, -0.3, 0.2, 0.9))
        mask = select_models(weights, 2)
        masked_weights = WeightVector(
            matrix.feature_names,
            tuple(w if n in mask else 0.0 for n, w in zip(matrix.feature_names, weights.weights)),
        )
        assert (
            rerank(matrix, corpus, weights, mask=mask).selections
            == rerank(matrix, corpus, masked_weights).selections
        )


    def test_mask_of_unknown_features_is_an_error(self):
        corpus, _, matrix = build(3, 2, seed=8)
        weights = WeightVector(matrix.feature_names, (0.4, -0.3, 0.2, 0.9))
        with pytest.raises(ValueError) as err:
            rerank(matrix, corpus, weights, mask=frozenset({"total", "tm2", "bleu"}))
        assert str(err.value) == "mask names unknown features: ['bleu', 'tm2']"


class TestOracle:
    def test_single_hypothesis_lists(self):
        corpus, refset, _ = build(5, 1, seed=8)
        oracle = oracle_select(corpus, refset, "oracle")
        anti = oracle_select(corpus, refset, "anti_oracle")
        assert oracle.selections == anti.selections == (0,) * 5
        assert oracle.corpus_score == anti.corpus_score

    def test_reference_in_list_is_chosen(self):
        corpus = load_nbest(
            [
                "0 ||| wrong guess here |||  ||| 2.0",
                "0 ||| the exact reference |||  ||| 1.0",
            ]
        )
        refset = (("the exact reference",),)
        result = oracle_select(corpus, refset, "oracle")
        assert result.selections == (1,)
        assert result.corpus_score == 100.0

    def test_exhaustive_agreement(self):
        corpus, refset, _ = build(10, 4, seed=9)
        oracle = oracle_select(corpus, refset, "oracle")
        anti = oracle_select(corpus, refset, "anti_oracle")
        for sid, texts in enumerate(corpus.texts):
            scores = [sentence_bleu(text, list(refset[sid])) for text in texts]
            assert scores[oracle.selections[sid]] == max(scores)
            assert scores[anti.selections[sid]] == min(scores)

    def test_bad_mode(self):
        corpus, refset, _ = build(2, 2)
        with pytest.raises(ValueError):
            oracle_select(corpus, refset, "best")


class TestBeamSweep:
    def test_size_one_collapses(self):
        corpus, refset, _ = build(6, 4, seed=10)
        rows, short_lists = beam_sweep(corpus, refset, [1])
        assert short_lists == 0
        row = rows[0]
        assert row.anti_oracle == row.top1 == row.oracle

    def test_nested_prefix_monotonicity(self):
        corpus, refset, _ = build(15, 8, seed=11)
        rows, _ = beam_sweep(corpus, refset, [1, 2, 4, 8])
        oracles = [r.oracle for r in rows]
        antis = [r.anti_oracle for r in rows]
        tops = [r.top1 for r in rows]
        assert tops == [tops[0]] * len(tops)
        for a, b in zip(oracles, oracles[1:]):
            assert b >= a - 1e-9
        for a, b in zip(antis, antis[1:]):
            assert b <= a + 1e-9

    def test_oracle_bounds_any_reranker(self):
        corpus, refset, matrix = build(10, 4, seed=12)
        rows, _ = beam_sweep(corpus, refset, [4])
        rng = random.Random(1)
        for _ in range(20):
            ws = tuple(rng.uniform(-1, 1) for _ in matrix.feature_names)
            weights = WeightVector(matrix.feature_names, ws)
            score = rerank(matrix, corpus, weights, refs=refset).corpus_score
            assert rows[0].oracle >= score - 1e-9
            assert rows[0].anti_oracle <= score + 1e-9

    def test_short_lists_counted(self):
        lines = [
            "0 ||| a b |||  ||| 2.0",
            "0 ||| a c |||  ||| 1.0",
            "1 ||| d e |||  ||| 2.0",
        ]
        corpus = load_nbest(lines)
        refset = (("a b",), ("d e",))
        rows, short_lists = beam_sweep(corpus, refset, [2])
        assert short_lists == 1

    def test_ragged_lists_match_reference_loop(self):
        _, refs, hyps = make_corpus(12, 8, seed=16, num_refs=2, max_edits=1)
        hyps = [h[: 1 + sid % 8] for sid, h in enumerate(hyps)]  # lengths 1..8
        corpus = load_nbest(nbest_lines(hyps))
        refset = tuple(tuple(r) for r in refs)
        stats, gains = reference_hyp_stats(hyps, refs)

        def corpus_score(picks):
            return corpus_bleu(reference_total(stats[sid][pick] for sid, pick in enumerate(picks)))

        def first(values, pick):
            return values.index(pick(values))

        sizes = [1, 2, 3, 5, 8]
        want = []
        for n in sizes:
            best = [first(g[:n], max) for g in gains]
            worst = [first(g[:n], min) for g in gains]
            want.append((corpus_score(worst), corpus_score([0] * 12),
                         corpus_score(best)))
        rows, short_lists = beam_sweep(corpus, refset, sizes)
        assert repr([(r.anti_oracle, r.top1, r.oracle) for r in rows]) == repr(want)
        assert short_lists == sum(len(h) < n for n in sizes for h in hyps)
        for mode, pick in (("oracle", max), ("anti_oracle", min)):
            result = oracle_select(corpus, refset, mode)
            picks = [first(g, pick) for g in gains]
            assert list(result.selections) == picks
            assert result.corpus_score == corpus_score(picks)

    def test_size_validation(self):
        corpus, refset, _ = build(3, 4, seed=13)
        with pytest.raises(ValueError, match="non-decreasing"):
            beam_sweep(corpus, refset, [4, 2])
        with pytest.raises(ValueError, match="exceeds"):
            beam_sweep(corpus, refset, [16])
        with pytest.raises(ValueError, match="positive"):
            beam_sweep(corpus, refset, [0, 2])

    def test_row_format_bytes(self):
        corpus, refset, _ = build(6, 4, seed=14)
        rows, _ = beam_sweep(corpus, refset, [1])
        value = rows[0].top1
        rendered = format_sweep(rows)
        assert rendered == f"1\t{value:.2f}\t{value:.2f}\t{value:.2f}\n"

    def test_multi_row_format(self):
        rows, _ = beam_sweep(*build(6, 4, seed=15)[:2], [1, 2, 4])
        rendered = format_sweep(rows)
        lines = rendered.splitlines()
        assert len(lines) == 3
        assert [line.split("\t")[0] for line in lines] == ["1", "2", "4"]
        for line in lines:
            assert len(line.split("\t")) == 4
