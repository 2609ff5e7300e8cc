import pytest

from nbdistill.corpus import load_nbest
from nbdistill.features import assemble_matrix
from nbdistill.metrics import corpus_bleu, corpus_stats, sentence_bleu
from nbdistill.mira import MiraConfig, WeightVector, tune_mira
from nbdistill.distill import kd_top1, ki_select, rerank_labels
from nbdistill.rerank import select_models
from synth import make_corpus, nbest_lines


def build(num_sentences, n, seed=0):
    sources, refs, hyps = make_corpus(num_sentences, n, seed=seed)
    corpus = load_nbest(nbest_lines(hyps))
    refset = tuple(tuple(r) for r in refs)
    return tuple(sources), corpus, refset, refs, hyps


class TestKdTop1:
    def test_single_sentence(self):
        corpus = load_nbest(["0 ||| the best |||  ||| 1.0", "0 ||| worse |||  ||| 0.5"])
        assert kd_top1(corpus) == ("the best",)

    def test_matches_first_line_per_sid_block(self):
        _, corpus, _, _, hyps = build(5, 4, seed=1)
        assert kd_top1(corpus) == tuple(h[0] for h in hyps)

    def test_equals_one_hot_total_rerank_on_sorted_fixture(self):
        _, corpus, _, _, _ = build(6, 4, seed=2)
        for totals in corpus.totals:  # fixture precondition: rank order = total order
            assert list(totals) == sorted(totals, reverse=True)
        matrix = assemble_matrix(corpus, passthrough=["total"], native=["len"])
        one_hot = WeightVector(matrix.feature_names, (1.0, 0.0))
        assert rerank_labels(matrix, corpus, one_hot) == kd_top1(corpus)

    def test_invariant_under_appending_lower_ranks(self):
        lines = ["0 ||| keep |||  ||| 3.0"]
        extended = lines + ["0 ||| extra one |||  ||| 2.0", "0 ||| extra two |||  ||| 1.0"]
        assert kd_top1(load_nbest(lines)) == kd_top1(load_nbest(extended))


class TestKiSelect:
    def test_hypothesis_equal_to_label_is_chosen(self):
        corpus = load_nbest(
            ["0 ||| close guess |||  ||| 2.0", "0 ||| original label |||  ||| 1.0"]
        )
        refs = (("original label",),)
        assert ki_select(corpus, refs) == ("original label",)

    def test_n1_equals_kd(self):
        _, corpus, refset, _, _ = build(5, 1, seed=3)
        assert ki_select(corpus, refset) == kd_top1(corpus)

    def test_exhaustive_optimality(self):
        _, corpus, refset, _, _ = build(8, 4, seed=4)
        chosen = ki_select(corpus, refset)
        for sid, texts in enumerate(corpus.texts):
            refs = list(refset[sid])
            best = max(sentence_bleu(text, refs) for text in texts)
            assert sentence_bleu(chosen[sid], refs) == best

    def test_misaligned(self):
        _, corpus, refset, _, _ = build(3, 2, seed=5)
        with pytest.raises(ValueError):
            ki_select(corpus, refset[:-1])


class TestRerankLabels:
    def test_full_mask_equals_no_mask(self):
        _, corpus, _, _, _ = build(5, 4, seed=6)
        matrix = assemble_matrix(corpus, passthrough=["total", "lm"], native=["len"])
        weights = WeightVector(matrix.feature_names, (0.2, -0.4, 0.6))
        mask = select_models(weights, len(matrix.feature_names))
        assert (
            rerank_labels(matrix, corpus, weights, mask)
            == rerank_labels(matrix, corpus, weights)
        )

    def test_toy_matrix_argmax(self):
        corpus = load_nbest(
            [
                "0 ||| low ||| f= 1.0 ||| 0.0",
                "0 ||| high ||| f= 2.0 ||| 0.0",
            ]
        )
        matrix = assemble_matrix(corpus, passthrough=["f"])
        labels = rerank_labels(matrix, corpus, WeightVector(("f",), (1.0,)))
        assert labels == ("high",)


class TestStrategyDominance:
    def test_tuned_rerank_beats_kd_on_tune_set(self):
        _, corpus, refset, refs, _ = build(20, 4, seed=8)
        matrix = assemble_matrix(
            corpus, passthrough=["total"], native=["mbr_bleu", "len_ratio"]
        )
        run = tune_mira(matrix, corpus, refset, MiraConfig(epochs=5, seed=0))
        best = run.history[run.best_epoch][0]
        mask = select_models(best, 2)
        tuned_labels = rerank_labels(matrix, corpus, best)
        kd_labels = kd_top1(corpus)
        tuned = corpus_bleu(corpus_stats(tuned_labels, refs))
        kd = corpus_bleu(corpus_stats(kd_labels, refs))
        # epoch-0 candidate is the one-hot 'total' baseline, i.e. the KD top-1
        assert tuned >= kd - 1e-9


class TestCollapseAtN1:
    def test_all_three_strategies_agree(self):
        _, corpus, refset, _, _ = build(6, 1, seed=9)
        matrix = assemble_matrix(corpus, passthrough=["total"], native=["len"])
        weights = WeightVector(matrix.feature_names, (0.7, -0.1))
        kd = kd_top1(corpus)
        ki = ki_select(corpus, refset)
        rr = rerank_labels(matrix, corpus, weights)
        assert kd == ki == rr

