import io

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nbdistill.corpus import load_nbest, load_scores
from nbdistill.features import (
    FeatureMatrix,
    assemble_matrix,
    length_features,
    load_matrix,
    mbr_utility,
    passthrough_features,
    write_matrix,
)
from nbdistill.metrics import sentence_bleu, sentence_chrf, tokenize_13a
from oracles import bf_mbr_utilities, bf_sentence_bleu
from reference_mbr import reference_mbr_utility
from strategies import hypothesis_lists
from synth import make_corpus, nbest_lines


ALL_KEYS = ["0\t0\t1.0", "0\t1\t1.0", "1\t0\t1.0", "1\t1\t1.0"]


def small_corpus():
    return load_nbest(
        [
            "0 ||| a b c ||| lm= -1.0 tm= -2.0 ||| 3.0",
            "0 ||| a b d ||| lm= -1.5 tm= -2.5 ||| 2.0",
            "0 ||| x y z ||| lm= -9.0 tm= -8.0 ||| 1.0",
            "1 ||| p q ||| lm= -0.5 tm= -0.25 ||| 4.0",
            "1 ||| p q r s ||| lm= -0.75 tm= -0.5 ||| 3.5",
        ]
    )


class TestMbrUtility:
    def test_identical_hypotheses_all_100(self):
        assert mbr_utility(["same words here"] * 4) == [100.0] * 4

    def test_single_hypothesis_self_consensus(self):
        assert mbr_utility(["lonely"]) == [100.0]
        assert mbr_utility(["lonely"], "sentence_chrf") == [100.0]

    def test_matches_bruteforce_pairwise_matrix(self):
        texts = ["a b c", "a b d", "x y z"]
        utilities = mbr_utility(texts, "sentence_bleu")
        expected = bf_mbr_utilities(texts, lambda h, r: bf_sentence_bleu(h, [r]))
        for got, want in zip(utilities, expected):
            assert got == pytest.approx(want, abs=1e-9)
        # the consensus pair scores strictly above the outlier
        assert min(utilities[0], utilities[1]) > utilities[2]

    def test_chrf_utility_matches_direct_loop(self):
        texts = ["abcd", "abce", "zzzz"]
        utilities = mbr_utility(texts, "sentence_chrf")
        for i, text in enumerate(texts):
            expected = sum(
                sentence_chrf(text, [texts[j]]).value for j in range(3) if j != i
            ) / 2
            assert utilities[i] == pytest.approx(expected, abs=1e-9)

    def test_unknown_utility(self):
        with pytest.raises(ValueError):
            mbr_utility(["a"], "ter")

    @settings(max_examples=200)
    @given(hypothesis_lists())
    @example(make_corpus(1, 32, seed=0, max_edits=6)[2][0])  # a full-length list
    def test_bit_identical_to_per_pair_definition(self, texts):
        for utility in ("sentence_bleu", "sentence_chrf"):
            assert repr(mbr_utility(texts, utility)) == repr(
                reference_mbr_utility(texts, utility)
            )

    @given(st.permutations([0, 1, 2, 3]))
    def test_permutation_covariance(self, perm):
        texts = ["a b c", "a b d", "a x c", "q"]
        base = mbr_utility(texts)
        permuted = mbr_utility([texts[i] for i in perm])
        for new_pos, old_pos in enumerate(perm):
            assert permuted[new_pos] == pytest.approx(base[old_pos], abs=1e-12)

    def test_bounded_by_max_pairwise(self):
        texts = ["a b c d", "a b c e", "f g h i", "a b"]
        utilities = mbr_utility(texts)
        for i in range(len(texts)):
            best_pair = max(
                sentence_bleu(texts[i], [texts[j]]) for j in range(len(texts)) if j != i
            )
            assert utilities[i] <= best_pair + 1e-12


class TestLengthFeatures:
    def test_equal_lengths(self):
        counts, ratios = length_features(["a b c", "d e f"])
        assert counts == [3.0, 3.0]
        assert ratios == [1.0, 1.0]

    def test_single_hypothesis_ratio_one(self):
        counts, ratios = length_features(["a b"])
        assert counts == [2.0]
        assert ratios == [1.0]

    def test_ratio_arithmetic(self):
        _, ratios = length_features(["a b", "a b c d"])
        assert ratios == pytest.approx([2 / 3, 4 / 3])

    def test_one_tokenization_per_distinct_text(self, monkeypatch):
        texts = ["a b", "c d e", "a b", "f", "c d e", "a b"]
        seen = []

        def counting(text):
            seen.append(text)
            return tokenize_13a(text)

        monkeypatch.setattr("nbdistill.features.tokenize_13a", counting)
        counts, ratios = length_features(texts)
        assert sorted(seen) == sorted(set(texts))
        per_text = [float(len(tokenize_13a(t))) for t in texts]
        mean = sum(per_text) / len(per_text)
        assert counts == per_text
        assert ratios == [c / mean for c in per_text]


class TestPassthrough:
    def test_total_column(self):
        cols = passthrough_features(small_corpus(), ["total"])
        assert cols[0][0] == "total"
        assert cols[0][1] == [[3.0, 2.0, 1.0], [4.0, 3.5]]

    def test_missing_name_reports_position(self):
        corpus = load_nbest(
            ["0 ||| a ||| lm= 1.0 ||| 1.0", "0 ||| b ||| tm= 1.0 ||| 0.5"]
        )
        with pytest.raises(ValueError, match="'lm' missing at sentence 0 rank 1"):
            passthrough_features(corpus, ["lm"])

    def test_requested_order(self):
        cols = passthrough_features(small_corpus(), ["lm", "tm"])
        assert [name for name, _ in cols] == ["lm", "tm"]


class TestAssemble:
    def test_zero_features_is_an_error(self):
        with pytest.raises(ValueError, match="zero features"):
            assemble_matrix(small_corpus())

    def test_single_external_table(self):
        corpus = small_corpus()
        table = load_scores(
            [f"{s}\t{r}\t{s + r / 10}" for s, n in ((0, 3), (1, 2)) for r in range(n)],
            "ext",
        )
        matrix = assemble_matrix(corpus, external_tables=[table])
        assert matrix.feature_names == ("ext",)
        assert matrix.values[0].shape == (3, 1)
        assert matrix.values[1][1, 0] == 1.1

    def test_column_order_and_shapes(self):
        corpus = load_nbest(nbest_lines(make_corpus(2, 3, seed=5)[2]))
        ext1 = load_scores([f"{s}\t{r}\t1.0" for s in range(2) for r in range(3)], "e1")
        ext2 = load_scores([f"{s}\t{r}\t2.0" for s in range(2) for r in range(3)], "e2")
        matrix = assemble_matrix(
            corpus, passthrough=["total"], native=["mbr_bleu"], external_tables=[ext1, ext2]
        )
        assert matrix.feature_names == ("total", "mbr_bleu", "e1", "e2")
        for arr in matrix.values:
            assert arr.shape == (3, 4)
            assert np.isfinite(arr).all()

    def test_duplicate_feature_name(self):
        corpus = small_corpus()
        table = load_scores(
            [f"{s}\t{r}\t0.0" for s, n in ((0, 3), (1, 2)) for r in range(n)], "total"
        )
        with pytest.raises(ValueError, match="duplicate feature name"):
            assemble_matrix(corpus, passthrough=["total"], external_tables=[table])

    def test_incomplete_external_table(self):
        with pytest.raises(ValueError, match="missing"):
            assemble_matrix(
                small_corpus(), external_tables=[load_scores(["0\t0\t1.0"], "e")]
            )

    def test_non_finite_passthrough_rejected(self):
        corpus = load_nbest(["0 ||| a ||| lm= inf ||| 1.0"])
        with pytest.raises(ValueError, match="non-finite"):
            assemble_matrix(corpus, passthrough=["lm"])

    @pytest.mark.parametrize(
        "nbest, table_lines, table_name, message",
        [
            ("lm= -1.0", ALL_KEYS[:3], "e",
             "score table 'e' does not match corpus: missing \\(1,1\\)"),
            ("lm= -1.0", ALL_KEYS, "lm", "duplicate feature name 'lm'"),
            ("lm= nan", ALL_KEYS, "e", "non-finite feature value at sentence 1"),
        ],
        ids=["table-missing-key", "passthrough-named-like-table", "nan-in-last-sentence"],
    )
    def test_input_faults_raise_before_any_mbr(
        self, monkeypatch, nbest, table_lines, table_name, message
    ):
        def fail(*args, **kwargs):
            raise AssertionError("mbr_utility ran before the inputs were checked")

        monkeypatch.setattr("nbdistill.features.mbr_utility", fail)
        corpus = load_nbest(
            [
                "0 ||| a b c ||| lm= -1.0 ||| 3.0",
                "0 ||| a b d ||| lm= -1.5 ||| 2.0",
                "1 ||| p q ||| lm= -0.5 ||| 4.0",
                f"1 ||| p q r ||| {nbest} ||| 3.5",
            ]
        )
        with pytest.raises(ValueError, match=message):
            assemble_matrix(
                corpus,
                passthrough=["lm"],
                native=("mbr_bleu", "mbr_chrf"),
                external_tables=[load_scores(table_lines, table_name)],
            )

    def test_unknown_native_feature(self):
        with pytest.raises(ValueError, match="unknown native feature"):
            assemble_matrix(small_corpus(), native=["ter"])

    def test_column_independence(self):
        corpus = small_corpus()
        combined = assemble_matrix(corpus, passthrough=["total"], native=["len", "len_ratio"])
        part_a = assemble_matrix(corpus, passthrough=["total"])
        part_b = assemble_matrix(corpus, native=["len", "len_ratio"])
        assert combined.feature_names == part_a.feature_names + part_b.feature_names
        for sid in range(corpus.num_sentences):
            stacked = np.hstack([part_a.values[sid], part_b.values[sid]])
            assert np.array_equal(combined.values[sid], stacked)

    def test_values_are_read_only(self):
        matrix = assemble_matrix(small_corpus(), passthrough=["total"])
        with pytest.raises(ValueError):
            matrix.values[0][0, 0] = 99.0


class TestBestRows:
    def test_first_of_equal_scores_wins(self):
        matrix = FeatureMatrix(
            ("a", "b"),
            (np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 0.0]]), np.array([[1.0, 1.0], [1.0, 1.0]])),
        )
        assert matrix.best_rows(np.array([1.0, 1.0])) == (2, 0)
        assert matrix.best_rows(np.array([1.0, 2.0])) == (0, 0)
        assert matrix.best_rows(np.zeros(2)) == (0, 0)


class TestMatrixIO:
    def test_round_trip_exact(self):
        corpus = small_corpus()
        matrix = assemble_matrix(
            corpus, passthrough=["total", "lm"], native=["mbr_bleu", "len_ratio"]
        )
        buf = io.StringIO()
        write_matrix(matrix, buf)
        reloaded = load_matrix(io.StringIO(buf.getvalue()))
        assert reloaded.feature_names == matrix.feature_names
        for a, b in zip(reloaded.values, matrix.values):
            assert np.array_equal(a, b)

    def test_header_required(self):
        with pytest.raises(ValueError, match="#features"):
            load_matrix(io.StringIO("0\t0\t1.0\n"))

    def test_ragged_row_rejected(self):
        with pytest.raises(ValueError, match="columns"):
            load_matrix(io.StringIO("#features\ta\tb\n0\t0\t1.0\n"))

    def test_rank_gap_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            load_matrix(io.StringIO("#features\ta\n0\t0\t1.0\n0\t2\t1.0\n"))
