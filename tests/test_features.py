import ast
import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import nbdistill
from nbdistill.corpus import FormatError, load_nbest, load_scores
from nbdistill.features import (
    FeatureMatrix,
    assemble_matrix,
    length_features,
    load_matrix,
    mbr_utility,
    passthrough_features,
    write_matrix,
)
from nbdistill.metrics import sentence_bleu, sentence_chrf, tokenize_13a, tokenize_many
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
                sentence_chrf(text, [texts[j]]) for j in range(3) if j != i
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

    def test_bytes_pinned_on_a_list_where_compensated_sums_differ(self):
        # Python 3.12's builtin sum gives 0x1.22dbbbdb1b5c0p+5, 0x1.28112b64130d2p+5
        # and 0x1.5013599c9f115p+5 for the first three BLEU utilities and
        # 0x1.226614509dce5p+6 for the third chrF one
        texts = ["papa victor zulu quebec hotel", "papa victor mike zulu quebec hotel",
                 "papa mike zulu quebec hotel", "papa hotel zulu quebec"]
        assert [u.hex() for u in mbr_utility(texts, "sentence_bleu")] == [
            "0x1.22dbbbdb1b5bfp+5", "0x1.28112b64130d3p+5",
            "0x1.5013599c9f116p+5", "0x1.b680ace78bdacp+4",
        ]
        assert [u.hex() for u in mbr_utility(texts, "sentence_chrf")] == [
            "0x1.2c6b6c77d2da7p+6", "0x1.487beb8e14a63p+6",
            "0x1.226614509dce6p+6", "0x1.d555e344fe591p+5",
        ]

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

        def counting(group):
            seen.extend(group)
            return tokenize_many(group)

        monkeypatch.setattr("nbdistill.features.tokenize_many", counting)
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
        scores = load_scores(
            [f"{s}\t{r}\t{s + r / 10}" for s, n in ((0, 3), (1, 2)) for r in range(n)]
        )
        matrix = assemble_matrix(corpus, external=[("ext", scores)])
        assert matrix.feature_names == ("ext",)
        assert matrix.values[0].shape == (3, 1)
        assert matrix.values[1][1, 0] == 1.1

    def test_column_order_and_shapes(self):
        corpus = load_nbest(nbest_lines(make_corpus(2, 3, seed=5)[2]))
        ext1 = ("e1", load_scores([f"{s}\t{r}\t1.0" for s in range(2) for r in range(3)]))
        ext2 = ("e2", load_scores([f"{s}\t{r}\t2.0" for s in range(2) for r in range(3)]))
        matrix = assemble_matrix(
            corpus, passthrough=["total"], native=["mbr_bleu"], external=[ext1, ext2]
        )
        assert matrix.feature_names == ("total", "mbr_bleu", "e1", "e2")
        for arr in matrix.values:
            assert arr.shape == (3, 4)
            assert np.isfinite(arr).all()

    def test_duplicate_feature_name(self):
        corpus = small_corpus()
        scores = load_scores(
            [f"{s}\t{r}\t0.0" for s, n in ((0, 3), (1, 2)) for r in range(n)]
        )
        with pytest.raises(ValueError, match="duplicate feature name"):
            assemble_matrix(corpus, passthrough=["total"], external=[("total", scores)])

    def test_incomplete_external_table(self):
        with pytest.raises(ValueError, match="missing"):
            assemble_matrix(
                small_corpus(), external=[("e", load_scores(["0\t0\t1.0"]))]
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
                external=[(table_name, load_scores(table_lines))],
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

    @pytest.mark.parametrize(
        "text, message",
        [("#features\ta\n0\t0\t1.0\n0\t1\tinf\n", "line 3: non-finite feature value"),
         ("#features\ta\tb\ta\n0\t0\t1.0\t2.0\t3.0\n", "line 1: duplicate feature name in header")],
        ids=["non-finite", "duplicate-name"],
    )
    def test_bad_value_or_header_names_its_line(self, text, message):
        with pytest.raises(FormatError) as err:
            load_matrix(io.StringIO(text))
        assert str(err.value) == message


# Every float reduction the package may make, with why it is allowed: the
# builtin ``sum`` only where it adds integers, exact in any order, and the
# matrix products whose order the BLAS kernel that OpenBLAS picks for the CPU
# decides (an open exception, so that no new one arrives unseen).
_REDUCTIONS = [
    ("metrics._block_stats", "sum(map(len, lists)): the number of token lists"),
    ("features.length_features", "sum(counts): 13a token counts"),
    ("features.best_rows", "rows @ w: a gemv"),
    ("mira._update_on_sentence", "rows @ lam: a gemv"),
    ("mira._update_on_sentence", "diff @ diff: a ddot"),
]


def _reductions(node, owner):
    """The innermost enclosing function of each call of the builtin ``sum`` or
    of ``fsum``, and of each ``@``, under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and (
                getattr(child.func, "id", None) in ("sum", "fsum")
                or getattr(child.func, "attr", None) == "fsum"):
            yield owner
        elif isinstance(child, ast.BinOp) and isinstance(child.op, ast.MatMult):
            yield owner
        yield from _reductions(child, child.name if isinstance(child, ast.FunctionDef) else owner)


def test_every_float_reduction_is_in_a_fixed_order_or_listed():
    """Float scores are added in an order the code fixes: the builtin ``sum``
    compensates its rounding from Python 3.12 on, and ``math.fsum`` and
    ``statistics`` round otherwise again, so the bytes would follow the
    interpreter.  A ``@`` leaves its order to BLAS, so each one is listed."""
    owners, imports = [], set()
    for path in Path(nbdistill.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owners.extend(f"{path.stem}.{owner}" for owner in _reductions(tree, "<module>"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imports.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imports.add(node.module)
    assert sorted(owners) == sorted(site for site, _ in _REDUCTIONS)
    assert "statistics" not in imports
