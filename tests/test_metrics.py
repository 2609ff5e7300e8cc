import ast
import math
import random
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import nbdistill
from nbdistill.metrics import (
    PAIR_SCORES,
    _BLOCK_SENTENCES,
    _overlaps,
    corpus_bleu,
    corpus_chrf,
    corpus_stats,
    hyp_stats,
    sentence_bleu,
    sentence_chrf,
    sentence_stats,
    tokenize_13a,
    tokenize_many,
)
from oracles import (
    bf_bleu_from_stats,
    bf_corpus_bleu,
    bf_sentence_bleu,
    bf_sentence_chrf,
    bf_sentence_stats,
)
from reference_stats import (
    reference_corpus_chrf,
    reference_hyp_stats,
    reference_sentence_chrf,
    reference_sentence_stats,
    reference_tokenize_13a,
    reference_total,
)
from strategies import FRAGMENTS, TEXTS, hypothesis_lists
from synth import make_corpus

DATA = Path(__file__).parent / "data"

# plain word references make closest-length ties with hypotheses common
_WORDS = st.lists(st.sampled_from(["a", "b", "cat", "the"]), max_size=8).map(" ".join)
_REFS = st.lists(st.one_of(TEXTS, _WORDS), min_size=1, max_size=3)
# text over the characters the 13a rules and the normalisation act on
_HOSTILE = st.text(" \t\n-&;.,:!?()'\"<>/@[]{}0123456789aé")
# text with the separators that str.split() splits on and "\n" does not match,
# and with '-' and '.' at either end
_EDGES = st.lists(
    st.sampled_from((*FRAGMENTS, "\x1c", "\u2028", "\r", "\x85", "-\n", "...")), max_size=10
).map("".join)


@st.composite
def corpora(draw):
    lists = draw(st.lists(hypothesis_lists(), min_size=1, max_size=4))
    refs = [draw(_REFS) for _ in lists]
    picks = [draw(st.integers(0, len(texts) - 1)) for texts in lists]
    return lists, refs, picks


class TestTokenizer13a:
    def test_empty(self):
        assert tokenize_13a("") == []

    def test_punctuation_split(self):
        assert tokenize_13a("Hello, world!") == ["Hello", ",", "world", "!"]

    def test_digit_internal_period_kept(self):
        assert tokenize_13a("3.5 km") == ["3.5", "km"]

    @settings(max_examples=500)
    @given(st.one_of(TEXTS, _HOSTILE, st.text()))
    def test_equal_to_frozen_rule_set(self, text):
        assert tokenize_13a(text) == reference_tokenize_13a(text)

    def test_reference_fixture_byte_for_byte(self):
        inputs = (DATA / "tok13a_input.txt").read_text(encoding="utf-8").split("\n")[:-1]
        expected = (DATA / "tok13a_expected.txt").read_text(encoding="utf-8").split("\n")[:-1]
        assert len(inputs) == len(expected) == 200
        for line, want in zip(inputs, expected):
            assert " ".join(tokenize_13a(line)) == want


class TestTokenizeMany:
    @settings(max_examples=500)
    @given(st.lists(st.one_of(TEXTS, _HOSTILE, _EDGES, st.text()), max_size=6))
    @example([])
    @example(["-a.", ".b-", "", "&amp;&lt;&quot;", "<skipped>x-\ny\n", "\x1c\u2028", "1.", ".5"])
    def test_equal_to_frozen_rule_set_per_text(self, texts):
        assert tokenize_many(texts) == [reference_tokenize_13a(t) for t in texts]


class TestSentenceStats:
    def test_identity(self):
        toks = "a b c d e".split()
        assert sentence_stats(toks, [toks]) == (5, 4, 3, 2, 5, 4, 3, 2, 5, 5)

    def test_empty_hypothesis(self):
        stats = sentence_stats([], ["a b c".split(), "a b".split()])
        assert stats == (0, 0, 0, 0, 0, 0, 0, 0, 0, 2)  # ref_len of the shortest reference

    def test_clipping(self):
        stats = sentence_stats("a a a".split(), ["a a".split()])
        assert stats == (2, 1, 0, 0, 3, 2, 1, 0, 3, 2)

    def test_closest_ref_len_tie_goes_shorter(self):
        stats = sentence_stats("a b c".split(), ["x y".split(), "x y z w".split()])
        assert stats[9] == 2  # ref_len

    @given(st.data())
    def test_matches_oracle(self, data):
        words = "a b c d".split()
        hyp = data.draw(st.lists(st.sampled_from(words), max_size=8))
        refs = data.draw(
            st.lists(st.lists(st.sampled_from(words), max_size=8), min_size=1, max_size=3)
        )
        clipped, totals, hyp_len, ref_len = bf_sentence_stats(hyp, refs)
        assert sentence_stats(hyp, refs) == (*clipped, *totals, hyp_len, ref_len)


class TestCorpusBleu:
    def test_identity_is_exactly_100(self):
        stats = sentence_stats("a b c d e".split(), ["a b c d e".split()])
        assert corpus_bleu(stats) == 100.0

    def test_short_identity_is_exactly_100(self):
        stats = sentence_stats("a b".split(), ["a b".split()])
        assert corpus_bleu(stats) == 100.0

    def test_empty_hypothesis_is_zero(self):
        stats = sentence_stats([], ["a b".split()])
        assert corpus_bleu(stats) == 0.0

    def test_agrees_with_oracle_on_toy_stats(self):
        hyp = "a b x c".split()
        refs = [["a", "b", "c"], ["a", "b", "y"]]
        stats = sentence_stats(hyp, refs)
        expected = bf_bleu_from_stats(*bf_sentence_stats(hyp, refs))
        assert corpus_bleu(stats) == pytest.approx(expected, abs=1e-9)

    def test_constructed_stats_agree_with_formula(self):
        # order 4 excluded (no hypothesis 4-grams), order 3 exp-smoothed, BP < 1
        stats = (2, 1, 0, 0, 3, 2, 1, 0, 3, 4)
        expected = bf_bleu_from_stats([2, 1, 0, 0], [3, 2, 1, 0], 3, 4)
        assert corpus_bleu(stats) == pytest.approx(expected, abs=1e-9)

    def test_additivity_under_regrouping(self):
        _, refs, hyps = make_corpus(8, 1, seed=3)
        stream = [h[0] for h in hyps]
        total = corpus_stats(stream, refs)
        assert corpus_stats(stream[::-1], refs[::-1]) == total
        assert repr(total) == repr(reference_total(
            reference_sentence_stats(
                reference_tokenize_13a(hyp), [reference_tokenize_13a(r) for r in ref]
            )
            for hyp, ref in zip(stream, refs)
        ))

    def test_corpus_of_reference_copies_scores_100(self):
        _, refs, _ = make_corpus(6, 1, seed=4, num_refs=2)
        hyps = [r[1] for r in refs]
        assert corpus_bleu(corpus_stats(hyps, refs)) == 100.0

    @given(st.data())
    def test_adding_a_reference_never_decreases_clipping(self, data):
        words = "a b c".split()
        hyp = data.draw(st.lists(st.sampled_from(words), min_size=1, max_size=6))
        refs = data.draw(
            st.lists(st.lists(st.sampled_from(words), max_size=6), min_size=1, max_size=2)
        )
        extra = data.draw(st.lists(st.sampled_from(words), max_size=6))
        before = sentence_stats(hyp, refs)
        after = sentence_stats(hyp, refs + [extra])
        for order in range(4):
            assert after[order] >= before[order]


class TestHypStats:
    @settings(max_examples=200)
    @given(corpora())
    @example(([["a b c d e"]], [["a b c d", "a b c d e f"]], [0]))  # tied ref lengths
    @example(([["", "a", "a", ""], ["b"]], [["cat", "&amp; <skipped>\n1,000"], ["a"]], [1, 0]))
    def test_equal_to_per_hypothesis_loop(self, case):
        lists, refs, picks = case
        table = hyp_stats(lists, refs)
        want_stats, want_gains = reference_hyp_stats(lists, refs)
        n_max = max(len(texts) for texts in lists)
        assert table.stats.shape == (len(lists), n_max, 10)
        for sid, texts in enumerate(lists):
            n = len(texts)
            got = list(map(tuple, table.stats[sid, :n].tolist()))
            assert repr(got) == repr(want_stats[sid])
            assert repr(table.gains[sid, :n].tolist()) == repr(want_gains[sid])
            assert table.valid[sid].tolist() == [True] * n + [False] * (n_max - n)
            assert not table.stats[sid, n:].any()
            assert not table.gains[sid, n:].any()
        total = reference_total(want_stats[sid][pick] for sid, pick in enumerate(picks))
        assert repr(table.bleu(picks)) == repr(corpus_bleu(total))

    @staticmethod
    def assert_equal_to_reference(lists, refs):
        table = hyp_stats(lists, refs)
        want_stats, want_gains = reference_hyp_stats(lists, refs)
        for sid, texts in enumerate(lists):
            n = len(texts)
            got = list(map(tuple, table.stats[sid, :n].tolist()))
            assert repr(got) == repr(want_stats[sid])
            assert repr(table.gains[sid, :n].tolist()) == repr(want_gains[sid])
            assert table.valid[sid].sum() == n
            assert not table.stats[sid, n:].any()

    @settings(max_examples=100)
    @given(st.integers(1, 3), corpora())
    def test_block_edges_equal_to_per_hypothesis_loop(self, block, case):
        lists, refs, _ = case
        with mock.patch("nbdistill.metrics._BLOCK_SENTENCES", block):
            self.assert_equal_to_reference(lists, refs)

    def test_corpus_longer_than_two_blocks(self):
        rng = random.Random(11)
        _, refs, hyps = make_corpus(2 * _BLOCK_SENTENCES + 5, 6, seed=11, num_refs=3)
        lists = [h[: rng.randint(1, 6)] + h[:1] for h in hyps]  # ragged, with duplicates
        refs = [r[: rng.randint(1, 3)] for r in refs]
        self.assert_equal_to_reference(lists, refs)

    def test_reference_lists_must_match(self):
        with pytest.raises(ValueError):
            hyp_stats([["a"], ["b"]], [["a"]])

    def test_every_sentence_needs_a_reference(self):
        with pytest.raises(ValueError, match="^at least one reference required$"):
            hyp_stats([["a"]], [()])

    def test_corpus_stats_scores_no_sentence(self, monkeypatch):
        calls = []

        def counted(stats):
            calls.append(stats)
            return corpus_bleu(stats)

        monkeypatch.setattr("nbdistill.metrics.corpus_bleu", counted)
        _, refs, hyps = make_corpus(5, 1, seed=5)
        corpus_stats([h[0] for h in hyps], refs)
        assert calls == []

    @pytest.mark.parametrize(
        "score, hyps", [(hyp_stats, [["a"], ["b", "c"]]), (corpus_stats, ["a", "b"])],
        ids=["hyp_stats", "corpus_stats"],
    )
    @pytest.mark.parametrize("refs", [[["a"]], [["a"], ["b"], ["c"]]], ids=["short", "long"])
    def test_coverage_checked_before_tokenizing(self, monkeypatch, score, hyps, refs):
        def refuse(text):
            raise AssertionError("tokenized before the coverage check")

        monkeypatch.setattr("nbdistill.metrics.tokenize_13a", refuse)
        monkeypatch.setattr("nbdistill.metrics.tokenize_many", refuse)
        message = f"references cover {len(refs)} sentences, corpus has 2"
        with pytest.raises(ValueError, match=f"^{message}$"):
            score(hyps, iter(refs) if score is corpus_stats else refs)


class TestCounterDefinitions:
    @settings(max_examples=200)
    @given(st.lists(st.tuples(TEXTS, _REFS), min_size=1, max_size=4))
    @example([("", ["a b", "cat"]), ("a  b", ["a b"]), ("straße 1,000", ["", "  "])])
    def test_sentence_and_chrf_equal_to_counter_loops(self, pairs):
        for hyp, refs in pairs:
            hyp_toks = tokenize_13a(hyp)
            refs_toks = [tokenize_13a(r) for r in refs]
            assert repr(sentence_stats(hyp_toks, refs_toks)) == repr(
                reference_sentence_stats(hyp_toks, refs_toks)
            )
            assert repr(sentence_chrf(hyp, refs)) == repr(reference_sentence_chrf(hyp, refs))
        assert repr(corpus_chrf(pairs)) == repr(reference_corpus_chrf(pairs))


def counter_overlaps(texts, orders):
    """``_overlaps`` by its definition: the size of the ``Counter`` multiset
    intersection of the n-grams of each pair of texts, per order."""
    grams = [
        [Counter(zip(*(text[k:] for k in range(order)))) for order in range(1, orders + 1)]
        for text in texts
    ]
    return [[[sum((a & b).values()) for a, b in zip(gi, gj)] for gj in grams] for gi in grams]


class TestOverlaps:
    @settings(max_examples=200)
    @given(st.lists(st.lists(st.sampled_from(["a", "b", "cat", "."]), max_size=8), max_size=6),
           st.integers(1, 4))
    @example([[], ["a"], ["a", "b", "a"], ["a", "b", "a", "b"]], 4)
    @example([], 4)
    def test_word_sequences_equal_to_counter_intersection(self, texts, orders):
        assert _overlaps(texts, orders) == counter_overlaps(texts, orders)

    @settings(max_examples=200)
    @given(st.lists(TEXTS, max_size=6), st.integers(1, 6))
    @example(["", "a", "ab", "abab", "日本 ab"], 6)
    @example(["", ""], 6)
    def test_character_sequences_equal_to_counter_intersection(self, texts, orders):
        assert _overlaps(texts, orders) == counter_overlaps(texts, orders)


class TestPairScores:
    @settings(max_examples=200)
    @given(hypothesis_lists())
    @example(["", "a", "a b . c", "a b . c"])
    def test_each_pair_equal_to_its_sentence_metric(self, texts):
        for name, metric in (("sentence_bleu", sentence_bleu), ("sentence_chrf", sentence_chrf)):
            pair = PAIR_SCORES[name](texts)
            for i, hyp in enumerate(texts):
                for j, ref in enumerate(texts):
                    assert repr(pair(i, j)) == repr(metric(hyp, [ref])), (name, i, j)


def test_only_metrics_reaches_its_private_names():
    """The statistics layouts stay inside ``metrics``: no other module of the
    package imports a ``_``-prefixed name from it."""
    reached = set()
    for path in Path(nbdistill.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom) and path.stem != "metrics"
                    and node.module in ("metrics", "nbdistill.metrics")):
                reached.update(f"{path.stem}: {a.name}" for a in node.names
                               if a.name.startswith("_"))
    assert reached == set()


class TestSentenceBleu:
    def test_identity(self):
        assert sentence_bleu("a b c d e", ["a b c d e"]) == 100.0

    def test_disjoint_vocabulary_positive_and_matches_oracle(self):
        hyp = " ".join(["tok%d" % i for i in range(20)])
        ref = " ".join(["other%d" % i for i in range(20)])
        value = sentence_bleu(hyp, [ref])
        assert 0.0 < value <= 1.0
        assert value == pytest.approx(bf_sentence_bleu(hyp, [ref]), abs=1e-9)

    def test_prefix_half_length_gets_bp(self):
        ref = "a b c d e f g h"
        hyp = "a b c d"
        assert sentence_bleu(hyp, [ref]) == pytest.approx(100.0 * math.exp(-1.0), abs=1e-9)

    @given(st.data())
    def test_range_and_identity_condition(self, data):
        words = "a b c d e".split()
        hyp_toks = data.draw(st.lists(st.sampled_from(words), min_size=4, max_size=8))
        ref_toks = data.draw(st.lists(st.sampled_from(words), min_size=1, max_size=8))
        value = sentence_bleu(" ".join(hyp_toks), [" ".join(ref_toks)])
        assert 0.0 <= value <= 100.0
        if hyp_toks == ref_toks:
            assert value == 100.0
        else:
            assert (value == 100.0) == (hyp_toks == ref_toks)


class TestChrf:
    def test_identity(self):
        assert sentence_chrf("hello world", ["hello world"]) == 100.0

    def test_identity_short_string(self):
        assert sentence_chrf("abc", ["abc"]) == 100.0

    def test_empty_hypothesis(self):
        assert sentence_chrf("", ["anything"]) == 0.0

    def test_abcd_vs_abce_matches_oracle(self):
        value = sentence_chrf("abcd", ["abce"])
        assert value == pytest.approx(bf_sentence_chrf("abcd", ["abce"]), abs=1e-9)
        assert value == pytest.approx(47.91666666666667, abs=1e-9)

    def test_whitespace_runs_collapse(self):
        assert sentence_chrf("a  b", ["a b"]) == 100.0
        assert sentence_chrf("\ta b\t", ["a b"]) == 100.0

    def test_multi_reference_takes_best(self):
        score = sentence_chrf("abcd", ["zzzz", "abcd"])
        assert score == 100.0

    def test_corpus_aggregates_before_f(self):
        pairs = [("abcd", ["abce"]), ("hello", ["hello"])]
        value = corpus_chrf(pairs)
        per_sentence = [sentence_chrf(h, r) for h, r in pairs]
        assert value != pytest.approx(sum(per_sentence) / 2)

    @given(st.text(min_size=1, max_size=20))
    def test_self_similarity_is_100(self, text):
        if text.strip():
            assert sentence_chrf(text, [text]) == pytest.approx(100.0)
        else:
            assert sentence_chrf(text, [text]) == 0.0

    @given(st.data())
    def test_matches_oracle_on_random_pairs(self, data):
        alphabet = "abcde "
        hyp = data.draw(st.text(alphabet=alphabet, max_size=15))
        refs = data.draw(st.lists(st.text(alphabet=alphabet, max_size=15), min_size=1, max_size=3))
        value = sentence_chrf(hyp, refs)
        assert value == pytest.approx(bf_sentence_chrf(hyp, refs), abs=1e-9)


class TestCorpusAgreement:
    def test_synthetic_corpus_matches_oracle(self):
        _, refs, hyps = make_corpus(30, 1, seed=11, num_refs=2)
        flat = [h[0] for h in hyps]
        value = corpus_bleu(corpus_stats(flat, refs))
        assert value == pytest.approx(bf_corpus_bleu(flat, refs), abs=1e-9)


def test_scores_are_plain_floats():
    """Every score is a Python float, never a numpy scalar: ``dev_bleu.txt``
    is written with ``repr``, and numpy 2 writes ``np.float64(50.0)``."""
    refs = [["a b c d"], ["x y"]]
    table = hyp_stats([["a b c d", "a b"], ["z"]], refs)
    scores = [
        corpus_bleu(corpus_stats(["a b c", "x y"], refs)),
        corpus_bleu(sentence_stats([], [["a"]])),  # the empty hypothesis
        table.bleu([1, 0]),
        table.bleu(table.valid.argmin(axis=1)),  # picks as a numpy array
        sentence_bleu("a b", ["a b c"]),
        sentence_chrf("ab", ["abc"]),
        sentence_chrf("", ["abc"]),
        corpus_chrf([("ab", ["abc"]), ("x", ["y"])]),
    ]
    assert [type(score) for score in scores] == [float] * len(scores)
