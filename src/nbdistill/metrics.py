"""Corpus and sentence BLEU/chrF with 13a tokenization.

BLEU here matches the standard shareable-score convention: 13a tokenization,
up to 4-gram precision clipped against the maximum reference count, closest
reference length for the brevity penalty (ties resolve to the shorter
reference), and exponential smoothing for zero-match orders.  Orders for which
the hypothesis has no n-grams at all (hyp_len < order) are excluded from the
geometric mean, so an exact match scores 100.0 at any length.

chrF uses character n-grams of orders 1-6 over the string with whitespace
runs collapsed to single spaces, F-score with beta=2, no word n-grams.

All functions are pure; corpus aggregation is an associative, commutative
reduction over per-sentence NGramStats.  ``hyp_stats`` tabulates the
statistics of every n-best hypothesis once, so corpus BLEU of any selection is
an integer sum over that table.

N-grams are counted in one place, ``_ngram_counts``; BLEU clipping, chrF and
the MBR overlaps of ``features`` are min-and-sums over its count matrices.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

NGRAM_ORDER = 4
CHRF_CHAR_ORDER = 6
CHRF_BETA = 2.0

# The 13a rule set: split punctuation and symbols from adjacent non-digits,
# keep digit-internal '.'/',' attached, split dashes after digits.  The first
# class leaves out the space: padding a space with spaces changes nothing
# after split(), and skipping it saves one substitution per word.
_13A_RULES = (
    (re.compile(r"([\{-\~\[-\`!-\&\(-\+\:-\@\/])"), r" \1 "),
    (re.compile(r"([^0-9])([\.,])"), r"\1 \2 "),
    (re.compile(r"([\.,])([^0-9])"), r" \1 \2"),
    (re.compile(r"([0-9])(-)"), r"\1 \2 "),
)


def tokenize_13a(text: str) -> List[str]:
    """Tokenize one segment with the 13a rule set; empty input gives []."""
    norm = text.replace("<skipped>", "")
    norm = norm.replace("-\n", "")
    norm = norm.replace("\n", " ")
    if "&" in norm:
        norm = norm.replace("&quot;", '"')
        norm = norm.replace("&amp;", "&")
        norm = norm.replace("&lt;", "<")
        norm = norm.replace("&gt;", ">")
    norm = f" {norm} "
    for pattern, repl in _13A_RULES:
        norm = pattern.sub(repl, norm)
    return norm.split()


@dataclass(frozen=True)
class NGramStats:
    """Sufficient statistics for corpus BLEU; additive across sentences."""

    clipped_matches: Tuple[int, int, int, int]
    hyp_ngrams: Tuple[int, int, int, int]
    hyp_len: int
    ref_len: int

    def __add__(self, other: "NGramStats") -> "NGramStats":
        return NGramStats(
            tuple(a + b for a, b in zip(self.clipped_matches, other.clipped_matches)),
            tuple(a + b for a, b in zip(self.hyp_ngrams, other.hyp_ngrams)),
            self.hyp_len + other.hyp_len,
            self.ref_len + other.ref_len,
        )

    @staticmethod
    def zero() -> "NGramStats":
        return NGramStats((0, 0, 0, 0), (0, 0, 0, 0), 0, 0)


@dataclass(frozen=True)
class BleuScore:
    value: float
    precisions: Tuple[float, float, float, float]
    brevity_penalty: float


@dataclass(frozen=True)
class ChrFScore:
    value: float


def _ngrams(tokens: Sequence[str], order: int):
    return zip(*(tokens[i:] for i in range(order)))


def _ngram_counts(grams: Iterable[Iterable]) -> np.ndarray:
    """(n, V) int64 counts: row ``i`` counts the n-grams that the ``i``-th
    iterable yields; ids go by first appearance, so an n-gram has one column."""
    ids: Dict[object, int] = {}
    per_text = [[ids.setdefault(gram, len(ids)) for gram in text] for text in grams]
    n, v = len(per_text), len(ids)
    owner = np.repeat(np.arange(n, dtype=np.int64), [len(c) for c in per_text])
    cols = np.array([c for text in per_text for c in text], dtype=np.int64)
    return np.bincount(owner * v + cols, minlength=n * v).reshape(n, v)


def _by_order(texts: Sequence, grams_of: Callable, orders: int) -> np.ndarray:
    """(orders, len(texts), V) counts: ``[o, i]`` counts the n-grams of order
    ``o + 1`` of text ``i``.  One matrix holds every order, because n-grams of
    different orders never compare equal."""
    counts = _ngram_counts(grams_of(t, o) for o in range(1, orders + 1) for t in texts)
    return counts.reshape(orders, len(texts), counts.shape[1])


def _list_stats(
    hyps_tokens: Sequence[Sequence[str]], refs_tokens: Sequence[Sequence[str]]
) -> np.ndarray:
    """(n, 10) int64 BLEU statistics of each hypothesis against all the
    references: clipped matches and n-gram counts of orders 1-4, hyp_len and
    ref_len, the ``HypStats.stats`` row layout.  A hypothesis n-gram count is
    clipped by the maximum count of that n-gram over the references."""
    if not refs_tokens:
        raise ValueError("at least one reference required")
    n = len(hyps_tokens)
    counts = _by_order([*hyps_tokens, *refs_tokens], _ngrams, NGRAM_ORDER)
    hyp, ref_max = counts[:, :n], counts[:, n:].max(axis=1, keepdims=True)
    out = np.empty((n, 10), dtype=np.int64)
    out[:, 0:4] = np.minimum(hyp, ref_max).sum(axis=2).T
    out[:, 4:8] = hyp.sum(axis=2).T
    # ascending, so min keeps the shorter of two equally close lengths
    ref_lens = sorted(len(r) for r in refs_tokens)
    out[:, 8] = [len(h) for h in hyps_tokens]
    out[:, 9] = [min(ref_lens, key=lambda rl: abs(rl - len(h))) for h in hyps_tokens]
    return out


def _as_stats(row: Sequence[int]) -> NGramStats:
    return NGramStats(tuple(row[0:4]), tuple(row[4:8]), row[8], row[9])


def sentence_stats(
    hyp_tokens: Sequence[str], refs_tokens: Sequence[Sequence[str]]
) -> NGramStats:
    """N-gram statistics of one hypothesis against one or more references.

    Each hypothesis n-gram count is clipped by the maximum count of that
    n-gram across all references.  ref_len is the reference length closest
    to the hypothesis length; ties resolve to the shorter reference.
    """
    return _as_stats(_list_stats([hyp_tokens], refs_tokens)[0].tolist())


@dataclass(frozen=True, eq=False)
class HypStats:
    """BLEU statistics of every hypothesis of an n-best corpus.

    ``stats[s, t]`` holds the clipped matches (orders 1-4), the hypothesis
    n-gram counts (orders 1-4), hyp_len and ref_len of hypothesis ``t`` of
    sentence ``s``, exactly as ``sentence_stats`` gives them, and
    ``gains[s, t]`` its smoothed sentence BLEU.  Lists are padded to the
    longest one; ``valid`` is False on padding, which holds zeros.
    """

    stats: np.ndarray  # (S, N_max, 10) int64
    valid: np.ndarray  # (S, N_max) bool
    gains: np.ndarray  # (S, N_max) float64

    def bleu(self, picks: Sequence[int]) -> BleuScore:
        """Corpus BLEU of the selection holding hypothesis ``picks[s]`` of
        each sentence ``s``; integer sums are exact in any order."""
        total = self.stats[np.arange(len(self.stats)), picks].sum(axis=0).tolist()
        return corpus_bleu(_as_stats(total))


def _check_coverage(lists: Sequence, refs: Sequence) -> None:
    if len(refs) != len(lists):
        raise ValueError(f"references cover {len(refs)} sentences, corpus has {len(lists)}")


def hyp_stats(
    lists: Sequence[Sequence[str]], refs_per_sentence: Sequence[Sequence[str]]
) -> HypStats:
    """Tabulate every hypothesis text of every list against its references.

    The references of a sentence are tokenized and counted once, and each
    distinct text of a list is tokenized, clipped and scored once.
    """
    _check_coverage(lists, refs_per_sentence)
    n_max = max(len(texts) for texts in lists)
    stats = np.zeros((len(lists), n_max, 10), dtype=np.int64)
    valid = np.zeros((len(lists), n_max), dtype=bool)
    gains = np.zeros((len(lists), n_max))
    for sid, (texts, refs) in enumerate(zip(lists, refs_per_sentence)):
        index = {text: k for k, text in enumerate(dict.fromkeys(texts))}
        rows = _list_stats([tokenize_13a(t) for t in index], [tokenize_13a(r) for r in refs])
        picks = [index[t] for t in texts]
        n = len(texts)
        stats[sid, :n] = rows[picks]
        gains[sid, :n] = np.array([corpus_bleu(_as_stats(r)).value for r in rows.tolist()])[picks]
        valid[sid, :n] = True
    return HypStats(stats, valid, gains)


def corpus_stats(
    hyps: Iterable[str], refs_per_sentence: Iterable[Sequence[str]]
) -> NGramStats:
    """Tokenize and accumulate statistics over a parallel hyp/refs stream."""
    hyps, refs_per_sentence = list(hyps), list(refs_per_sentence)
    _check_coverage(hyps, refs_per_sentence)
    total = NGramStats.zero()
    for hyp, refs in zip(hyps, refs_per_sentence):
        total = total + sentence_stats(
            tokenize_13a(hyp), [tokenize_13a(r) for r in refs]
        )
    return total


def corpus_bleu(stats: NGramStats) -> BleuScore:
    """BLEU from sufficient statistics.

    Precisions are clipped_matches / hyp_ngrams per order; under exp smoothing
    the j-th successive zero-match order gets 1 / (2^j * hyp_ngrams).  Orders
    with hyp_ngrams == 0 are skipped.  All-zero statistics score 0.0 by
    definition.
    """
    if stats.hyp_len == 0:
        return BleuScore(0.0, (0.0, 0.0, 0.0, 0.0), 0.0)
    precisions = [0.0] * NGRAM_ORDER
    log_sum = 0.0
    n_orders = 0
    zero_scale = 1
    for o in range(NGRAM_ORDER):
        total = stats.hyp_ngrams[o]
        if total == 0:
            continue
        n_orders += 1
        correct = stats.clipped_matches[o]
        if correct == 0:
            zero_scale *= 2
            p = 1.0 / (zero_scale * total)
        else:
            p = correct / total
        precisions[o] = p
        log_sum += math.log(p)
    bp = min(1.0, math.exp(1.0 - stats.ref_len / stats.hyp_len))
    value = 100.0 * bp * math.exp(log_sum / n_orders)
    return BleuScore(value, tuple(precisions), bp)


def sentence_bleu(hyp: str, refs: Sequence[str]) -> float:
    """Smoothed BLEU of a single sentence, in [0, 100]."""
    stats = sentence_stats(tokenize_13a(hyp), [tokenize_13a(r) for r in refs])
    return corpus_bleu(stats).value


# ---------------------------------------------------------------------------
# chrF


def _collapse(s: str) -> str:
    return " ".join(s.split())


def _char_ngrams(s: str, order: int):
    return (s[i : i + order] for i in range(len(s) - order + 1))


def _char_ngram_stats(hyp: str, refs: Sequence[str]) -> List[List[Tuple[int, int, int]]]:
    """Per reference, (hyp_total, ref_total, overlap) of each character n-gram
    order 1..6 of the whitespace-collapsed texts."""
    counts = _by_order([_collapse(t) for t in (hyp, *refs)], _char_ngrams, CHRF_CHAR_ORDER)
    totals = counts.sum(axis=2).tolist()
    overlaps = np.minimum(counts[:, :1], counts[:, 1:]).sum(axis=2).tolist()
    return [[(t[0], t[r + 1], v[r]) for t, v in zip(totals, overlaps)] for r in range(len(refs))]


def _chrf_from_stats(stats: Sequence[Tuple[int, int, int]]) -> ChrFScore:
    precision = 0.0
    recall = 0.0
    effective = 0
    for hyp_total, ref_total, overlap in stats:
        if hyp_total > 0 and ref_total > 0:
            precision += overlap / hyp_total
            recall += overlap / ref_total
            effective += 1
    if effective == 0:
        return ChrFScore(0.0)
    precision /= effective
    recall /= effective
    if precision == 0.0 and recall == 0.0:
        return ChrFScore(0.0)
    beta_sq = CHRF_BETA**2
    f = (1 + beta_sq) * precision * recall / (beta_sq * precision + recall)
    return ChrFScore(100.0 * f)


def _best_ref_chrf_stats(hyp: str, refs: Sequence[str]) -> List[Tuple[int, int, int]]:
    # against multiple references, keep the statistics of the best-scoring one
    if not refs:
        raise ValueError("at least one reference required")
    # max keeps the first of equally scoring references
    return max(_char_ngram_stats(hyp, refs), key=lambda stats: _chrf_from_stats(stats).value)


def sentence_chrf(hyp: str, refs: Sequence[str]) -> ChrFScore:
    """chrF of one hypothesis against one or more references."""
    return _chrf_from_stats(_best_ref_chrf_stats(hyp, refs))


def corpus_chrf(pairs: Iterable[Tuple[str, Sequence[str]]]) -> ChrFScore:
    """Corpus chrF: n-gram statistics are aggregated before the F computation."""
    agg = np.zeros((CHRF_CHAR_ORDER, 3), dtype=np.int64)
    for hyp, refs in pairs:
        agg += _best_ref_chrf_stats(hyp, refs)
    return _chrf_from_stats(agg.tolist())
