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
reduction over per-sentence NGramStats.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from itertools import zip_longest
from typing import Iterable, List, Sequence, Tuple

NGRAM_ORDER = 4
CHRF_CHAR_ORDER = 6
CHRF_BETA = 2.0

# The 13a rule set: split punctuation and symbols from adjacent non-digits,
# keep digit-internal '.'/',' attached, split dashes after digits.
_13A_RULES = (
    (re.compile(r"([\{-\~\[-\` -\&\(-\+\:-\@\/])"), r" \1 "),
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
    beta: float = CHRF_BETA
    char_order: int = CHRF_CHAR_ORDER


def _ngrams(tokens: Sequence[str], order: int):
    return zip(*(tokens[i:] for i in range(order)))


def sentence_stats(
    hyp_tokens: Sequence[str], refs_tokens: Sequence[Sequence[str]]
) -> NGramStats:
    """N-gram statistics of one hypothesis against one or more references.

    Each hypothesis n-gram count is clipped by the maximum count of that
    n-gram across all references.  ref_len is the reference length closest
    to the hypothesis length; ties resolve to the shorter reference.
    """
    if not refs_tokens:
        raise ValueError("at least one reference required")
    hyp_len = len(hyp_tokens)
    ref_len = min((len(r) for r in refs_tokens), key=lambda rl: (abs(rl - hyp_len), rl))
    clipped = [0] * NGRAM_ORDER
    totals = [0] * NGRAM_ORDER
    for order in range(1, NGRAM_ORDER + 1):
        totals[order - 1] = max(0, hyp_len - order + 1)
        if totals[order - 1] == 0:
            continue
        hyp_counts = Counter(_ngrams(hyp_tokens, order))
        max_ref: Counter = Counter()
        for ref in refs_tokens:
            for gram, count in Counter(_ngrams(ref, order)).items():
                if count > max_ref[gram]:
                    max_ref[gram] = count
        clipped[order - 1] = sum(
            min(count, max_ref[gram]) for gram, count in hyp_counts.items()
        )
    return NGramStats(tuple(clipped), tuple(totals), hyp_len, ref_len)


def corpus_stats(
    hyps: Iterable[str], refs_per_sentence: Iterable[Sequence[str]]
) -> NGramStats:
    """Tokenize and accumulate statistics over a parallel hyp/refs stream."""
    total = NGramStats.zero()
    sentinel = object()
    for hyp, refs in zip_longest(hyps, refs_per_sentence, fillvalue=sentinel):
        if hyp is sentinel or refs is sentinel:
            raise ValueError("hypothesis and reference streams have different lengths")
        total = total + sentence_stats(
            tokenize_13a(hyp), [tokenize_13a(r) for r in refs]
        )
    return total


def corpus_bleu(stats: NGramStats, smoothing: str = "exp") -> BleuScore:
    """BLEU from sufficient statistics.

    Precisions are clipped_matches / hyp_ngrams per order.  Under ``exp``
    smoothing the j-th successive zero-match order gets 1 / (2^j * hyp_ngrams);
    under ``none`` any zero-match order zeroes the score.  Orders with
    hyp_ngrams == 0 are skipped.  All-zero statistics score 0.0 by definition.
    """
    if smoothing not in ("exp", "none"):
        raise ValueError(f"unknown smoothing {smoothing!r}")
    if stats.hyp_len == 0:
        return BleuScore(0.0, (0.0, 0.0, 0.0, 0.0), 0.0)
    precisions = [0.0] * NGRAM_ORDER
    log_sum = 0.0
    n_orders = 0
    zero_scale = 1
    positive = True
    for o in range(NGRAM_ORDER):
        total = stats.hyp_ngrams[o]
        if total == 0:
            continue
        n_orders += 1
        correct = stats.clipped_matches[o]
        if correct == 0:
            if smoothing == "exp":
                zero_scale *= 2
                p = 1.0 / (zero_scale * total)
            else:
                p = 0.0
        else:
            p = correct / total
        precisions[o] = p
        if p > 0.0:
            log_sum += math.log(p)
        else:
            positive = False
    bp = min(1.0, math.exp(1.0 - stats.ref_len / stats.hyp_len))
    value = 100.0 * bp * math.exp(log_sum / n_orders) if positive else 0.0
    return BleuScore(value, tuple(precisions), bp)


def sentence_bleu(hyp: str, refs: Sequence[str], smoothing: str = "exp") -> float:
    """Smoothed BLEU of a single sentence, in [0, 100]."""
    stats = sentence_stats(tokenize_13a(hyp), [tokenize_13a(r) for r in refs])
    return corpus_bleu(stats, smoothing).value


# ---------------------------------------------------------------------------
# chrF


def _collapse(s: str) -> str:
    return " ".join(s.split())


def _char_ngrams(s: str, order: int):
    return (s[i : i + order] for i in range(len(s) - order + 1))


def _char_ngram_stats(hyp: str, ref: str) -> List[Tuple[int, int, int]]:
    """(hyp_total, ref_total, overlap) per character n-gram order 1..6."""
    out = []
    for order in range(1, CHRF_CHAR_ORDER + 1):
        hyp_counts = Counter(_char_ngrams(hyp, order))
        ref_counts = Counter(_char_ngrams(ref, order))
        overlap = sum((hyp_counts & ref_counts).values())
        out.append((sum(hyp_counts.values()), sum(ref_counts.values()), overlap))
    return out


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
    h = _collapse(hyp)
    best_stats = None
    best_value = -1.0
    for ref in refs:
        stats = _char_ngram_stats(h, _collapse(ref))
        value = _chrf_from_stats(stats).value
        if value > best_value:
            best_value = value
            best_stats = stats
    return best_stats


def sentence_chrf(hyp: str, refs: Sequence[str]) -> ChrFScore:
    """chrF of one hypothesis against one or more references."""
    return _chrf_from_stats(_best_ref_chrf_stats(hyp, refs))


def corpus_chrf(pairs: Iterable[Tuple[str, Sequence[str]]]) -> ChrFScore:
    """Corpus chrF: n-gram statistics are aggregated before the F computation."""
    agg = [(0, 0, 0)] * CHRF_CHAR_ORDER
    for hyp, refs in pairs:
        stats = _best_ref_chrf_stats(hyp, refs)
        agg = [
            (a[0] + s[0], a[1] + s[1], a[2] + s[2]) for a, s in zip(agg, stats)
        ]
    return _chrf_from_stats(agg)
