"""Corpus and sentence BLEU/chrF with 13a tokenization.

BLEU here matches the standard shareable-score convention: 13a tokenization,
up to 4-gram precision clipped against the maximum reference count, closest
reference length for the brevity penalty (ties resolve to the shorter
reference), and exponential smoothing for zero-match orders.  Orders for which
the hypothesis has no n-grams at all (hyp_len < order) are excluded from the
geometric mean, so an exact match scores 100.0 at any length.

chrF uses character n-grams of orders 1-6 over the string with whitespace
runs collapsed to single spaces, F-score with beta=2, no word n-grams.

All functions are pure, and every score (``corpus_bleu``, ``HypStats.bleu``,
``sentence_bleu``, ``sentence_chrf``, ``corpus_chrf``) is a Python float, never
a numpy scalar, so its ``repr`` is a plain number.  ``hyp_stats`` tabulates the
statistics of every n-best hypothesis once, so corpus BLEU of any selection is
an integer sum over that table; ``corpus_stats`` is the sum over the table of a
one-best stream.  ``tokenize_many`` runs each 13a rule once over a whole group
of texts, and ``tokenize_13a`` is its one-text case.

BLEU statistics have one form, a row of 10 integers: clipped matches of
orders 1-4, n-gram counts of orders 1-4, hyp_len, ref_len.  ``corpus_bleu``
takes such a row, ``sentence_stats`` and ``corpus_stats`` return one as a
tuple of ints, and ``HypStats.stats`` holds one per hypothesis.

Only ``_ngram_ids`` gives n-grams ids, for token and character sequences
alike.  BLEU clipping (``_block_stats``, behind ``hyp_stats`` and
``sentence_stats``) sorts them; ``_overlaps`` counts them per order, and chrF
(through ``_chrf_stats``) and the pair scores are min-and-sums over its
counts.  ``PAIR_SCORES`` holds the pair scorers of the MBR features of
``features``: from a list's texts, the sentence BLEU or chrF of text i
against text j, equal bit for bit to ``sentence_bleu``/``sentence_chrf``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Callable, Iterable, List, Sequence, Tuple

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
# Sentences per block of ``hyp_stats``.  A block's n-gram keys are sorted
# together, so the block size bounds their memory: about 70 kB per sentence
# of 16 hypotheses and 2 references.  Blocks of 32 to 256 ran equally fast.
_BLOCK_SENTENCES = 64


def _normalize(text: str) -> str:
    norm = text.replace("<skipped>", "")
    norm = norm.replace("-\n", "")
    norm = norm.replace("\n", " ")
    if "&" in norm:
        norm = norm.replace("&quot;", '"')
        norm = norm.replace("&amp;", "&")
        norm = norm.replace("&lt;", "<")
        norm = norm.replace("&gt;", ">")
    return norm


def tokenize_many(texts: Iterable[str]) -> List[List[str]]:
    """Tokenize each text with the 13a rule set, one substitution per rule
    for all of them.

    Each text is normalised on its own, which removes its newlines, and
    padded with a space on each side; the padded texts are joined with
    newlines.  No rule matches a newline next to a space, so no match crosses
    from one text into the next, and each text gets exactly its own tokens.
    """
    padded = [f" {_normalize(t)} " for t in texts]
    if not padded:
        return []
    joined = "\n".join(padded)
    for pattern, repl in _13A_RULES:
        joined = pattern.sub(repl, joined)
    return [line.split() for line in joined.split("\n")]


def tokenize_13a(text: str) -> List[str]:
    """Tokenize one segment with the 13a rule set; empty input gives []."""
    return tokenize_many([text])[0]


def _ngram_ids(texts: Sequence[Sequence], orders: int) -> Tuple[np.ndarray, np.ndarray, List[int]]:
    """The text index and int64 id of every n-gram occurrence of orders
    1..``orders`` in ``texts`` (sequences of hashable tokens, or strings), and
    the per-order offsets: order k has the ids ``offsets[k-1]`` to ``offsets[k] - 1``.

    An order-1 id is the token's rank of first appearance; an order-k id is
    the rank of (id of its first k-1 tokens) * V + id of its last token among
    the keys of order k, so equal n-grams, and only they, share an id.
    """
    lens = np.array([len(t) for t in texts], dtype=np.int64)
    ids = {tok: i for i, tok in enumerate(dict.fromkeys(chain.from_iterable(texts)))}
    v = len(ids)
    tokens = np.fromiter(map(ids.__getitem__, chain.from_iterable(texts)), np.int64, lens.sum())
    owner = np.repeat(np.arange(len(texts), dtype=np.int64), lens)
    # the number of tokens after each one in its text: a k-gram starts where
    # at least k - 1 follow
    after = np.repeat(np.cumsum(lens), lens) - np.arange(len(tokens)) - 1
    prefix = tokens  # at each position, the id of the k-gram starting there
    owners, grams, offsets = [owner], [tokens], [0, v]
    for k in range(1, orders):
        assert (offsets[-1] - offsets[-2]) * v < 2**63, "n-gram key overflows int64"
        start = np.flatnonzero(after >= k)
        keys, local = np.unique(prefix[start] * v + tokens[start + k], return_inverse=True)
        prefix = np.zeros_like(tokens)
        prefix[start] = local
        owners.append(owner[start])
        grams.append(local + offsets[-1])
        offsets.append(offsets[-1] + len(keys))
    return np.concatenate(owners), np.concatenate(grams), offsets


def _overlaps(texts: Sequence[Sequence], orders: int) -> List[List[List[int]]]:
    """Multiset intersection sizes of every pair of texts, per n-gram order.

    ``out[i][j][o]`` is the number of the order ``o + 1`` n-grams that texts
    ``i`` and ``j`` share, with multiplicity, so ``out[i][i][o]`` counts all
    of text ``i``'s.  One (texts x ids) count matrix per order gives a whole
    row of pairs per vectorised min-and-sum, and integer sums are exact.
    """
    n = len(texts)
    text, gram, offsets = _ngram_ids(texts, orders)
    out = np.zeros((n, n, orders), dtype=np.int64)
    for o in range(orders):
        lo, v = offsets[o], offsets[o + 1] - offsets[o]
        keep = (gram >= lo) & (gram < lo + v)
        counts = np.bincount(text[keep] * v + gram[keep] - lo, minlength=n * v).reshape(n, v)
        for i, row in enumerate(counts):
            out[i, :, o] = np.minimum(row, counts).sum(axis=1)
    return out.tolist()


def _block_stats(
    lists: Sequence[Sequence[Sequence[str]]], refs_per_sentence: Sequence[Sequence[Sequence[str]]]
) -> np.ndarray:
    """(H, 10) int64 BLEU statistics of the H token lists of ``lists``, in
    order, each against the references of its sentence: clipped matches and
    n-gram counts of orders 1-4, hyp_len and ref_len, the ``HypStats.stats``
    row layout.  A hypothesis n-gram count is clipped by the maximum count of
    that n-gram over the references of its sentence.

    The n-gram ids come from ``_ngram_ids``.  One sort of the (text, n-gram)
    pairs counts them and one more takes each sentence's reference maxima.
    """
    if not all(refs_per_sentence):
        raise ValueError("at least one reference required")
    texts = [*chain.from_iterable(lists), *chain.from_iterable(refs_per_sentence)]
    n = sum(map(len, lists))
    # the sentence of each text: the hypotheses, then the references
    sentence = np.repeat(np.tile(np.arange(len(lists)), 2),
                         [*map(len, lists), *map(len, refs_per_sentence)])
    lens = np.array([len(t) for t in texts], dtype=np.int64)
    owners, grams, offsets = _ngram_ids(texts, NGRAM_ORDER)
    total = max(offsets[-1], 1)
    assert len(texts) * total < 2**63, "(text, n-gram) key overflows int64"
    pairs, counts = np.unique(owners * total + grams, return_counts=True)
    text, gram = np.divmod(pairs, total)
    key = sentence[text] * total + gram  # (sentence, n-gram) of each pair
    split = np.searchsorted(text, n)  # the hypotheses' pairs come first
    by_key = np.lexsort((counts[split:], key[split:]))
    ref_key, ref_count = key[split:][by_key], counts[split:][by_key]
    last = ref_key != np.append(ref_key[1:], -1)  # the last pair of each key
    # a key above every pair's ends the table, so each lookup lands on an entry
    table_key = np.append(ref_key[last], len(lists) * total)
    table_max = np.append(ref_count[last], 0)
    at = np.searchsorted(table_key, key[:split])
    ref_max = np.where(table_key[at] == key[:split], table_max[at], 0)
    clipped = np.minimum(counts[:split], ref_max)
    order = np.searchsorted(offsets, gram[:split], side="right") - 1
    out = np.empty((n, 10), dtype=np.int64)
    # float sums of integers far below 2**53 are exact
    out[:, 0:4] = np.bincount(
        text[:split] * NGRAM_ORDER + order, weights=clipped, minlength=n * NGRAM_ORDER
    ).reshape(n, NGRAM_ORDER)
    out[:, 4:8] = np.maximum(lens[:n, None] - np.arange(NGRAM_ORDER), 0)
    out[:, 8] = lens[:n]
    # ascending and padded with a length no hypothesis is near, so argmin
    # keeps the shorter of two equally close reference lengths
    ref_lens = [sorted(map(len, refs)) for refs in refs_per_sentence]
    width, far = max(map(len, ref_lens)), np.iinfo(np.int64).max
    padded = np.array([r + [far] * (width - len(r)) for r in ref_lens], dtype=np.int64)
    closest = padded[sentence[:n]]
    out[:, 9] = closest[np.arange(n), np.abs(closest - lens[:n, None]).argmin(axis=1)]
    return out


def sentence_stats(
    hyp_tokens: Sequence[str], refs_tokens: Sequence[Sequence[str]]
) -> Tuple[int, ...]:
    """The BLEU statistics row of one hypothesis against one or more references.

    Each hypothesis n-gram count is clipped by the maximum count of that
    n-gram across all references.  ref_len is the reference length closest
    to the hypothesis length; ties resolve to the shorter reference.
    """
    return tuple(_block_stats([[hyp_tokens]], [refs_tokens])[0].tolist())


@dataclass(frozen=True, eq=False)
class HypStats:
    """BLEU statistics of every hypothesis of an n-best corpus.

    ``stats[s, t]`` holds the statistics row of hypothesis ``t`` of sentence
    ``s``, exactly as ``sentence_stats`` gives it, and ``gains[s, t]`` its
    smoothed sentence BLEU, computed on first use.  Lists are padded to the
    longest one; ``valid`` is False on padding, which holds zeros and scores
    0.0.
    """

    stats: np.ndarray  # (S, N_max, 10) int64
    valid: np.ndarray  # (S, N_max) bool

    @cached_property
    def gains(self) -> np.ndarray:
        """(S, N_max) float64, scoring each distinct row of ``stats`` once."""
        rows = list(map(tuple, self.stats.reshape(-1, 10).tolist()))
        score = {row: corpus_bleu(row) for row in dict.fromkeys(rows)}
        return np.array([score[row] for row in rows], dtype=np.float64).reshape(self.valid.shape)

    def bleu(self, picks: Sequence[int]) -> float:
        """Corpus BLEU of the selection holding hypothesis ``picks[s]`` of
        each sentence ``s``; integer sums are exact in any order."""
        total = self.stats[np.arange(len(self.stats)), picks].sum(axis=0).tolist()
        return corpus_bleu(total)


def hyp_stats(
    lists: Sequence[Sequence[str]], refs_per_sentence: Sequence[Sequence[str]]
) -> HypStats:
    """Tabulate every hypothesis text of every list against its references.

    Sentences go in blocks of ``_BLOCK_SENTENCES``: the distinct texts of a
    block are tokenized together, and each distinct text of a list is counted
    and clipped once.
    """
    covered, sentences = len(refs_per_sentence), len(lists)
    if covered != sentences:
        raise ValueError(f"references cover {covered} sentences, corpus has {sentences}")
    lengths = np.array([len(texts) for texts in lists], dtype=np.int64)
    n_max = int(lengths.max(initial=0))
    stats = np.zeros((len(lists), n_max, 10), dtype=np.int64)
    valid = np.arange(n_max) < lengths[:, None]
    for first in range(0, len(lists), _BLOCK_SENTENCES):
        block = slice(first, first + _BLOCK_SENTENCES)
        distinct = [dict.fromkeys(texts) for texts in lists[block]]
        refs = refs_per_sentence[block]
        unique = list(dict.fromkeys(chain(*distinct, *refs)))
        tokens = dict(zip(unique, tokenize_many(unique)))
        rows = _block_stats(
            [[tokens[t] for t in texts] for texts in distinct],
            [[tokens[r] for r in sent] for sent in refs],
        )
        picks, base = [], 0
        for texts, unique_texts in zip(lists[block], distinct):
            index = {t: base + k for k, t in enumerate(unique_texts)}
            picks.extend(index[t] for t in texts)
            base += len(index)
        stats[block][valid[block]] = rows[picks]
    return HypStats(stats, valid)


def corpus_stats(
    hyps: Iterable[str], refs_per_sentence: Iterable[Sequence[str]]
) -> Tuple[int, ...]:
    """Statistics row of a parallel hyp/refs stream: the column sum of its
    ``hyp_stats`` table, one single-hypothesis list per sentence."""
    table = hyp_stats([[h] for h in hyps], list(refs_per_sentence))
    return tuple(table.stats.sum(axis=(0, 1)).tolist())


def corpus_bleu(stats: Sequence[int]) -> float:
    """BLEU from a statistics row.

    Precisions are clipped matches / n-gram counts per order; under exp
    smoothing the j-th successive zero-match order gets 1 / (2^j * count).
    Orders without hypothesis n-grams are skipped.  All-zero statistics score
    0.0 by definition.
    """
    clipped, totals, hyp_len, ref_len = stats[0:4], stats[4:8], stats[8], stats[9]
    if hyp_len == 0:
        return 0.0
    log_sum = 0.0
    n_orders = 0
    zero_scale = 1
    for total, correct in zip(totals, clipped):
        if total == 0:
            continue
        n_orders += 1
        if correct == 0:
            zero_scale *= 2
            p = 1.0 / (zero_scale * total)
        else:
            p = correct / total
        log_sum += math.log(p)
    bp = min(1.0, math.exp(1.0 - ref_len / hyp_len))
    return 100.0 * bp * math.exp(log_sum / n_orders)


def sentence_bleu(hyp: str, refs: Sequence[str]) -> float:
    """Smoothed BLEU of a single sentence, in [0, 100]."""
    stats = sentence_stats(tokenize_13a(hyp), [tokenize_13a(r) for r in refs])
    return corpus_bleu(stats)


# ---------------------------------------------------------------------------
# chrF


def _collapse(s: str) -> str:
    return " ".join(s.split())


def _chrf_stats(texts: Sequence[str]) -> Callable[[int, int], List[Tuple[int, int, int]]]:
    """The chrF statistics of text i against text j of ``texts``: (i's
    n-grams, j's n-grams, shared) of each character n-gram order 1..6 of the
    whitespace-collapsed texts."""
    pairs = _overlaps([_collapse(t) for t in texts], CHRF_CHAR_ORDER)
    return lambda i, j: list(zip(pairs[i][i], pairs[j][j], pairs[i][j]))


def _chrf_from_stats(stats: Sequence[Tuple[int, int, int]]) -> float:
    precision = 0.0
    recall = 0.0
    effective = 0
    for hyp_total, ref_total, overlap in stats:
        if hyp_total > 0 and ref_total > 0:
            precision += overlap / hyp_total
            recall += overlap / ref_total
            effective += 1
    if effective == 0:
        return 0.0
    precision /= effective
    recall /= effective
    if precision == 0.0 and recall == 0.0:
        return 0.0
    beta_sq = CHRF_BETA**2
    f = (1 + beta_sq) * precision * recall / (beta_sq * precision + recall)
    return 100.0 * f


def _best_ref_chrf_stats(hyp: str, refs: Sequence[str]) -> List[Tuple[int, int, int]]:
    # against multiple references, keep the statistics of the best-scoring one
    if not refs:
        raise ValueError("at least one reference required")
    stats = _chrf_stats([hyp, *refs])
    # max keeps the first of equally scoring references
    return max((stats(0, r) for r in range(1, len(refs) + 1)), key=_chrf_from_stats)


def sentence_chrf(hyp: str, refs: Sequence[str]) -> float:
    """chrF of one hypothesis against one or more references."""
    return _chrf_from_stats(_best_ref_chrf_stats(hyp, refs))


def corpus_chrf(pairs: Iterable[Tuple[str, Sequence[str]]]) -> float:
    """Corpus chrF: n-gram statistics are aggregated before the F computation."""
    agg = np.zeros((CHRF_CHAR_ORDER, 3), dtype=np.int64)
    for hyp, refs in pairs:
        agg += _best_ref_chrf_stats(hyp, refs)
    return _chrf_from_stats(agg.tolist())


# ---------------------------------------------------------------------------
# MBR pair scores


def _bleu_pairs(texts: Sequence[str]) -> Callable[[int, int], float]:
    toks = tokenize_many(texts)
    overlaps = _overlaps(toks, NGRAM_ORDER)
    return lambda i, j: corpus_bleu(
        (*overlaps[i][j], *overlaps[i][i], len(toks[i]), len(toks[j])))


def _chrf_pairs(texts: Sequence[str]) -> Callable[[int, int], float]:
    stats = _chrf_stats(texts)
    return lambda i, j: _chrf_from_stats(stats(i, j))


# Per sentence-level metric, from a list's texts, the score of text i against
# text j: ``PAIR_SCORES[name](texts)(i, j)`` equals ``name(texts[i],
# [texts[j]])`` bit for bit, and the n-gram overlaps of the list are counted once.
PAIR_SCORES = {"sentence_bleu": _bleu_pairs, "sentence_chrf": _chrf_pairs}
