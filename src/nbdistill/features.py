"""Per-hypothesis feature matrix assembly.

A feature matrix holds, for every sentence, an (n_hypotheses x M) array of
real-valued model scores, column-indexed by feature name.  Columns come from
three places, in this order: passthroughs of the scores already present in
the n-best file, natively computed features (consensus utilities and length
ballast), and external score tables produced out of process.  Assembly checks
every input before it computes any feature, then builds each list's block.

Native features:

* ``mbr_bleu`` / ``mbr_chrf`` -- consensus utility of each hypothesis: the
  mean sentence BLEU / chrF of the hypothesis scored against every *other*
  member of the same n-best list (uniform weights, self-pair excluded; a
  single-member list scores against itself, i.e. 100).  Duplicates stay in
  the list and legitimately concentrate consensus mass.
* ``len`` -- 13a token count of the hypothesis.
* ``len_ratio`` -- token count divided by the mean token count of the list.

On-disk format is a plain TSV: a ``#features`` header naming the columns,
then one ``SID<TAB>RANK<TAB>V1..VM`` row per hypothesis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Sequence, TextIO, Tuple

import numpy as np

from .corpus import ExternalScoreTable, FormatError, NBestCorpus, _sentence_list, read_fields
from .metrics import (
    CHRF_CHAR_ORDER,
    NGRAM_ORDER,
    NGramStats,
    _char_ngrams,
    _chrf_from_stats,
    _collapse,
    _ngram_counts,
    _ngrams,
    corpus_bleu,
    tokenize_many,
)

NATIVE_FEATURES = ("mbr_bleu", "mbr_chrf", "len", "len_ratio")
MBR_UTILITIES = {"mbr_bleu": "sentence_bleu", "mbr_chrf": "sentence_chrf"}


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Immutable per-sentence score arrays with a canonical column order."""

    feature_names: Tuple[str, ...]
    values: Tuple[np.ndarray, ...]

    def __post_init__(self):
        for arr in self.values:
            arr.flags.writeable = False

    @property
    def num_sentences(self) -> int:
        return len(self.values)

    @property
    def num_features(self) -> int:
        return len(self.feature_names)

    def best_rows(self, w: np.ndarray) -> Tuple[int, ...]:
        """Per list, the index of the first row with the highest ``rows @ w``."""
        return tuple(int((rows @ w).argmax()) for rows in self.values)

    def validate_against(self, corpus: NBestCorpus) -> None:
        if self.num_sentences != corpus.num_sentences:
            raise ValueError(
                f"matrix has {self.num_sentences} sentences, corpus has "
                f"{corpus.num_sentences}"
            )
        for sid, (arr, texts) in enumerate(zip(self.values, corpus.texts)):
            if len(arr) != len(texts):
                raise ValueError(
                    f"sentence {sid}: matrix has {len(arr)} rows, corpus has "
                    f"{len(texts)} hypotheses"
                )


def _pairwise_overlaps(
    texts: Sequence, grams_of: Callable, orders: int
) -> List[List[List[int]]]:
    """Multiset intersection sizes of every pair of texts, per n-gram order.

    ``out[i][j][o]`` is the number of the order ``o + 1`` n-grams
    (``grams_of(text, o + 1)``) that texts ``i`` and ``j`` share, with
    multiplicity, so ``out[i][i][o]`` counts all of text ``i``'s.  One
    ``metrics._ngram_counts`` matrix per order gives a whole row of pairs per
    vectorised min-and-sum, and integer sums are exact.
    """
    n = len(texts)
    out = np.zeros((n, n, orders), dtype=np.int64)
    for o in range(orders):
        counts = _ngram_counts(grams_of(t, o + 1) for t in texts)
        for i, row in enumerate(counts):
            out[i, :, o] = np.minimum(row, counts).sum(axis=1)
    return out.tolist()


def mbr_utility(texts: Sequence[str], utility: str = "sentence_bleu") -> List[float]:
    """Consensus utility of each hypothesis against the rest of its list.

    Equal, bit for bit, to averaging ``sentence_bleu``/``sentence_chrf`` of
    each hypothesis against every other list member in ascending order: the
    symmetric n-gram overlaps are counted once per list, and the float score
    of every ordered pair is still computed from its own statistics.
    """
    if not texts:
        raise ValueError("empty hypothesis list")
    n = len(texts)
    if utility == "sentence_bleu":
        toks = tokenize_many(texts)
        lens = [len(t) for t in toks]
        overlaps = _pairwise_overlaps(toks, _ngrams, NGRAM_ORDER)

        def pair(i: int, j: int) -> float:
            stats = NGramStats(tuple(overlaps[i][j]), tuple(overlaps[i][i]), lens[i], lens[j])
            return corpus_bleu(stats).value

    elif utility == "sentence_chrf":
        chars = [_collapse(t) for t in texts]
        overlaps = _pairwise_overlaps(chars, _char_ngrams, CHRF_CHAR_ORDER)

        def pair(i: int, j: int) -> float:
            stats = list(zip(overlaps[i][i], overlaps[j][j], overlaps[i][j]))
            return _chrf_from_stats(stats).value

    else:
        raise ValueError(f"unknown MBR utility {utility!r}")
    if n == 1:
        return [pair(0, 0)]
    return [
        sum(pair(i, j) for j in range(n) if j != i) / (n - 1) for i in range(n)
    ]


def length_features(texts: Sequence[str]) -> Tuple[List[float], List[float]]:
    """13a token counts and their ratio to the list's mean count."""
    if not texts:
        raise ValueError("empty hypothesis list")
    distinct = list(dict.fromkeys(texts))
    lengths = {t: float(len(toks)) for t, toks in zip(distinct, tokenize_many(distinct))}
    counts = [lengths[t] for t in texts]
    mean = sum(counts) / len(counts)
    ratios = [c / mean if mean > 0 else 1.0 for c in counts]
    return counts, ratios


def passthrough_features(
    corpus: NBestCorpus, names: Sequence[str]
) -> List[Tuple[str, List[List[float]]]]:
    """Columns of scores the n-best file already carries, in requested order.

    The reserved name ``total`` reads the generating model's combined score;
    any other name looks up the per-hypothesis score map.
    """
    columns = []
    for name in names:
        if name == "total":
            columns.append((name, [list(totals) for totals in corpus.totals]))
            continue
        per_sentence: List[List[float]] = []
        for sid, scores in enumerate(corpus.teacher_scores):
            for rank, hyp in enumerate(scores):
                if name not in hyp:
                    raise ValueError(f"score {name!r} missing at sentence {sid} rank {rank}")
            per_sentence.append([hyp[name] for hyp in scores])
        columns.append((name, per_sentence))
    return columns


def assemble_matrix(
    corpus: NBestCorpus,
    passthrough: Sequence[str] = (),
    native: Sequence[str] = (),
    external_tables: Sequence[ExternalScoreTable] = (),
) -> FeatureMatrix:
    """Fan all configured feature sources into one validated matrix.

    Column order is: passthrough names, native features, external tables,
    each in the order given.  Before any feature is computed, names must be
    unique, every external table must cover exactly the corpus's (sentence,
    rank) set, and every passthrough and external value must be finite.
    """
    names = (*passthrough, *native, *(table.feature_name for table in external_tables))
    if not names:
        raise ValueError("zero features configured")
    for feature in native:
        if feature not in NATIVE_FEATURES:
            raise ValueError(f"unknown native feature {feature!r}")
    seen = set()
    for name in names:
        if name in seen:
            raise ValueError(f"duplicate feature name {name!r}")
        seen.add(name)
    for table in external_tables:
        table.validate_against(corpus)
    passed = [col for _, col in passthrough_features(corpus, passthrough)]
    given = []  # each list's passthrough rows, then its external rows
    for sid, texts in enumerate(corpus.texts):
        rows = [col[sid] for col in passed] + [
            [t.scores[(sid, rank)] for rank in range(len(texts))] for t in external_tables
        ]
        if not np.isfinite(rows).all():
            raise ValueError(f"non-finite feature value at sentence {sid}")
        given.append(rows)

    p = len(passed)
    values = []
    for rows, texts in zip(given, corpus.texts):
        computed: Dict[str, List[float]] = {}
        for name in native:
            if name in MBR_UTILITIES:
                computed[name] = mbr_utility(texts, MBR_UTILITIES[name])
            elif name not in computed:
                computed["len"], computed["len_ratio"] = length_features(texts)
        values.append(np.column_stack(rows[:p] + [computed[name] for name in native] + rows[p:]))
    return FeatureMatrix(names, tuple(values))


def write_matrix(matrix: FeatureMatrix, out: TextIO) -> None:
    out.write("#features\t" + "\t".join(matrix.feature_names) + "\n")
    for sid, arr in enumerate(matrix.values):
        for rank in range(len(arr)):
            row = "\t".join(repr(float(v)) for v in arr[rank])
            out.write(f"{sid}\t{rank}\t{row}\n")


def load_matrix(stream: Iterable[str]) -> FeatureMatrix:
    """Read a matrix TSV back; the exact dual of write_matrix."""
    lines = iter(stream)
    _, header = next(read_fields(lines, "\t"), (None, None))
    if header is None:
        raise FormatError("empty matrix file")
    if header[0] != "#features" or len(header) < 2:
        raise FormatError("matrix file must start with a '#features' header", 1)
    names = tuple(header[1:])
    if len(set(names)) != len(names):
        raise FormatError("duplicate feature name in header", 1)
    rows: List[List[List[float]]] = []
    for lineno, fields in read_fields(lines, "\t", 2 + len(names), start=2):
        try:
            sid = int(fields[0])
            rank = int(fields[1])
            vals = [float(v) for v in fields[2:]]
        except ValueError:
            raise FormatError("unparseable matrix row", lineno) from None
        if not all(map(math.isfinite, vals)):
            raise FormatError("non-finite feature value", lineno)
        hyps = _sentence_list(rows, sid, lineno)
        if rank != len(hyps):
            raise FormatError(f"rank {rank} out of order (expected {len(hyps)})", lineno)
        hyps.append(vals)
    if not rows:
        raise FormatError("matrix has no rows")
    return FeatureMatrix(names, tuple(np.array(sent, dtype=np.float64) for sent in rows))
