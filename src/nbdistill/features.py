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
  the list and legitimately concentrate consensus mass.  The pair scores
  come from ``metrics.PAIR_SCORES``.
* ``len`` -- 13a token count of the hypothesis.
* ``len_ratio`` -- token count divided by the mean token count of the list.

On-disk format is a plain TSV: a ``#features`` header naming the columns,
then one ``SID<TAB>RANK<TAB>V1..VM`` row per hypothesis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, TextIO, Tuple

import numpy as np

from .corpus import FormatError, NBestCorpus, _sentence_list, known, read_fields
from .metrics import PAIR_SCORES, tokenize_many

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

    def best_rows(self, w: np.ndarray) -> Tuple[int, ...]:
        """Per list, the index of the first row with the highest ``rows @ w``."""
        return tuple(int((rows @ w).argmax()) for rows in self.values)

    def validate_against(self, corpus: NBestCorpus) -> None:
        if len(self.values) != corpus.num_sentences:
            raise ValueError(
                f"matrix has {len(self.values)} sentences, corpus has "
                f"{corpus.num_sentences}"
            )
        for sid, (arr, texts) in enumerate(zip(self.values, corpus.texts)):
            if len(arr) != len(texts):
                raise ValueError(
                    f"sentence {sid}: matrix has {len(arr)} rows, corpus has "
                    f"{len(texts)} hypotheses"
                )


def mbr_utility(texts: Sequence[str], utility: str = "sentence_bleu") -> List[float]:
    """Consensus utility of each hypothesis against the rest of its list.

    Equal, bit for bit, to averaging ``sentence_bleu``/``sentence_chrf`` of
    each hypothesis against every other list member in ascending order, each
    pair scored by ``metrics.PAIR_SCORES``.  The scores are added left to
    right: ``sum`` of floats compensates from Python 3.12 on.
    """
    if not texts:
        raise ValueError("empty hypothesis list")
    n = len(texts)
    pair = PAIR_SCORES[known(utility, PAIR_SCORES, "MBR utility")](texts)
    if n == 1:
        return [pair(0, 0)]
    utilities = []
    for i in range(n):
        total = 0.0
        for j in range(n):
            if j != i:
                total += pair(i, j)
        utilities.append(total / (n - 1))
    return utilities


def length_features(texts: Sequence[str]) -> Tuple[List[float], List[float]]:
    """13a token counts and their ratio to the list's mean count."""
    if not texts:
        raise ValueError("empty hypothesis list")
    distinct = list(dict.fromkeys(texts))
    lengths = {t: len(toks) for t, toks in zip(distinct, tokenize_many(distinct))}
    counts = [lengths[t] for t in texts]
    mean = sum(counts) / len(counts)  # an integer sum: exact in any order
    ratios = [c / mean if mean > 0 else 1.0 for c in counts]
    return [float(c) for c in counts], ratios


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
    external: Sequence[Tuple[str, Dict[Tuple[int, int], float]]] = (),
) -> FeatureMatrix:
    """Fan all configured feature sources into one validated matrix.

    ``external`` holds the external score tables as (feature name,
    ``{(sid, rank): score}``) pairs.  Column order is: passthrough names,
    native features, external tables, each in the order given.  Before any
    feature is computed, names must be unique, every external table must
    cover exactly the corpus's (sentence, rank) set, and every passthrough
    and external value must be finite.
    """
    names = (*passthrough, *native, *(name for name, _ in external))
    if not names:
        raise ValueError("zero features configured")
    for feature in native:
        known(feature, NATIVE_FEATURES, "native feature")
    seen = set()
    for name in names:
        if name in seen:
            raise ValueError(f"duplicate feature name {name!r}")
        seen.add(name)
    keys = {(sid, rank) for sid, texts in enumerate(corpus.texts) for rank in range(len(texts))}
    for name, scores in external:
        missing, extra = sorted(keys - scores.keys()), sorted(scores.keys() - keys)
        if missing or extra:
            parts = [what + " " + ", ".join(f"({s},{r})" for s, r in pairs[:5])
                     for what, pairs in (("missing", missing), ("extra", extra)) if pairs]
            raise ValueError(f"score table {name!r} does not match corpus: " + "; ".join(parts))
    passed = [col for _, col in passthrough_features(corpus, passthrough)]
    given = []  # each list's passthrough rows, then its external rows
    for sid, texts in enumerate(corpus.texts):
        rows = [col[sid] for col in passed] + [
            [scores[(sid, rank)] for rank in range(len(texts))] for _, scores in external
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
