"""Log-linear reranking, sparse model selection and oracle analysis.

Reranking selects, per sentence, the hypothesis with the highest weighted
feature sum; all ties resolve to the lowest rank so every operation here is
deterministic.  Model selection keeps the k features with the largest
absolute weight (name-lexicographic tie-break).  Oracle selection is greedy
per sentence by smoothed sentence BLEU -- the corpus-level combinatorial
oracle is out of scope -- and the beam sweep reports anti-oracle / top-1 /
oracle corpus BLEU over nested prefix truncations of the n-best lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .corpus import NBestCorpus, known
from .features import FeatureMatrix
from .metrics import HypStats, corpus_bleu, corpus_stats, hyp_stats
from .mira import WeightVector

ORACLE_MODES = ("oracle", "anti_oracle")


@dataclass(frozen=True)
class RerankResult:
    """Per-sentence selected ranks/texts; index is the sentence id."""

    selections: Tuple[int, ...]
    selected_texts: Tuple[str, ...]
    corpus_score: Optional[float] = None


@dataclass(frozen=True)
class SweepRow:
    n: int
    anti_oracle: float
    top1: float
    oracle: float


def rank_models(weights: WeightVector) -> List[str]:
    """Feature names by decreasing absolute weight; ties break lexicographically."""
    ranked = sorted(
        zip(weights.feature_names, weights.weights),
        key=lambda nw: (-abs(nw[1]), nw[0]),
    )
    return [name for name, _ in ranked]


def select_models(weights: WeightVector, k: int) -> frozenset:
    """The names of the k largest-magnitude features; ties break lexicographically."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return frozenset(rank_models(weights)[:k])


def _masked_weights(weights: WeightVector, mask: Optional[frozenset]) -> np.ndarray:
    w = np.asarray(weights.weights, dtype=np.float64)
    if mask is None:
        return w
    unknown = mask - set(weights.feature_names)
    if unknown:
        raise ValueError(f"mask names unknown features: {sorted(unknown)}")
    keep = np.array(
        [1.0 if name in mask else 0.0 for name in weights.feature_names]
    )
    return w * keep


def rerank(
    matrix: FeatureMatrix,
    corpus: NBestCorpus,
    weights: WeightVector,
    mask: Optional[frozenset] = None,
    refs: Optional[Sequence[Sequence[str]]] = None,
) -> RerankResult:
    """Select the argmax hypothesis per sentence under (optionally masked) weights."""
    if weights.feature_names != matrix.feature_names:
        raise ValueError("weight vector does not match matrix columns")
    matrix.validate_against(corpus)
    selections = matrix.best_rows(_masked_weights(weights, mask))
    texts = _texts(corpus, selections)
    score = None if refs is None else corpus_bleu(corpus_stats(texts, refs))
    return RerankResult(selections, texts, score)


def _texts(corpus: NBestCorpus, picks: Sequence[int]) -> Tuple[str, ...]:
    """The text of hypothesis ``picks[s]`` of each sentence ``s``."""
    return tuple(texts[pick] for texts, pick in zip(corpus.texts, picks))


def _extremes(table: HypStats, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per sentence, the highest- and lowest-BLEU rank among the first ``n``;
    ties resolve to the lowest rank."""
    live = table.valid[:, :n]
    gains = table.gains[:, :n]
    return (
        np.where(live, gains, -np.inf).argmax(axis=1),
        np.where(live, gains, np.inf).argmin(axis=1),
    )


def oracle_select(
    corpus: NBestCorpus,
    refs: Sequence[Sequence[str]],
    mode: str = "oracle",
) -> RerankResult:
    """Greedy per-sentence best (oracle) or worst (anti-oracle) selection."""
    known(mode, ORACLE_MODES, "oracle mode")
    table = hyp_stats(corpus.texts, refs)
    best, worst = _extremes(table, corpus.n_max)
    selections = tuple((best if mode == "oracle" else worst).tolist())
    return RerankResult(selections, _texts(corpus, selections), table.bleu(selections))


def beam_sweep(
    corpus: NBestCorpus, refs: Sequence[Sequence[str]], sizes: Sequence[int]
) -> Tuple[List[SweepRow], int]:
    """Anti-oracle / top-1 / oracle corpus BLEU at each list truncation size.

    Lists shorter than a requested size are used as-is; the second return
    value counts those truncation events.
    """
    if not sizes:
        raise ValueError("no sweep sizes given")
    if any(n < 1 for n in sizes):
        raise ValueError("sweep sizes must be positive")
    if list(sizes) != sorted(sizes):
        raise ValueError("sweep sizes must be non-decreasing")
    if max(sizes) > corpus.n_max:
        raise ValueError(
            f"sweep size {max(sizes)} exceeds the longest list ({corpus.n_max})"
        )
    table = hyp_stats(corpus.texts, refs)
    lengths = table.valid.sum(axis=1)
    top1 = table.bleu(np.zeros(corpus.num_sentences, dtype=np.int64))
    rows = []
    short_lists = 0
    for n in sizes:
        short_lists += int((lengths < n).sum())
        oracle, anti = _extremes(table, n)
        rows.append(SweepRow(n, table.bleu(anti), top1, table.bleu(oracle)))
    return rows, short_lists


def format_selections(result: RerankResult) -> str:
    """Render a selection as ``SID<TAB>RANK<TAB>TEXT`` lines."""
    rows = enumerate(zip(result.selections, result.selected_texts))
    return "".join(f"{sid}\t{rank}\t{text}\n" for sid, (rank, text) in rows)


def format_sweep(rows: Sequence[SweepRow]) -> str:
    """Render sweep rows as the 4-column TSV (two decimal places)."""
    return "".join(
        f"{r.n}\t{r.anti_oracle:.2f}\t{r.top1:.2f}\t{r.oracle:.2f}\n" for r in rows
    )
