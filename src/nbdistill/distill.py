"""Pseudo-label generation strategies.

Three ways to pick one target string per source sentence from an n-best list:

* ``kd_top1``  -- the generating model's rank-0 hypothesis (sequence-level
  distillation baseline).
* ``ki``       -- the hypothesis with the highest sentence BLEU against the
  original labels (sequence-level knowledge interpolation; needs references,
  so it only applies to labelled data).
* ``rerank``   -- the log-linear reranker's argmax under tuned, optionally
  masked weights; works on unlabelled data too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .corpus import NBestCorpus, ReferenceSet
from .features import FeatureMatrix
from .mira import WeightVector
from .rerank import SelectionMask, oracle_select, rerank


@dataclass(frozen=True)
class PseudoLabelSet:
    """One label per sentence id, plus how it was produced."""

    labels: Tuple[str, ...]
    strategy: str
    provenance: str


def kd_top1(corpus: NBestCorpus) -> PseudoLabelSet:
    """Rank-0 hypothesis per sentence."""
    labels = tuple(entries[0].text for entries in corpus.lists)
    return PseudoLabelSet(labels, "kd_top1", "rank-0 hypothesis of the generating model")


def ki_select(corpus: NBestCorpus, original_refs: ReferenceSet) -> PseudoLabelSet:
    """Per sentence, the list member with the highest BLEU against the
    original labels (the greedy oracle); ties resolve to the lowest rank."""
    return PseudoLabelSet(
        oracle_select(corpus, original_refs).selected_texts,
        "ki",
        "highest sentence BLEU against the original labels",
    )


def rerank_labels(
    matrix: FeatureMatrix,
    corpus: NBestCorpus,
    weights: WeightVector,
    mask: Optional[SelectionMask] = None,
) -> PseudoLabelSet:
    """Labels from the log-linear reranker's argmax selection."""
    result = rerank(matrix, corpus, weights, mask=mask)
    provenance = f"log-linear rerank over {len(matrix.feature_names)} features"
    if mask is not None:
        provenance += f", top-{mask.k} model mask"
    return PseudoLabelSet(result.selected_texts, "rerank", provenance)

