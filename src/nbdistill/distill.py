"""Pseudo-label generation strategies, one per key of ``pipeline.STRATEGIES``.

Each picks one target string per source sentence from an n-best list:

* ``kd``: ``kd_top1``, the generating model's rank-0 hypothesis
  (sequence-level distillation baseline).
* ``ki``: ``ki_select``, the hypothesis with the highest sentence BLEU against
  the original labels (sequence-level knowledge interpolation; needs
  references, so it only applies to labelled data).
* ``rerank``: ``rerank_labels``, the log-linear reranker's argmax under tuned,
  optionally masked weights; works on unlabelled data too.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from .corpus import NBestCorpus
from .features import FeatureMatrix
from .mira import WeightVector
from .rerank import oracle_select, rerank


def kd_top1(corpus: NBestCorpus) -> Tuple[str, ...]:
    """Rank-0 hypothesis per sentence."""
    return tuple(texts[0] for texts in corpus.texts)


def ki_select(corpus: NBestCorpus, original_refs: Sequence[Sequence[str]]) -> Tuple[str, ...]:
    """Per sentence, the list member with the highest BLEU against the
    original labels (the greedy oracle); ties resolve to the lowest rank."""
    return oracle_select(corpus, original_refs).selected_texts


def rerank_labels(
    matrix: FeatureMatrix,
    corpus: NBestCorpus,
    weights: WeightVector,
    mask: Optional[frozenset] = None,
) -> Tuple[str, ...]:
    """Labels from the log-linear reranker's argmax selection."""
    return rerank(matrix, corpus, weights, mask=mask).selected_texts
