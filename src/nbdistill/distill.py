"""Pseudo-label generation strategies and transfer-set assembly.

Three ways to pick one target string per source sentence from an n-best list:

* ``kd_top1``  -- the generating model's rank-0 hypothesis (sequence-level
  distillation baseline).
* ``ki``       -- the hypothesis with the highest sentence BLEU against the
  original labels (sequence-level knowledge interpolation; needs references,
  so it only applies to labelled data).
* ``rerank``   -- the log-linear reranker's argmax under tuned, optionally
  masked weights; works on unlabelled data too.

Transfer sets are concatenations of (bitext, monolingual) pseudo-labelled
blocks with sentence ids re-densified; no up/down-sampling is applied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .corpus import NBestCorpus, ReferenceSet, SourceCorpus
from .features import FeatureMatrix
from .mira import WeightVector
from .rerank import SelectionMask, oracle_select, rerank

STRATEGIES = ("kd_top1", "ki", "rerank")
MIX_MODES = ("bitext_only", "bitext_plus_mono", "mono_only")


@dataclass(frozen=True)
class PseudoLabelSet:
    """One label per sentence id, plus how it was produced."""

    labels: Tuple[str, ...]
    strategy: str
    provenance: str

    def as_mapping(self) -> Dict[int, str]:
        return dict(enumerate(self.labels))


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


def mix_transfer_sets(
    bitext: Optional[Tuple[SourceCorpus, PseudoLabelSet]] = None,
    mono: Optional[Tuple[SourceCorpus, PseudoLabelSet]] = None,
    mode: str = "bitext_plus_mono",
) -> Tuple[SourceCorpus, PseudoLabelSet]:
    """Concatenate the requested blocks (bitext first), re-densifying ids."""
    if mode not in MIX_MODES:
        raise ValueError(f"mode must be one of {MIX_MODES}")
    want_bitext = mode in ("bitext_only", "bitext_plus_mono")
    want_mono = mode in ("mono_only", "bitext_plus_mono")
    if want_bitext and bitext is None:
        raise ValueError(f"mode {mode!r} requires a bitext set")
    if want_mono and mono is None:
        raise ValueError(f"mode {mode!r} requires a mono set")
    blocks = []
    if want_bitext:
        blocks.append(bitext)
    if want_mono:
        blocks.append(mono)
    sentences = []
    labels = []
    for sources, label_set in blocks:
        if len(sources) != len(label_set.labels):
            raise ValueError(
                f"block has {len(sources)} sources but {len(label_set.labels)} labels"
            )
        sentences.extend(sources.sentences)
        labels.extend(label_set.labels)
    strategies = {label_set.strategy for _, label_set in blocks}
    strategy = strategies.pop() if len(strategies) == 1 else "mixed"
    sizes = "+".join(str(len(s)) for s, _ in blocks)
    return (
        SourceCorpus(tuple(sentences)),
        PseudoLabelSet(tuple(labels), strategy, f"{mode} concatenation ({sizes})"),
    )
