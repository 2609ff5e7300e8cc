"""Batch k-best MIRA tuning of log-linear reranking weights.

Per epoch, sentences are visited in a seed-deterministic shuffled order.
For each sentence with feature rows f(t) and precomputed sentence BLEU g(t)
against the tune references, the update picks

    hope = argmax_t  lambda . f(t) + g(t)
    fear = argmax_t  lambda . f(t) - g(t)

and, when the margin loss (g(hope) - g(fear)) - lambda . (f(hope) - f(fear))
is positive, moves lambda along f(hope) - f(fear) with step size capped at c.
Ties inside either argmax resolve to the lowest rank, which makes the whole
run bit-deterministic for a fixed seed.

After each epoch the within-epoch running average of lambda is scored by
reranking the tune set; the best-scoring epoch's average is returned, with
the initialization included as the epoch-0 candidate, so the tuned weights
never score below the starting point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, TextIO, Tuple

import numpy as np

from .corpus import FormatError, NBestCorpus, ReferenceSet, _parse_float, read_fields
from .features import FeatureMatrix
from .metrics import hyp_stats

INIT_MODES = ("zeros", "uniform")


@dataclass(frozen=True)
class WeightVector:
    """Learned weights aligned with a FeatureMatrix's column order."""

    feature_names: Tuple[str, ...]
    weights: Tuple[float, ...]

    def __post_init__(self):
        if len(self.feature_names) != len(self.weights):
            raise ValueError("feature_names and weights must have the same length")
        if any(not math.isfinite(w) for w in self.weights):
            raise ValueError("weights must be finite")

    def as_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=np.float64)


@dataclass(frozen=True)
class MiraConfig:
    c: float = 0.01
    epochs: int = 30
    seed: int = 0
    init: str = "zeros"

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("c must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.init not in INIT_MODES:
            raise ValueError(f"init must be one of {INIT_MODES}")


@dataclass(frozen=True)
class TuneRun:
    """Per-epoch averaged weights and tune BLEU; epoch 0 is the initialization."""

    best_weights: WeightVector
    history: Tuple[Tuple[WeightVector, float], ...]
    best_epoch: int


def _init_array(config: MiraConfig, names: Sequence[str]) -> np.ndarray:
    m = len(names)
    if config.init == "uniform":
        return np.full(m, 1.0 / m)
    lam = np.zeros(m)
    # start from the generating model's own ranking when available
    if "total" in names:
        lam[list(names).index("total")] = 1.0
    return lam


def hope_fear(model_scores: np.ndarray, gains: np.ndarray) -> Tuple[int, int]:
    """Indices of the hope and fear hypotheses; ties go to the lowest rank."""
    return int((model_scores + gains).argmax()), int((model_scores - gains).argmax())


def _update_on_sentence(
    lam: np.ndarray, rows: np.ndarray, gains: np.ndarray, c: float
) -> Tuple[np.ndarray, bool]:
    """One MIRA visit; returns (possibly updated lambda, whether it changed)."""
    model = rows @ lam
    hope, fear = hope_fear(model, gains)
    if hope == fear:
        return lam, False
    diff = rows[hope] - rows[fear]
    loss = (gains[hope] - gains[fear]) - (model[hope] - model[fear])
    if loss <= 0.0:
        return lam, False
    sq_norm = float(diff @ diff)
    if sq_norm == 0.0:
        return lam, False
    delta = min(c, loss / sq_norm)
    return lam + delta * diff, True


def tune_mira(
    matrix: FeatureMatrix,
    corpus: NBestCorpus,
    refs: ReferenceSet,
    config: MiraConfig = MiraConfig(),
) -> TuneRun:
    """Learn reranking weights that maximize tune-set corpus BLEU."""
    matrix.validate_against(corpus)
    names = matrix.feature_names
    if not names:
        raise ValueError("zero-feature matrix")
    num_sentences = corpus.num_sentences

    # sentence BLEU of every hypothesis against the tune references, and the
    # statistics that make corpus BLEU of any selection a gather and a sum
    table = hyp_stats(corpus.texts, refs.refs)
    gains = [table.gains[sid, : len(rows)] for sid, rows in enumerate(matrix.values)]

    def bleu_of_weights(weights: np.ndarray) -> float:
        return table.bleu(matrix.best_rows(weights)).value

    lam = _init_array(config, names)
    history: List[Tuple[WeightVector, float]] = []

    def record(weights: np.ndarray) -> None:
        wv = WeightVector(names, tuple(float(w) for w in weights))
        history.append((wv, bleu_of_weights(weights)))

    record(lam)
    rng = np.random.default_rng(config.seed & 0xFFFFFFFFFFFFFFFF)
    for _ in range(config.epochs):
        order = rng.permutation(num_sentences)
        weight_sum = np.zeros_like(lam)
        updates = 0
        for sid in order:
            lam, updated = _update_on_sentence(
                lam, matrix.values[sid], gains[sid], config.c
            )
            if updated:
                weight_sum += lam
                updates += 1
        averaged = weight_sum / updates if updates else lam.copy()
        record(averaged)

    # max keeps the first of equally scoring epochs
    best_epoch = max(range(len(history)), key=lambda epoch: history[epoch][1])
    return TuneRun(history[best_epoch][0], tuple(history), best_epoch)


def write_weights(
    weights: WeightVector,
    out: TextIO,
    best_epoch: Optional[int] = None,
    tune_bleu: Optional[float] = None,
) -> None:
    """``NAME<TAB>WEIGHT`` per line in column order, plus a trailer comment."""
    for name, w in zip(weights.feature_names, weights.weights):
        out.write(f"{name}\t{repr(float(w))}\n")
    if best_epoch is not None and tune_bleu is not None:
        out.write(f"#best_epoch\t{best_epoch}\t#tune_bleu\t{tune_bleu:.4f}\n")


def load_weights(stream: Iterable[str]) -> WeightVector:
    weights: Dict[str, float] = {}
    for lineno, (name, token) in read_fields(stream, "\t", 2, comment="#"):
        value = _parse_float(token, lineno, "weight")
        if not math.isfinite(value):
            raise FormatError(f"non-finite weight {token!r}", lineno)
        if name in weights:
            raise FormatError(f"duplicate feature name {name!r}", lineno)
        weights[name] = value
    if not weights:
        raise FormatError("no weights")
    return WeightVector(tuple(weights), tuple(weights.values()))
