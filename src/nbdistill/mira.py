"""Batch k-best MIRA tuning of log-linear reranking weights.

Epoch e visits the sentences in the order of the e-th ``permutation`` of
numpy's default generator for ``seed``. ``_Pcg64`` computes that stream bit for
bit, so the order rests on no numpy internals that may change between versions,
and tuning does not load numpy's random module (about 6 MB per process).
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

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, TextIO, Tuple

import numpy as np

from .corpus import FormatError, NBestCorpus, _parse_float, known, read_fields, typed
from .features import FeatureMatrix
from .metrics import hyp_stats

INIT_MODES = ("zeros", "uniform")
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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


@dataclass(frozen=True)
class MiraConfig:
    c: float = 0.01
    epochs: int = 30
    seed: int = 0
    init: str = "zeros"

    def __post_init__(self):
        typed(self)
        if not 0 < self.c < math.inf:  # NaN too
            raise ValueError(f"c must be positive and finite, got {self.c}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        known(self.init, INIT_MODES, "init mode")
        if not 0 <= self.seed <= _M64:
            raise ValueError(f"seed must be in 0..{_M64}, got {self.seed}")


@dataclass(frozen=True)
class TuneRun:
    """Per-epoch averaged weights and tune BLEU; epoch 0 is the initialization."""

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


class _Pcg64:
    """numpy's default generator for ``seed``: its PCG64 stream and ``permutation``."""

    def __init__(self, seed: int):
        const = 0x43B0D7E5
        def hashmix(value: int, mult: int) -> int:
            nonlocal const
            value ^= const
            const = const * mult & _M32
            value = value * const & _M32
            return value ^ value >> 16

        # SeedSequence: the seed's two 32-bit words, padded to a 4-word pool
        pool = [hashmix(word, 0x931E8875) for word in (seed & _M32, seed >> 32, 0, 0)]
        for src, dst in itertools.permutations(range(4), 2):
            value = (0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(pool[src], 0x931E8875)) & _M32
            pool[dst] = value ^ value >> 16
        # generate_state(4, uint64): initstate, then initseq, as two uint64 each, high first
        const = 0x8B51F9DD
        w = [hashmix(pool[i % 4], 0x58F38DED) for i in range(8)]
        init_state, init_seq = ((w[i] | w[i + 1] << 32) << 64 | w[i + 2] | w[i + 3] << 32 for i in (0, 4))
        self.inc = (init_seq << 1 | 1) & _M128
        self.state = (self.inc + init_state) * _PCG_MULT + self.inc & _M128
        self.spare: Optional[int] = None

    def next64(self) -> int:
        """Step the 128-bit LCG and return its XSL-RR output."""
        self.state = self.state * _PCG_MULT + self.inc & _M128
        value, rot = (self.state >> 64 ^ self.state) & _M64, self.state >> 122
        return (value >> rot | value << (64 - rot)) & _M64

    def next32(self) -> int:
        """The low half of a 64-bit draw; its high half is the next call's."""
        value, self.spare = self.spare, None
        if value is None:
            value = self.next64()
            self.spare, value = value >> 32, value & _M32
        return value

    def permutation(self, n: int) -> List[int]:
        """Fisher-Yates from the end, each index by masked rejection."""
        order = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            draw = self.next32 if i <= _M32 else self.next64
            while (j := draw() & mask) > i:
                pass
            order[i], order[j] = order[j], order[i]
        return order


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
    refs: Sequence[Sequence[str]],
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
    table = hyp_stats(corpus.texts, refs)
    gains = [table.gains[sid, : len(rows)] for sid, rows in enumerate(matrix.values)]

    def bleu_of_weights(weights: np.ndarray) -> float:
        return table.bleu(matrix.best_rows(weights))

    lam = _init_array(config, names)
    history: List[Tuple[WeightVector, float]] = []

    def record(weights: np.ndarray) -> None:
        wv = WeightVector(names, tuple(float(w) for w in weights))
        history.append((wv, bleu_of_weights(weights)))

    record(lam)
    rng = _Pcg64(config.seed)
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
    return TuneRun(tuple(history), best_epoch)


def write_weights(weights: WeightVector, out: TextIO, best_epoch: int, tune_bleu: float) -> None:
    """``NAME<TAB>WEIGHT`` per line in column order, plus a trailer comment."""
    for name, w in zip(weights.feature_names, weights.weights):
        out.write(f"{name}\t{repr(float(w))}\n")
    out.write(f"#best_epoch\t{best_epoch}\t#tune_bleu\t{tune_bleu:.4f}\n")


def load_weights(stream: Iterable[str]) -> WeightVector:
    weights: Dict[str, float] = {}
    for lineno, (name, token) in read_fields(stream, "\t", 2, comment="#"):
        value = _parse_float(token, lineno, "weight", finite=True)
        if name in weights:
            raise FormatError(f"duplicate feature name {name!r}", lineno)
        weights[name] = value
    if not weights:
        raise FormatError("no weights")
    return WeightVector(tuple(weights), tuple(weights.values()))
