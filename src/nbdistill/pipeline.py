"""Self-training orchestration, and the file-level steps it shares with the CLI.

The file-level steps ``assemble_file``, ``tune_file``, ``rerank_file`` and
``rerank_labels_file`` back both the CLI commands and the self-training
stages, so a stage writes the same bytes as its command.

Each iteration shells out to user-supplied hook commands for the expensive,
model-dependent work (n-best generation, external feature scoring) and runs
the in-process stages in a fixed order:

    generate_nbest -> scores -> assemble -> tune -> select -> distill -> evaluate

Hook command templates get ``{ITER}``, ``{IN}`` and ``{OUT}`` substituted
(the two paths shell-quoted, so templates must not quote them again) and run
with the iteration directory as working directory.  A hook fails its stage
when it exits nonzero or leaves ``{OUT}`` unwritten.  Teacher
retraining/finetuning lives entirely inside the ``generate_nbest`` hook; the
orchestrator's contract is files in, files out.

Every stage writes its outputs under ``workdir/iterN/``.  ``run_iteration``
runs the stages from a table, dropping an empty ``.<stage>.done`` marker after
each, so a killed run resumes at the first incomplete stage and (for
deterministic hooks) reproduces identical bytes.  Completed iterations are
recorded in an append-only ``ledger.jsonl`` (guarded by whole-file
replace-on-write).

The loop stops when the configured maximum number of iterations is reached,
or when the dev-set BLEU gain over the previous iteration falls below
``min_delta`` ("converged").  The final labels are always those of the
iteration with the best dev BLEU (ties go to the earliest iteration).
"""

from __future__ import annotations

import configparser
import json
import math
import os
import shlex
import shutil
import subprocess
import time
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .corpus import (
    LABEL_SUFFIXES,
    FormatError,
    NBestCorpus,
    label_paths,
    load_file,
    load_nbest,
    load_reference_files,
    load_scores,
    load_sources,
    open_out,
    read_fields,
    write_pseudo_labels,
    write_text,
)
from .distill import rerank_labels
from .features import FeatureMatrix, assemble_matrix, load_matrix, write_matrix, NATIVE_FEATURES
from .mira import MiraConfig, TuneRun, WeightVector, load_weights, tune_mira, write_weights
from .rerank import (
    RerankResult, SelectionMask, format_selections, rank_models, rerank, select_models,
)

DATA_SETS = ("tune", "dev", "transfer")
LEDGER_NAME = "ledger.jsonl"


class HookError(RuntimeError):
    """An external hook command exited nonzero or did not write its output."""


@dataclass(frozen=True)
class PipelineConfig:
    workdir: Path
    tune_src: Path
    tune_refs: Tuple[Path, ...]
    dev_src: Path
    dev_refs: Tuple[Path, ...]
    transfer_src: Path
    hooks: Dict[str, str]
    passthrough: Tuple[str, ...] = ()
    native: Tuple[str, ...] = ()
    external: Tuple[str, ...] = ()
    mira: MiraConfig = field(default_factory=MiraConfig)
    top_k_models: int = 5
    iterations_max: int = 3
    min_delta: float = 0.1
    label_format: str = "tsv"

    def validate(self) -> None:
        if self.iterations_max < 1:
            raise ValueError("iterations_max must be >= 1")
        if self.min_delta < 0:
            raise ValueError("min_delta must be >= 0")
        if self.top_k_models < 1:
            raise ValueError("top_k_models must be >= 1")
        if self.label_format not in LABEL_SUFFIXES:
            raise ValueError(f"unknown label_format {self.label_format!r}")
        if not (self.passthrough or self.native or self.external):
            raise ValueError("no features declared")
        for name in self.native:
            if name not in NATIVE_FEATURES:
                raise ValueError(f"unknown native feature {name!r}")
        if "generate_nbest" not in self.hooks:
            raise ValueError("missing hook 'generate_nbest'")
        for name in self.external:
            if f"score_{name}" not in self.hooks:
                raise ValueError(
                    f"missing hook 'score_{name}' for external feature {name!r}"
                )
        for hook in self.hooks:
            if hook.startswith("score_") and hook[len("score_"):] not in self.external:
                raise ValueError(f"hook {hook!r} names no external feature")
        for label, path in (
            ("tune_src", self.tune_src),
            ("dev_src", self.dev_src),
            ("transfer_src", self.transfer_src),
        ):
            if not Path(path).is_file():
                raise ValueError(f"{label} file not found: {path}")
        for label, paths in (("tune_refs", self.tune_refs), ("dev_refs", self.dev_refs)):
            if not paths:
                raise ValueError(f"{label} must name at least one file")
            for p in paths:
                if not Path(p).is_file():
                    raise ValueError(f"{label} file not found: {p}")

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        """Parse a config file: a JSON document, or sectioned key/value text.

        Both carry the same sections: pipeline, data, features, hooks, mira.
        Relative paths are resolved against the config file's directory,
        made absolute so that hooks running in ``workdir/iterN`` find them.
        An unknown section or key is an error; ``data.test_src`` and
        ``data.test_refs`` are accepted and ignored.
        """
        p = Path(path)
        text = p.read_text(encoding="utf-8")
        if text.lstrip().startswith("{"):
            sections = json.loads(text)
        else:
            cp = configparser.ConfigParser(interpolation=None)
            cp.optionxform = str  # hook names are case-sensitive
            cp.read_string(text)
            if cp.defaults():  # else its keys would be blamed on every section
                raise ValueError("unknown config section 'DEFAULT'")
            sections = {name: dict(cp[name]) for name in cp.sections()}
        base = p.absolute().parent
        for name in sections:
            if name not in CONFIG_KEYS:
                raise ValueError(f"unknown config section {name!r}")
        kwargs: Dict[str, object] = {}
        mira: Dict[str, object] = {}
        for name, keys in _KEY_TABLE.items():
            sec = sections.get(name, {})
            if not isinstance(sec, dict):
                raise ValueError(f"config section {name!r} must be a mapping")
            for key in sec:
                if key not in keys and not (
                    name == "hooks" and key.startswith("score_") and key != "score_"
                ):
                    raise ValueError(f"unknown config key '{name}.{key}'")
            if name == "hooks":
                kwargs["hooks"] = {
                    k: _keyed(name, k, _convert, v, "str", base) for k, v in sec.items()}
            target, owner = (mira, MiraConfig) if name == "mira" else (kwargs, cls)
            for f in fields(owner):
                if f.name not in keys:
                    continue
                if f.name in sec:
                    target[f.name] = _keyed(name, f.name, _convert, sec[f.name], f.type, base)
                elif f.default is MISSING and f.default_factory is MISSING:
                    raise ValueError(f"config missing '{name}.{f.name}'")
        return cls(mira=MiraConfig(**mira), **kwargs)


# The keys of each config section (docs/config-schema.json).  A key sets the
# PipelineConfig field of its name ([mira]: the MiraConfig field), converted by
# the field's declared type, and is required exactly when the field has no
# default.  [hooks] becomes the ``hooks`` mapping and also accepts any
# score_<name>; data.test_src and data.test_refs are accepted and ignored.
_KEY_TABLE = {
    "pipeline": ("workdir", "iterations_max", "min_delta", "top_k_models", "label_format"),
    "data": ("tune_src", "tune_refs", "dev_src", "dev_refs", "transfer_src",
             "test_src", "test_refs"),
    "features": ("passthrough", "native", "external"),
    "hooks": ("generate_nbest",),
    "mira": ("c", "epochs", "seed", "init"),
}
CONFIG_KEYS = {name: set(keys) for name, keys in _KEY_TABLE.items()}
_NUMBERS = {"int": int, "float": float}


def split_names(text: str) -> Tuple[str, ...]:
    """The items of a comma list, stripped, with empty items dropped."""
    return tuple(filter(None, map(str.strip, text.split(","))))


def _keyed(section: str, key: str, convert: Callable, *args) -> object:
    """``convert(*args)``, with an error that names the config key."""
    try:
        return convert(*args)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config key '{section}.{key}': {exc}") from None


def _convert(value: object, kind: str, base: Path) -> object:
    """A config value as a field of declared type ``kind``; paths resolve
    against ``base``.  A string or path takes only a string, and a list a JSON
    array of strings (one item each) or comma-separated text.  A JSON boolean
    is no number, and an int takes only a number with no fraction."""
    if kind in _NUMBERS:
        fraction = kind == "int" and isinstance(value, float) and not value.is_integer()
        if fraction or isinstance(value, bool):
            raise ValueError(f"expected {kind}, got {json.dumps(value)}")
        return _NUMBERS[kind](value)
    listed = kind.startswith("Tuple") and isinstance(value, list)
    for item in value if listed else [value]:
        if not isinstance(item, str):
            raise ValueError(f"expected a string, got {json.dumps(item)}")
    if kind in ("str", "Path"):
        return base / value if kind == "Path" else value
    names = tuple(filter(None, map(str.strip, value))) if listed else split_names(value)
    return tuple(base / name for name in names) if kind == "Tuple[Path, ...]" else names


@dataclass(frozen=True)
class IterationState:
    iter: int
    dev_bleu: float
    weights_path: str
    labels_path: str
    started: str
    finished: str


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def ledger_path(workdir: str | Path) -> Path:
    return Path(workdir) / LEDGER_NAME


# the JSON values each IterationState field accepts; a boolean is no number
_LEDGER_TYPES = {"int": int, "float": (float, int), "str": str}


def read_ledger(path: str | Path) -> List[IterationState]:
    p = Path(path)
    if not p.exists():
        return []
    states = []
    with open(p, encoding="utf-8") as stream:
        for lineno, (line,) in read_fields(stream):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                if isinstance(obj, dict):
                    # earlier versions recorded hook exit statuses, always 0
                    obj.pop("hook_statuses", None)
                state = IterationState(**obj)
                for f in fields(state):
                    value = getattr(state, f.name)
                    if isinstance(value, bool) or not isinstance(value, _LEDGER_TYPES[f.type]):
                        raise TypeError(f"{f.name} must be {f.type}, got {json.dumps(value)}")
                if not math.isfinite(state.dev_bleu):  # OverflowError for a huge integer
                    raise ValueError(f"dev_bleu must be finite, got {json.dumps(state.dev_bleu)}")
                states.append(state)
            except (OverflowError, TypeError, ValueError) as exc:
                error = FormatError(f"{p}: bad ledger entry on line {lineno}: {exc}")
                error.line = lineno
                raise error from None
    for i, state in enumerate(states, 1):
        if state.iter != i:
            raise FormatError(f"{p}: ledger iteration indices are not 1..{len(states)}")
    return states


def _append_ledger(path: Path, state: IterationState) -> None:
    lines = []
    if path.exists():
        lines = path.read_text(encoding="utf-8").splitlines()
    lines.append(json.dumps(asdict(state), sort_keys=True))
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def assemble_file(
    nbest: str | Path, out: str | Path, passthrough: Sequence[str] = (),
    native: Sequence[str] = (), scores: Sequence[Tuple[str, str | Path]] = (),
) -> None:
    """Write the feature matrix of an n-best file; ``scores`` holds the
    external score tables as (feature name, path) pairs."""
    corpus = load_file(nbest, load_nbest)
    tables = [load_file(path, load_scores, name) for name, path in scores]
    matrix = assemble_matrix(corpus, passthrough, native, tables)
    with open_out(out) as f:
        write_matrix(matrix, f)


def tune_file(
    matrix: str | Path, nbest: str | Path, refs: Sequence[str | Path],
    config: MiraConfig, out: str | Path,
) -> TuneRun:
    """Tune MIRA weights on a matrix and its n-best file; write the best ones."""
    corpus = load_file(nbest, load_nbest)
    run = tune_mira(load_file(matrix, load_matrix), corpus, load_reference_files(refs), config)
    best = run.best_epoch
    with open_out(out) as f:
        write_weights(run.best_weights, f, best_epoch=best, tune_bleu=run.history[best][1])
    return run


def _rerank_inputs(
    matrix: str | Path, nbest: str | Path, weights: str | Path,
    models: Optional[int],
) -> Tuple[FeatureMatrix, NBestCorpus, WeightVector, Optional[SelectionMask]]:
    """The arguments of ``rerank``; ``models`` is k for ``select_models``."""
    loaded = load_file(weights, load_weights)
    mask = None if models is None else select_models(loaded, models)
    return load_file(matrix, load_matrix), load_file(nbest, load_nbest), loaded, mask


def rerank_file(
    matrix: str | Path, nbest: str | Path, weights: str | Path, out: str | Path,
    models: Optional[int] = None, refs: Sequence[str | Path] = (),
) -> Tuple[RerankResult, Optional[SelectionMask]]:
    """Write the ``SID<TAB>RANK<TAB>TEXT`` selections of the reranker and
    return them with the mask applied; ``refs`` add the corpus BLEU."""
    inputs = _rerank_inputs(matrix, nbest, weights, models)
    result = rerank(*inputs, refs=load_reference_files(refs) if refs else None)
    write_text(out, format_selections(result))
    return result, inputs[-1]


def rerank_labels_file(
    matrix: str | Path, nbest: str | Path, weights: str | Path, src: str | Path,
    out_prefix: str | Path, fmt: str = "tsv", models: Optional[int] = None,
) -> List[Path]:
    """Write the reranker's pseudo-labels for the sources in ``src``;
    returns the written paths."""
    labels = rerank_labels(*_rerank_inputs(matrix, nbest, weights, models))
    return write_pseudo_labels(load_file(src, load_sources), labels, out_prefix, fmt)


def _run_hook(it: _Iteration, hook: str, set_name: str, in_path: Path, out_path: Path) -> None:
    stage = f"{hook}[{set_name}]"
    cmd = (
        it.config.hooks[hook].replace("{ITER}", str(it.n))
        .replace("{IN}", shlex.quote(str(in_path)))
        .replace("{OUT}", shlex.quote(str(out_path)))
    )
    proc = subprocess.run(
        cmd, shell=True, cwd=str(it.dir), capture_output=True, text=True
    )
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        message = f"stage {stage}: hook exited {proc.returncode}: {cmd}"
        if tail:
            message += "\n" + tail
        raise HookError(message)
    if not out_path.exists():
        raise HookError(f"stage {stage}: hook exited 0 without writing {out_path}: {cmd}")


class _Iteration:
    """The config, number and file layout of one iteration."""

    def __init__(self, config: PipelineConfig, n: int):
        self.config = config
        self.n = n
        self.dir = Path(config.workdir) / f"iter{n}"
        self.nbest = {name: self.dir / f"nbest.{name}.txt" for name in DATA_SETS}
        self.matrix = {name: self.dir / f"matrix.{name}.tsv" for name in DATA_SETS}
        self.weights = self.dir / "weights.tsv"
        self.labels = self.dir / "labels"  # the prefix of the label files
        self.selected = self.dir / "selected.txt"
        self.dev_bleu = self.dir / "dev_bleu.txt"

    def scores(self, feature: str, set_name: str) -> Path:
        return self.dir / f"scores.{feature}.{set_name}.tsv"


def _generate_nbest(it: _Iteration) -> None:
    for name in DATA_SETS:
        _run_hook(it, "generate_nbest", name, getattr(it.config, f"{name}_src"), it.nbest[name])


def _scores(it: _Iteration) -> None:
    for feature in it.config.external:
        for name in DATA_SETS:
            _run_hook(it, f"score_{feature}", name, it.nbest[name], it.scores(feature, name))


def _assemble(it: _Iteration) -> None:
    config = it.config
    for name in DATA_SETS:
        scores = [(feature, it.scores(feature, name)) for feature in config.external]
        assemble_file(it.nbest[name], it.matrix[name], config.passthrough, config.native, scores)


def _tune(it: _Iteration) -> None:
    tune_file(it.matrix["tune"], it.nbest["tune"], it.config.tune_refs, it.config.mira, it.weights)


def _select(it: _Iteration) -> None:
    weights = load_file(it.weights, load_weights)
    mask = select_models(weights, it.config.top_k_models)
    write_text(it.selected, "".join(f"{n}\n" for n in rank_models(weights) if n in mask.active))


def _distill(it: _Iteration) -> None:
    rerank_labels_file(
        it.matrix["transfer"], it.nbest["transfer"], it.weights, it.config.transfer_src,
        it.labels, it.config.label_format, models=it.config.top_k_models,
    )


def _evaluate(it: _Iteration) -> None:
    result, _ = rerank_file(
        it.matrix["dev"], it.nbest["dev"], it.weights, it.dir / "selections.dev.tsv",
        models=it.config.top_k_models, refs=it.config.dev_refs,
    )
    write_text(it.dev_bleu, repr(result.corpus_score.value) + "\n")


_STAGE_TABLE: Tuple[Tuple[str, Callable[[_Iteration], None]], ...] = (
    ("generate_nbest", _generate_nbest), ("scores", _scores), ("assemble", _assemble),
    ("tune", _tune), ("select", _select), ("distill", _distill), ("evaluate", _evaluate),
)
STAGES = tuple(name for name, _ in _STAGE_TABLE)


def run_iteration(
    config: PipelineConfig, prev: Optional[IterationState] = None
) -> IterationState:
    """Run (or resume) one iteration and append its ledger entry."""
    iter_n = (prev.iter if prev else 0) + 1
    ledger = ledger_path(config.workdir)
    for state in read_ledger(ledger):
        if state.iter == iter_n:
            return state
    if iter_n > 1 and not Path(prev.labels_path).is_file():
        raise ValueError(
            f"iteration {iter_n} needs the previous labels: {prev.labels_path}"
        )
    it = _Iteration(config, iter_n)
    it.dir.mkdir(parents=True, exist_ok=True)
    started = _utc_now()
    for stage, run_stage in _STAGE_TABLE:
        marker = it.dir / f".{stage}.done"
        if not marker.exists():
            run_stage(it)
            marker.touch()
    state = IterationState(
        iter=iter_n,
        dev_bleu=float(it.dev_bleu.read_text(encoding="utf-8").strip()),
        weights_path=str(it.weights),
        labels_path=str(label_paths(it.labels, config.label_format)[-1]),
        started=started,
        finished=_utc_now(),
    )
    _append_ledger(ledger, state)
    return state


def stopping_reason(
    states: Sequence[IterationState], config: PipelineConfig
) -> Optional[str]:
    """Stopping rule over the completed-iteration prefix (None = keep going)."""
    if len(states) >= 2 and states[-1].dev_bleu - states[-2].dev_bleu < config.min_delta:
        return "converged"
    if len(states) >= config.iterations_max:
        return "max_iterations"
    return None


def best_iteration(states: Sequence[IterationState]) -> IterationState:
    # max keeps the first of equally scoring iterations
    return max(states, key=lambda state: state.dev_bleu)


def run_selftrain(config: PipelineConfig) -> Tuple[IterationState, str]:
    """Iterate until convergence or the iteration cap; returns the best-dev
    iteration's state and the stop reason.

    Re-running over an existing workdir resumes from the ledger and the
    per-stage completion markers.
    """
    config.validate()
    workdir = Path(config.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    states = read_ledger(ledger_path(workdir))
    for state in states:
        for label, path in (("weights", state.weights_path), ("labels", state.labels_path)):
            if not Path(path).is_file():
                raise ValueError(
                    f"ledger iteration {state.iter} references a missing "
                    f"{label} file: {path}"
                )
    reason = stopping_reason(states, config)
    while reason is None:
        prev = states[-1] if states else None
        states.append(run_iteration(config, prev))
        reason = stopping_reason(states, config)
    best = best_iteration(states)
    final_labels = _finalize_labels(workdir, best, config.label_format)
    summary = {
        "best_iteration": best.iter,
        "dev_bleu": best.dev_bleu,
        "stop_reason": reason,
        "labels": str(final_labels),
    }
    write_text(workdir / "final.json", json.dumps(summary, sort_keys=True) + "\n")
    return best, reason


def _finalize_labels(workdir: Path, best: IterationState, label_format: str) -> Path:
    """Copy the best iteration's label files to ``final.labels.*``; returns
    the copy of its labels path."""
    prefix = Path(best.labels_path).with_suffix("")
    for src, dst in zip(label_paths(prefix, label_format),
                        label_paths(workdir / "final.labels", label_format)):
        shutil.copyfile(src, dst)
    return dst


def status_table(workdir: str | Path) -> str:
    """Render the ledger as an aligned text table."""
    states = read_ledger(ledger_path(workdir))
    if not states:
        return "no iterations recorded\n"
    header = ("iter", "dev_bleu", "started", "finished", "labels")
    rows = [
        (str(s.iter), f"{s.dev_bleu:.4f}", s.started, s.finished, s.labels_path)
        for s in states
    ]
    widths = [
        max(len(header[col]), max(len(row[col]) for row in rows))
        for col in range(len(header))
    ]
    lines = []
    for row in (header, *rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"
