"""Self-training orchestration.

Each iteration shells out to user-supplied hook commands for the expensive,
model-dependent work (n-best generation, external feature scoring) and runs
the in-process stages in a fixed order:

    generate_nbest -> scores -> assemble -> tune -> select -> distill -> evaluate

Hook command templates get ``{ITER}``, ``{IN}`` and ``{OUT}`` substituted
(the two paths shell-quoted, so templates must not quote them again) and run
with the iteration directory as working directory.  Teacher
retraining/finetuning lives entirely inside the ``generate_nbest`` hook; the
orchestrator's contract is files in, files out.

Every stage writes its outputs under ``workdir/iterN/`` and drops an empty
``.<stage>.done`` marker when complete, so a killed run resumes at the first
incomplete stage and (for deterministic hooks) reproduces identical bytes.
Completed iterations are recorded in an append-only ``ledger.jsonl``
(guarded by whole-file replace-on-write).

The loop stops when the configured maximum number of iterations is reached,
or when the dev-set BLEU gain over the previous iteration falls below
``min_delta`` ("converged").  The final labels are always those of the
iteration with the best dev BLEU (ties go to the earliest iteration).
"""

from __future__ import annotations

import configparser
import json
import os
import shlex
import shutil
import subprocess
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .corpus import (
    load_nbest,
    load_references,
    load_scores,
    load_sources,
    write_pseudo_labels,
)
from .distill import rerank_labels
from .features import assemble_matrix, load_matrix, write_matrix, NATIVE_FEATURES
from .mira import MiraConfig, load_weights, tune_mira, write_weights
from .rerank import SelectionMask, rerank, select_models

STAGES = ("generate_nbest", "scores", "assemble", "tune", "select", "distill", "evaluate")
DATA_SETS = ("tune", "dev", "transfer")
LEDGER_NAME = "ledger.jsonl"


class HookError(RuntimeError):
    """An external hook command exited nonzero."""


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
    test_src: Optional[Path] = None
    test_refs: Tuple[Path, ...] = ()

    def validate(self) -> None:
        if self.iterations_max < 1:
            raise ValueError("iterations_max must be >= 1")
        if self.min_delta < 0:
            raise ValueError("min_delta must be >= 0")
        if self.top_k_models < 1:
            raise ValueError("top_k_models must be >= 1")
        if self.label_format not in ("tsv", "parallel"):
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
        """
        p = Path(path)
        text = p.read_text(encoding="utf-8")
        if text.lstrip().startswith("{"):
            sections = json.loads(text)
        else:
            cp = configparser.ConfigParser(interpolation=None)
            cp.optionxform = str  # hook names are case-sensitive
            cp.read_string(text)
            sections = {name: dict(cp[name]) for name in cp.sections()}
        base = p.absolute().parent

        def section(name: str) -> dict:
            sec = sections.get(name, {})
            if not isinstance(sec, dict):
                raise ValueError(f"config section {name!r} must be a mapping")
            return sec

        pipe, data, feats = section("pipeline"), section("data"), section("features")
        hooks = {str(k): str(v) for k, v in section("hooks").items()}
        mira_sec = section("mira")

        def require(sec: dict, sec_name: str, key: str) -> object:
            if key not in sec:
                raise ValueError(f"config missing '{sec_name}.{key}'")
            return sec[key]

        def one_path(value: object) -> Path:
            return base / str(value)

        def path_list(value: object) -> Tuple[Path, ...]:
            items = value if isinstance(value, list) else str(value).split(",")
            return tuple(base / str(v).strip() for v in items if str(v).strip())

        def name_list(value: object) -> Tuple[str, ...]:
            items = value if isinstance(value, list) else str(value).split(",")
            return tuple(str(v).strip() for v in items if str(v).strip())

        mira = MiraConfig(
            c=float(mira_sec.get("c", 0.01)),
            epochs=int(mira_sec.get("epochs", 30)),
            seed=int(mira_sec.get("seed", 0)),
            init=str(mira_sec.get("init", "zeros")),
        )
        return cls(
            workdir=one_path(require(pipe, "pipeline", "workdir")),
            tune_src=one_path(require(data, "data", "tune_src")),
            tune_refs=path_list(require(data, "data", "tune_refs")),
            dev_src=one_path(require(data, "data", "dev_src")),
            dev_refs=path_list(require(data, "data", "dev_refs")),
            transfer_src=one_path(require(data, "data", "transfer_src")),
            test_src=one_path(data["test_src"]) if "test_src" in data else None,
            test_refs=path_list(data.get("test_refs", "")),
            hooks=hooks,
            passthrough=name_list(feats.get("passthrough", "")),
            native=name_list(feats.get("native", "")),
            external=name_list(feats.get("external", "")),
            mira=mira,
            top_k_models=int(pipe.get("top_k_models", 5)),
            iterations_max=int(pipe.get("iterations_max", 3)),
            min_delta=float(pipe.get("min_delta", 0.1)),
            label_format=str(pipe.get("label_format", "tsv")),
        )


@dataclass(frozen=True)
class IterationState:
    iter: int
    dev_bleu: float
    weights_path: str
    labels_path: str
    started: str
    finished: str
    hook_statuses: Dict[str, int]


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def ledger_path(workdir: str | Path) -> Path:
    return Path(workdir) / LEDGER_NAME


def read_ledger(path: str | Path) -> List[IterationState]:
    p = Path(path)
    if not p.exists():
        return []
    states = []
    with open(p, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                states.append(IterationState(**obj))
            except (json.JSONDecodeError, TypeError) as exc:
                raise ValueError(f"{p}: bad ledger entry on line {lineno}: {exc}") from None
    for i, state in enumerate(states, 1):
        if state.iter != i:
            raise ValueError(f"{p}: ledger iteration indices are not 1..{len(states)}")
    return states


def _append_ledger(path: Path, state: IterationState) -> None:
    lines = []
    if path.exists():
        lines = path.read_text(encoding="utf-8").splitlines()
    lines.append(json.dumps(asdict(state), sort_keys=True))
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def _run_hook(
    template: str, iter_n: int, in_path: Path, out_path: Path, cwd: Path, stage: str
) -> int:
    cmd = (
        template.replace("{ITER}", str(iter_n))
        .replace("{IN}", shlex.quote(str(in_path)))
        .replace("{OUT}", shlex.quote(str(out_path)))
    )
    proc = subprocess.run(
        cmd, shell=True, cwd=str(cwd), capture_output=True, text=True
    )
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        message = f"stage {stage}: hook exited {proc.returncode}: {cmd}"
        if tail:
            message += "\n" + tail
        raise HookError(message)
    return proc.returncode


def _open(path: Path):
    return open(path, encoding="utf-8")


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


def run_iteration(
    config: PipelineConfig, prev: Optional[IterationState] = None
) -> IterationState:
    """Run (or resume) one iteration and append its ledger entry."""
    iter_n = (prev.iter if prev else 0) + 1
    workdir = Path(config.workdir)
    ledger = ledger_path(workdir)
    for state in read_ledger(ledger):
        if state.iter == iter_n:
            return state
    if iter_n > 1 and not Path(prev.labels_path).is_file():
        raise ValueError(
            f"iteration {iter_n} needs the previous labels: {prev.labels_path}"
        )
    itdir = workdir / f"iter{iter_n}"
    itdir.mkdir(parents=True, exist_ok=True)
    started = _utc_now()
    hook_statuses: Dict[str, int] = {}

    def marker(stage: str) -> Path:
        return itdir / f".{stage}.done"

    def is_done(stage: str) -> bool:
        return marker(stage).exists()

    def complete(stage: str) -> None:
        marker(stage).touch()

    set_sources = {
        "tune": Path(config.tune_src),
        "dev": Path(config.dev_src),
        "transfer": Path(config.transfer_src),
    }
    sources = tuple((name, set_sources[name]) for name in DATA_SETS)
    nbest_path = {name: itdir / f"nbest.{name}.txt" for name, _ in sources}
    matrix_path = {name: itdir / f"matrix.{name}.tsv" for name, _ in sources}
    weights_file = itdir / "weights.tsv"
    selected_file = itdir / "selected.txt"
    labels_prefix = itdir / "labels"
    labels_file = labels_prefix.with_name(
        "labels.tsv" if config.label_format == "tsv" else "labels.tgt"
    )
    dev_bleu_file = itdir / "dev_bleu.txt"
    dev_selections_file = itdir / "selections.dev.tsv"

    def scores_file(feature: str, set_name: str) -> Path:
        return itdir / f"scores.{feature}.{set_name}.tsv"

    if not is_done("generate_nbest"):
        for set_name, src in sources:
            status = _run_hook(
                config.hooks["generate_nbest"],
                iter_n,
                src,
                nbest_path[set_name],
                itdir,
                stage=f"generate_nbest[{set_name}]",
            )
            hook_statuses[f"generate_nbest.{set_name}"] = status
        complete("generate_nbest")

    if not is_done("scores"):
        for feature in config.external:
            template = config.hooks[f"score_{feature}"]
            for set_name, _ in sources:
                status = _run_hook(
                    template,
                    iter_n,
                    nbest_path[set_name],
                    scores_file(feature, set_name),
                    itdir,
                    stage=f"score_{feature}[{set_name}]",
                )
                hook_statuses[f"score_{feature}.{set_name}"] = status
        complete("scores")

    if not is_done("assemble"):
        for set_name, _ in sources:
            with _open(nbest_path[set_name]) as f:
                corpus = load_nbest(f)
            tables = []
            for feature in config.external:
                with _open(scores_file(feature, set_name)) as f:
                    tables.append(load_scores(f, feature))
            matrix = assemble_matrix(corpus, config.passthrough, config.native, tables)
            with open(matrix_path[set_name], "w", encoding="utf-8", newline="\n") as f:
                write_matrix(matrix, f)
        complete("assemble")

    if not is_done("tune"):
        with _open(nbest_path["tune"]) as f:
            tune_corpus = load_nbest(f)
        with _open(matrix_path["tune"]) as f:
            tune_matrix = load_matrix(f)
        ref_streams = [open(p, encoding="utf-8") for p in config.tune_refs]
        try:
            tune_refs = load_references(ref_streams)
        finally:
            for s in ref_streams:
                s.close()
        run = tune_mira(tune_matrix, tune_corpus, tune_refs, config.mira)
        with open(weights_file, "w", encoding="utf-8", newline="\n") as f:
            write_weights(
                run.best_weights,
                f,
                best_epoch=run.best_epoch,
                tune_bleu=run.history[run.best_epoch][1],
            )
        complete("tune")

    if not is_done("select"):
        with _open(weights_file) as f:
            weights = load_weights(f)
        mask = select_models(weights, config.top_k_models)
        ranked = sorted(
            zip(weights.feature_names, weights.weights),
            key=lambda nw: (-abs(nw[1]), nw[0]),
        )
        active_in_order = [name for name, _ in ranked if name in mask.active]
        _write_text(selected_file, "".join(name + "\n" for name in active_in_order))
        complete("select")

    def read_mask() -> SelectionMask:
        names = [line.strip() for line in selected_file.read_text(encoding="utf-8").splitlines() if line.strip()]
        return SelectionMask(frozenset(names), config.top_k_models)

    if not is_done("distill"):
        with _open(nbest_path["transfer"]) as f:
            transfer_corpus = load_nbest(f)
        with _open(matrix_path["transfer"]) as f:
            transfer_matrix = load_matrix(f)
        with _open(weights_file) as f:
            weights = load_weights(f)
        labels = rerank_labels(transfer_matrix, transfer_corpus, weights, read_mask())
        with _open(Path(config.transfer_src)) as f:
            transfer_sources = load_sources(f)
        write_pseudo_labels(
            transfer_sources, labels.as_mapping(), labels_prefix, config.label_format
        )
        complete("distill")

    if not is_done("evaluate"):
        with _open(nbest_path["dev"]) as f:
            dev_corpus = load_nbest(f)
        with _open(matrix_path["dev"]) as f:
            dev_matrix = load_matrix(f)
        with _open(weights_file) as f:
            weights = load_weights(f)
        ref_streams = [open(p, encoding="utf-8") for p in config.dev_refs]
        try:
            dev_refs = load_references(ref_streams)
        finally:
            for s in ref_streams:
                s.close()
        result = rerank(dev_matrix, dev_corpus, weights, read_mask(), refs=dev_refs)
        _write_text(
            dev_selections_file,
            "".join(
                f"{sid}\t{rank}\t{text}\n"
                for sid, (rank, text) in enumerate(
                    zip(result.selections, result.selected_texts)
                )
            ),
        )
        _write_text(dev_bleu_file, repr(result.corpus_score.value) + "\n")
        complete("evaluate")

    dev_bleu = float(dev_bleu_file.read_text(encoding="utf-8").strip())
    state = IterationState(
        iter=iter_n,
        dev_bleu=dev_bleu,
        weights_path=str(weights_file),
        labels_path=str(labels_file),
        started=started,
        finished=_utc_now(),
        hook_statuses=hook_statuses,
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
    best = states[0]
    for state in states[1:]:
        if state.dev_bleu > best.dev_bleu:
            best = state
    return best


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
    _write_text(workdir / "final.json", json.dumps(summary, sort_keys=True) + "\n")
    return best, reason


def _finalize_labels(workdir: Path, best: IterationState, label_format: str) -> Path:
    src = Path(best.labels_path)
    if label_format == "parallel":
        shutil.copyfile(src.with_suffix(".src"), workdir / "final.labels.src")
        dst = workdir / "final.labels.tgt"
    else:
        dst = workdir / "final.labels.tsv"
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
