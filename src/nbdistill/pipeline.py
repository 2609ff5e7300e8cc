"""Self-training orchestration, and the file-level steps it shares with the CLI.

The six file-level steps ``evaluate_file``, ``assemble_file``, ``tune_file``,
``rerank_file``, ``oracle_file`` and ``distill_file`` each back one CLI command;
the self-training stages run the same steps, so each writes its command's bytes.
Before reading a file, ``distill_file`` and ``oracle_file`` reject an argument
their mode does not read or needs and lacks, with their command's error.
``oracle_file`` also rejects sweep sizes that break a rule of ``check_sweep``
first, and each step that reranks a ``top_k_models`` below 1.

Each iteration shells out to user-supplied hook commands for the expensive,
model-dependent work (n-best generation, external feature scoring) and runs
the in-process stages in a fixed order:

    generate_nbest -> scores -> assemble -> tune -> select -> distill -> evaluate

Hook command templates get ``{ITER}``, ``{IN}`` and ``{OUT}`` substituted
(the two paths shell-quoted, so templates must not quote them again) and run
with the iteration directory as working directory.  A hook stage starts all
of its calls at once, then waits for every one: ``generate_nbest`` makes one
call per data set, ``scores`` one per external feature and data set.  Each
call's stdout and stderr go to ``iterN/logs/<hook>.<set>.out`` and ``.err``,
and each call leads its own process group, which an interrupted run ends.
A call fails when it exits nonzero or leaves ``{OUT}`` unwritten; once all
calls have ended, the stage raises the HookError of the first failed call
(by feature in config order, then by set: tune, dev, transfer), and a re-run
repeats the whole stage.  A template whose calls must not overlap takes a
lock itself, e.g. ``flock train.lock train_once.sh --round {ITER} && ...``;
the lock file lies in the iteration directory, so it is one per iteration.
Teacher retraining/finetuning lives entirely inside the ``generate_nbest``
hook; the orchestrator's contract is files in, files out.

Every stage writes its outputs under ``workdir/iterN/``.  ``run_iteration``
runs the stages from a table, dropping an empty ``.<stage>.done`` marker after
each, so a killed run resumes at the first incomplete stage and (for
deterministic hooks) reproduces identical bytes.  Completed iterations are
recorded in an append-only ``ledger.jsonl`` (guarded by whole-file
replace-on-write); its paths are a record, as each iteration's files are
taken from the configured workdir, and ``status_table`` names the labels
files in the workdir it is given.

The loop stops when the configured maximum number of iterations is reached,
or when the dev-set BLEU gain over the previous iteration falls below
``min_delta`` ("converged").  The final labels are always those of the
iteration with the best dev BLEU (ties go to the earliest iteration).
"""

from __future__ import annotations

import json
import math
import os
import re
import shlex
import signal
import subprocess
import sys
import time
from collections import deque
from contextlib import ExitStack
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from .corpus import (
    LABEL_SUFFIXES,
    FormatError,
    NBestCorpus,
    _parse_float,
    known,
    label_paths,
    load_file,
    load_lines,
    load_nbest,
    load_references,
    load_scores,
    load_sources,
    open_out,
    read_fields,
    typed,
    write_pseudo_labels,
    write_text,
)
from .distill import kd_top1, ki_select, rerank_labels
from .features import FeatureMatrix, assemble_matrix, load_matrix, write_matrix, NATIVE_FEATURES
from .metrics import CHRF_BETA, CHRF_CHAR_ORDER, corpus_bleu, corpus_chrf, corpus_stats
from .mira import MiraConfig, TuneRun, WeightVector, load_weights, tune_mira, write_weights
from .rerank import (
    ORACLE_MODES, RerankResult, beam_sweep, check_sweep, format_selections, format_sweep,
    oracle_select, rank_models, rerank, select_models,
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
        typed(self)
        if not isinstance(self.mira, MiraConfig):
            raise ValueError(f"mira must be a MiraConfig, got {self.mira!r}")
        if self.iterations_max < 1:
            raise ValueError("iterations_max must be >= 1")
        if not self.min_delta >= 0:  # NaN too
            raise ValueError("min_delta must be >= 0")
        if self.top_k_models < 1:
            raise ValueError("top_k_models must be >= 1")
        known(self.label_format, LABEL_SUFFIXES, "label format")
        if not (self.passthrough or self.native or self.external):
            raise ValueError("no features declared")
        for name in self.native:
            known(name, NATIVE_FEATURES, "native feature")
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
        An unknown section or key is an error.

        The key/value text is read line by line: blank lines and lines that
        start with ``#`` or ``;`` are skipped, ``[name]`` opens a section, and
        any other line is ``key = value``, split at its first ``=``.  A
        repeated section or key is an error, in JSON too, and a number must be
        finite.  Every error is a FormatError that starts with the path; in
        key/value text, one about a key or section also names its line.
        """
        return load_file(path, cls._from_stream, Path(path).absolute().parent)

    @classmethod
    def _from_stream(cls, stream: Iterable[str], base: Path) -> "PipelineConfig":
        sections, where = _read_sections(stream)
        for name in sections:
            if name not in CONFIG_KEYS:
                raise FormatError(f"unknown config section {name!r}", where.get(name))
        kwargs: Dict[str, object] = {}
        mira: Dict[str, object] = {}
        for name, keys in CONFIG_KEYS.items():
            sec = sections.get(name, {})
            if not isinstance(sec, dict):
                raise FormatError(f"config section {name!r} must be a mapping")
            for key in sec:
                if key not in keys and not (
                    name == "hooks" and key.startswith("score_") and key != "score_"
                ):
                    raise FormatError(
                        f"unknown config key '{name}.{key}'", where.get(f"{name}.{key}"))
            if name == "hooks":
                kwargs["hooks"] = {
                    k: _keyed(where, name, k, v, "str", base) for k, v in sec.items()}
            target, owner = (mira, MiraConfig) if name == "mira" else (kwargs, cls)
            for f in fields(owner):
                if f.name not in keys:
                    continue
                if f.name in sec:
                    target[f.name] = _keyed(where, name, f.name, sec[f.name], f.type, base)
                elif f.default is MISSING and f.default_factory is MISSING:
                    raise FormatError(f"config missing '{name}.{f.name}'")
        try:
            kwargs["mira"] = MiraConfig(**mira)
        except ValueError as exc:
            raise FormatError(str(exc), where.get("mira")) from None
        return cls(**kwargs)


def _read_sections(stream: Iterable[str]) -> Tuple[Dict[str, object], Dict[str, int]]:
    """The sections of a JSON or key/value config text, and for key/value
    text the line of each section and ``section.key``; a syntax error is a
    FormatError with its line."""
    lines = [line for _, (line,) in read_fields(stream)]
    text = "\n".join(lines)
    if text.lstrip().startswith("{"):
        try:
            return json.loads(text, object_pairs_hook=_unique_keys), {}
        except json.JSONDecodeError as exc:
            raise FormatError(f"{exc.msg} at column {exc.colno}", exc.lineno) from None
        except (ValueError, RecursionError) as exc:  # a repeated key, a huge integer, deep nesting
            raise FormatError(str(exc)) from None
    sections, where, section = {}, {}, None
    for lineno, line in enumerate(map(str.strip, lines), 1):
        if not line or line[0] in "#;":
            continue
        if line[0] == "[" and line[-1] == "]":
            section = line[1:-1]
            if section in sections:
                raise FormatError(f"repeated section [{section}]", lineno)
            sections[section], where[section] = {}, lineno
        else:
            key, eq, value = map(str.strip, line.partition("="))
            if section is None or not (eq and key):
                expected = "a [section] header" if section is None else "'key = value'"
                raise FormatError(f"expected {expected}, got {lines[lineno - 1]!r}", lineno)
            if key in sections[section]:
                raise FormatError(f"repeated key '{section}.{key}'", lineno)
            sections[section][key], where[f"{section}.{key}"] = value, lineno
    return sections, where


def _unique_keys(pairs: List[Tuple[str, object]]) -> Dict[str, object]:
    """A JSON object as a dict; a repeated key is an error."""
    obj: Dict[str, object] = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


# The keys of each config section (docs/config-schema.json).  A key sets the
# PipelineConfig field of its name ([mira]: the MiraConfig field), converted by
# the field's declared type, and is required exactly when the field has no
# default.  [hooks] becomes the ``hooks`` mapping and also accepts any
# score_<name>.
CONFIG_KEYS = {
    "pipeline": ("workdir", "iterations_max", "min_delta", "top_k_models", "label_format"),
    "data": ("tune_src", "tune_refs", "dev_src", "dev_refs", "transfer_src"),
    "features": ("passthrough", "native", "external"),
    "hooks": ("generate_nbest",),
    "mira": ("c", "epochs", "seed", "init"),
}
_NUMBERS = {"int": int, "float": float}


def split_names(text: str) -> Tuple[str, ...]:
    """The items of a comma list, stripped, with empty items dropped."""
    return tuple(filter(None, map(str.strip, text.split(","))))


def _keyed(where: Dict[str, int], section: str, key: str, *args) -> object:
    """``_convert(*args)``, with an error that names the config key and its line."""
    try:
        return _convert(*args)
    except (TypeError, ValueError) as exc:
        name = f"{section}.{key}"
        raise FormatError(f"config key '{name}': {exc}", where.get(name)) from None


def _convert(value: object, kind: str, base: Path) -> object:
    """A config value as a field of declared type ``kind``; paths resolve
    against ``base``.  A string or path takes only a string, and a list a JSON
    array of strings (one item each) or comma-separated text.  A JSON boolean
    is no number, an int takes only a number with no fraction, and a float
    must be finite."""
    if kind in _NUMBERS:
        fraction = kind == "int" and isinstance(value, float) and not value.is_integer()
        if fraction or isinstance(value, bool):
            raise ValueError(f"expected {kind}, got {json.dumps(value)}")
        number = _NUMBERS[kind](value)
        if kind == "float" and not math.isfinite(number):
            raise ValueError(f"expected a finite float, got {value}")
        return number
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

    def __post_init__(self):
        typed(self)


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def ledger_path(workdir: str | Path) -> Path:
    return Path(workdir) / LEDGER_NAME


def read_ledger(path: str | Path) -> List[IterationState]:
    return load_file(path, _ledger_entries) if Path(path).exists() else []


def _ledger_entries(stream: Iterable[str]) -> List[IterationState]:
    states = []
    for lineno, (line,) in read_fields(stream):
        if not line.strip():
            continue
        try:
            state = IterationState(**json.loads(line))
            if not math.isfinite(state.dev_bleu):  # OverflowError for a huge integer
                raise ValueError(f"dev_bleu must be finite, got {json.dumps(state.dev_bleu)}")
            states.append(state)
        except (OverflowError, TypeError, ValueError) as exc:
            raise FormatError(f"bad ledger entry: {exc}", lineno) from None
    for i, state in enumerate(states, 1):
        if state.iter != i:
            raise FormatError(f"ledger iteration indices are not 1..{len(states)}")
    return states


def _append_ledger(path: Path, state: IterationState) -> None:
    lines = []
    if path.exists():
        lines = path.read_text(encoding="utf-8").splitlines()
    lines.append(json.dumps(asdict(state), sort_keys=True))
    write_text(path, "\n".join(lines) + "\n")


# The modes of two file-level steps.  Entries call layer functions by this
# module's names, so that a function replaced in this module is the one called.
# A strategy maps each optional argument of ``distill_file`` that it reads to
# whether it needs it; ``_check_reads`` rejects any other.
METRICS = {
    "bleu": ("BLEU", lambda hyps, refs: corpus_bleu(corpus_stats(hyps, refs)),
             "eff:no|tok:13a|smooth:exp"),
    "chrf": ("chrF", lambda hyps, refs: corpus_chrf(zip(hyps, refs)),
             f"nc:{CHRF_CHAR_ORDER}|nw:0|beta:{int(CHRF_BETA)}|space:collapse"),
}
STRATEGIES = {
    "kd": ({}, lambda nbest, args: kd_top1(load_file(nbest, load_nbest))),
    "ki": ({"orig_refs": True}, lambda nbest, args: ki_select(
        load_file(nbest, load_nbest), load_references(args["orig_refs"]))),
    "rerank": ({"matrix": True, "weights": True, "top_k_models": False},
               lambda nbest, args: rerank_labels(*_rerank_inputs(
                   args["matrix"], nbest, args["weights"], args["top_k_models"]))),
}


def _check_reads(step: str, reads: Dict[str, bool], given: Dict[str, object]) -> None:
    """Reject an argument of ``given`` that ``step`` does not read but is not
    None, and one it needs that is None or empty, naming it by its flag."""
    for name, value in given.items():
        flag = "--" + name.replace("_", "-")
        if value is not None and name not in reads:
            raise ValueError(f"{step} does not read {flag}")
        if reads.get(name) and not value:
            raise ValueError(f"{step} requires {flag}")


def evaluate_file(hyp: str | Path, refs: Sequence[str | Path], metric: str = "bleu") -> str:
    """The corpus ``METRICS`` score of ``hyp`` against ``refs`` and its ``#signature`` line."""
    label, score, signature = METRICS[known(metric, METRICS, "metric")]
    hyps, loaded = load_lines(hyp), load_references(refs)
    if len(loaded) != len(hyps):
        raise ValueError(f"line count mismatch {len(hyps)} vs {len(loaded)} (hypothesis file "
                         f"{str(hyp)!r}: {len(hyps)}, references: {len(loaded)})")
    return f"{label}\t{score(hyps, loaded):.4f}\n#signature\tnrefs:{len(refs)}|case:mixed|{signature}\n"


def assemble_file(
    nbest: str | Path, out: str | Path, passthrough: Sequence[str] = (),
    native: Sequence[str] = (), scores: Sequence[Tuple[str, str | Path]] = (),
) -> None:
    """Write the feature matrix of an n-best file; ``scores`` holds the
    external score tables as (feature name, path) pairs."""
    corpus = load_file(nbest, load_nbest)
    tables = [(name, load_file(path, load_scores)) for name, path in scores]
    matrix = assemble_matrix(corpus, passthrough, native, tables)
    with open_out(out) as f:
        write_matrix(matrix, f)


def tune_file(
    matrix: str | Path, nbest: str | Path, refs: Sequence[str | Path],
    config: MiraConfig, out: str | Path,
) -> TuneRun:
    """Tune MIRA weights on a matrix and its n-best file; write the best ones."""
    corpus = load_file(nbest, load_nbest)
    run = tune_mira(load_file(matrix, load_matrix), corpus, load_references(refs), config)
    weights, bleu = run.history[run.best_epoch]
    with open_out(out) as f:
        write_weights(weights, f, run.best_epoch, bleu)
    return run


def _rerank_inputs(
    matrix: str | Path, nbest: str | Path, weights: str | Path,
    top_k_models: Optional[int],
) -> Tuple[FeatureMatrix, NBestCorpus, WeightVector, Optional[frozenset]]:
    """The arguments of ``rerank``; ``top_k_models`` is k for ``select_models``."""
    if top_k_models is not None and top_k_models < 1:
        raise ValueError(f"--top-k-models must be >= 1, got {top_k_models}")
    loaded = load_file(weights, load_weights)
    mask = None if top_k_models is None else select_models(loaded, top_k_models)
    return load_file(matrix, load_matrix), load_file(nbest, load_nbest), loaded, mask


def rerank_file(
    matrix: str | Path, nbest: str | Path, weights: str | Path, out: str | Path,
    top_k_models: Optional[int] = None, refs: Optional[Sequence[str | Path]] = None,
) -> Tuple[RerankResult, Optional[frozenset]]:
    """Write the ``SID<TAB>RANK<TAB>TEXT`` selections of the reranker and
    return them with the mask applied; ``refs`` add the corpus BLEU."""
    inputs = _rerank_inputs(matrix, nbest, weights, top_k_models)
    result = rerank(*inputs, refs=None if refs is None else load_references(refs))
    write_text(out, format_selections(result))
    return result, inputs[-1]


def oracle_file(
    nbest: str | Path, refs: Sequence[str | Path], out: Optional[str | Path] = None,
    mode: Optional[str] = None, sweep: Optional[Sequence[int]] = None,
) -> Tuple[Optional[float], int]:
    """Write the greedy ``mode`` (default "oracle") selections of an n-best
    file, or with ``sweep`` sizes and no mode its beam-sweep table, to ``out``
    or else standard output.  Returns the selections' corpus BLEU (None for a
    sweep) and the number of lists shorter than a sweep size."""
    if sweep is not None:
        _check_reads("oracle --sweep", {}, {"mode": mode})
        check_sweep(sweep)
    mode = known("oracle" if mode is None else mode, ORACLE_MODES, "oracle mode")
    corpus, loaded = load_file(nbest, load_nbest), load_references(refs)
    if sweep is not None:
        rows, short_lists = beam_sweep(corpus, loaded, sweep)
        text, bleu = format_sweep(rows), None
    else:
        result = oracle_select(corpus, loaded, mode=mode)
        text, bleu, short_lists = format_selections(result), result.corpus_score, 0
    if out:
        write_text(out, text)
    else:
        sys.stdout.write(text)
    return bleu, short_lists


def distill_file(
    strategy: str, nbest: str | Path, src: str | Path, out_prefix: str | Path, fmt: str = "tsv",
    matrix: Optional[str | Path] = None, weights: Optional[str | Path] = None,
    top_k_models: Optional[int] = None, orig_refs: Optional[Sequence[str | Path]] = None,
) -> List[Path]:
    """Write the ``STRATEGIES`` labels (ki: nearest ``orig_refs``) of ``src``;
    returns the paths."""
    reads, labels_of = STRATEGIES[known(strategy, STRATEGIES, "strategy")]
    known(fmt, LABEL_SUFFIXES, "label format")
    args = {"orig_refs": orig_refs, "matrix": matrix, "weights": weights,
            "top_k_models": top_k_models}
    _check_reads(f"distill {strategy}", reads, args)
    labels = labels_of(nbest, args)
    return write_pseudo_labels(load_file(src, load_sources), labels, out_prefix, fmt)


def _run_hook(
    it: _Iteration, hook: str, set_name: str, in_path: Path, out_path: Path
) -> subprocess.Popen:
    """Start one hook call, with its stdout and stderr going to its logs."""
    # one pass, so that a placeholder inside a substituted path stays as it is
    values = {"ITER": str(it.n), "IN": shlex.quote(str(in_path)), "OUT": shlex.quote(str(out_path))}
    cmd = re.sub(r"\{(ITER|IN|OUT)\}", lambda m: values[m[1]], it.config.hooks[hook])
    log = it.log(hook, set_name)
    # the child writes the logs through its own descriptors, so they are
    # closed (and in place) here, and no output passes through this process
    with open_out(f"{log}.out") as out, open_out(f"{log}.err") as err:
        return subprocess.Popen(cmd, shell=True, cwd=str(it.dir), stdout=out, stderr=err,
                                start_new_session=True)


def _run_hooks(it: _Iteration, calls: Sequence[Tuple[str, str, Path, Path]]) -> None:
    """Start every ``(hook, set, IN, OUT)`` call of a stage, wait for all of
    them, then raise the HookError of the first failed call in ``calls``.

    Each call leads its own process group.  An interrupt (Ctrl-C, or the
    SIGTERM that ``nbdistill selftrain`` turns into ``SystemExit``) sends
    SIGTERM to the group of every call still running, and re-raises once
    they have been waited for.
    """
    it.logs.mkdir(exist_ok=True)
    procs: List[subprocess.Popen] = []
    with ExitStack() as running:  # waits for each started call, also if a start raises
        try:
            for call in calls:
                procs.append(running.enter_context(_run_hook(it, *call)))
            for proc in procs:
                proc.wait()
        except (KeyboardInterrupt, SystemExit):
            for proc in procs:
                if proc.poll() is None:  # not reaped, so its group is still there
                    os.killpg(proc.pid, signal.SIGTERM)
            for proc in procs:  # after a KeyboardInterrupt, Popen's exit waits 0.25 s only
                proc.wait()
            raise
    for (hook, set_name, _, out_path), proc in zip(calls, procs):
        stage = f"{hook}[{set_name}]"
        if proc.returncode != 0:
            tail = load_file(f"{it.log(hook, set_name)}.err", _last_lines, errors="replace")
            message = f"stage {stage}: hook exited {proc.returncode}: {proc.args}"
            raise HookError(message + "\n" + tail if tail else message)
        if not out_path.exists():
            raise HookError(f"stage {stage}: hook exited 0 without writing {out_path}: {proc.args}")


def _last_lines(stream: Iterable[str], n: int = 5) -> str:
    """``"\\n".join(text.strip().splitlines()[-n:])`` of the stream's text,
    read a line at a time."""
    kept: Deque[str] = deque(maxlen=n)
    blank: Deque[str] = deque(maxlen=n)  # whitespace-only lines since the last kept one
    for line in (part for chunk in stream for part in chunk.splitlines()):
        if not line.strip():
            if kept:
                blank.append(line)
            continue
        kept.extend(blank)
        blank.clear()
        kept.append(line if kept else line.lstrip())
    if kept:
        kept[-1] = kept[-1].rstrip()
    return "\n".join(kept)


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
        self.label_files = label_paths(self.labels, config.label_format)
        self.selected = self.dir / "selected.txt"
        self.dev_bleu = self.dir / "dev_bleu.txt"
        self.logs = self.dir / "logs"

    def paths(self) -> Dict[str, str]:
        """The ledger's record of the iteration's weights and labels files."""
        return {"weights_path": str(self.weights), "labels_path": str(self.label_files[-1])}

    def scores(self, feature: str, set_name: str) -> Path:
        return self.dir / f"scores.{feature}.{set_name}.tsv"

    def log(self, hook: str, set_name: str) -> Path:
        """The path of a hook call's logs, without their ``.out``/``.err``."""
        return self.logs / f"{hook}.{set_name}"


def _generate_nbest(it: _Iteration) -> None:
    _run_hooks(it, [("generate_nbest", name, getattr(it.config, f"{name}_src"), it.nbest[name])
                    for name in DATA_SETS])


def _scores(it: _Iteration) -> None:
    _run_hooks(it, [(f"score_{feature}", name, it.nbest[name], it.scores(feature, name))
                    for feature in it.config.external for name in DATA_SETS])


def _assemble(it: _Iteration) -> None:
    config = it.config
    for name in DATA_SETS:
        scores = [(feature, it.scores(feature, name)) for feature in config.external]
        assemble_file(it.nbest[name], it.matrix[name], config.passthrough, config.native, scores)


def _tune(it: _Iteration) -> None:
    tune_file(it.matrix["tune"], it.nbest["tune"], it.config.tune_refs, it.config.mira, it.weights)


def _select(it: _Iteration) -> None:
    weights = load_file(it.weights, load_weights)
    write_text(it.selected, "".join(f"{n}\n" for n in rank_models(weights)[:it.config.top_k_models]))


def _distill(it: _Iteration) -> None:
    distill_file(
        "rerank", it.nbest["transfer"], it.config.transfer_src, it.labels,
        it.config.label_format, it.matrix["transfer"], it.weights, it.config.top_k_models,
    )


def _evaluate(it: _Iteration) -> None:
    result, _ = rerank_file(
        it.matrix["dev"], it.nbest["dev"], it.weights, it.dir / "selections.dev.tsv",
        top_k_models=it.config.top_k_models, refs=it.config.dev_refs,
    )
    write_text(it.dev_bleu, repr(result.corpus_score) + "\n")


def _load_bleu(stream: Iterable[str]) -> float:
    """The dev BLEU that ``_evaluate`` wrote: one finite number on one line."""
    values = [_parse_float(text, n, "dev BLEU", finite=True) for n, (text,) in read_fields(stream)]
    if len(values) != 1:
        raise FormatError(f"expected one line, got {len(values)}")
    return values[0]


_STAGE_TABLE: Tuple[Tuple[str, Callable[[_Iteration], None]], ...] = (
    ("generate_nbest", _generate_nbest), ("scores", _scores), ("assemble", _assemble),
    ("tune", _tune), ("select", _select), ("distill", _distill), ("evaluate", _evaluate),
)
STAGES = tuple(name for name, _ in _STAGE_TABLE)


def run_iteration(
    config: PipelineConfig, prev: Optional[IterationState] = None
) -> IterationState:
    """Run (or resume) one iteration and append its ledger entry."""
    config.validate()
    iter_n = (prev.iter if prev else 0) + 1
    ledger = ledger_path(config.workdir)
    for state in read_ledger(ledger):
        if state.iter == iter_n:
            return state
    if prev is not None:
        labels = _Iteration(config, prev.iter).label_files[-1]
        if not labels.is_file():
            raise ValueError(f"iteration {iter_n} needs the previous labels: {labels}")
    it = _Iteration(config, iter_n)
    it.dir.mkdir(parents=True, exist_ok=True)
    stamp = it.dir / ".started"  # the time of the first start, kept for a resume
    if not stamp.exists():
        write_text(stamp, _utc_now() + "\n")
    for stage, run_stage in _STAGE_TABLE:
        marker = it.dir / f".{stage}.done"
        if not marker.exists():
            run_stage(it)
            marker.touch()
    state = IterationState(
        iter=iter_n,
        dev_bleu=load_file(it.dev_bleu, _load_bleu),
        **it.paths(),
        started=load_file(stamp, lambda stream: stream.read().strip()),
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
    iteration's state (paths in the configured workdir) and the stop reason.

    Re-running over an existing workdir resumes from the ledger and the
    per-stage completion markers.
    """
    config.validate()
    workdir = Path(config.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    states = read_ledger(ledger_path(workdir))
    for state in states:
        it = _Iteration(config, state.iter)
        for label, path in (("weights", it.weights), ("labels", it.label_files[-1])):
            if not path.is_file():
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
    final_labels = _finalize_labels(config, best)
    summary = {
        "best_iteration": best.iter,
        "dev_bleu": best.dev_bleu,
        "stop_reason": reason,
        "labels": str(final_labels),
    }
    write_text(workdir / "final.json", json.dumps(summary, sort_keys=True) + "\n")
    return replace(best, **_Iteration(config, best.iter).paths()), reason


def _finalize_labels(config: PipelineConfig, best: IterationState) -> Path:
    """Copy the best iteration's label files to ``final.labels.*``; returns
    the copy of its labels path."""
    for src, dst in zip(_Iteration(config, best.iter).label_files,
                        label_paths(Path(config.workdir) / "final.labels", config.label_format)):
        write_text(dst, src.read_text(encoding="utf-8"))
    return dst


def status_table(workdir: str | Path) -> str:
    """Render the ledger as an aligned text table; each labels file is named
    in ``workdir``, as a resume takes it from there."""
    states = read_ledger(ledger_path(workdir))
    if not states:
        return "no iterations recorded\n"
    header = ("iter", "dev_bleu", "started", "finished", "labels")
    base = Path(workdir).absolute()
    rows = [
        (str(s.iter), f"{s.dev_bleu:.4f}", s.started, s.finished,
         str(base / f"iter{s.iter}" / Path(s.labels_path).name))
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
