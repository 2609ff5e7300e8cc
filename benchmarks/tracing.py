"""Traced mode: the workload's command chain in-process, with layer spans.

Spans are recorded from the benchmark's side only: every public function of
the layer modules listed in ``LAYERS`` is replaced, in every ``nbdistill``
module namespace that imported it, by a wrapper that opens a span named
``<module>.<function>`` (the package itself is not changed).  Spans are kept
in memory; the run record gets those of the last traced repetition.  A span's self time is its duration minus
the durations of its child spans, so the self times of all spans, plus the
``run`` root's and the ``cli.<command>`` spans' self time (``untraced_s``: CLI
glue and everything not wrapped), add up to the traced wall time.

``metrics`` functions are called up to a million times, so they are summed
per name instead of being kept as single spans.  Names ending in ``calls``
are exact counts.  The run alternates untraced and traced in-process
repetitions and reports the ratio of their medians as the tracing overhead,
together with an estimate from the number of spans and the cost of one.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

import run as bench  # benchmarks/run.py

LAYERS = {
    "corpus": ("load_nbest", "load_scores", "load_references", "load_sources",
               "write_pseudo_labels"),
    "metrics": ("tokenize_13a", "sentence_stats", "corpus_bleu", "sentence_chrf"),
    "features": ("mbr_utility", "length_features", "passthrough_features", "assemble_matrix",
                 "write_matrix", "load_matrix"),
    "mira": ("tune_mira", "load_weights", "write_weights"),
    "rerank": ("rerank", "select_models", "oracle_select", "beam_sweep"),
    "distill": ("kd_top1", "ki_select", "rerank_labels"),
    "pipeline": ("run_selftrain", "run_iteration", "_run_hook", "status_table", "read_ledger"),
}
AGGREGATED = "metrics"

# The per-layer metrics of the contract line: each is measured on every
# workload (times are never structurally zero).  Everything else is in the
# run record.
PER_LAYER = [
    ("corpus.load_nbest_s", "s"),
    ("corpus.load_scores_s", "s"),
    ("corpus.load_references_s", "s"),
    ("corpus.write_pseudo_labels_s", "s"),
    ("metrics.tokenize_13a_s", "s"),
    ("metrics.sentence_stats_s", "s"),
    ("metrics.corpus_bleu_s", "s"),
    ("features.length_features_s", "s"),
    ("features.assemble_matrix_s", "s"),
    ("features.assemble_matrix.self_s", "s"),
    ("features.write_matrix_s", "s"),
    ("features.load_matrix_s", "s"),
    ("mira.tune_mira_s", "s"),
    ("mira.tune_mira.self_s", "s"),
    ("rerank.rerank_s", "s"),
    ("rerank.rerank_refs_s", "s"),
    ("distill.rerank_labels_s", "s"),
    ("pipeline.status_table_s", "s"),
    ("corpus.self_s", "s"),
    ("metrics.self_s", "s"),
    ("features.self_s", "s"),
    ("mira.self_s", "s"),
    ("rerank.self_s", "s"),
    ("distill.self_s", "s"),
    ("pipeline.self_s", "s"),
    ("untraced_s", "s"),
    ("traced_wall_s", "s"),
    ("metrics.tokenize_13a.calls", "count"),
    ("metrics.sentence_stats.calls", "count"),
    ("metrics.corpus_bleu.calls", "count"),
    ("metrics.sentence_chrf.calls", "count"),
    ("features.mbr_pairs", "count"),
    ("mira.epochs", "count"),
    ("mira.sentence_visits", "count"),
    ("pipeline.hook.calls", "count"),
    ("pipeline.stages_skipped", "count"),
    ("corpus.sentences", "count"),
    ("corpus.hyps", "count"),
    ("features.dup_share", "ratio"),
]


class Tracer:
    """Span stack and records of one traced repetition."""

    def __init__(self):
        self.stack: List[list] = []  # open frames: [name, child seconds, span id]
        self.spans: List[tuple] = []  # (name, parent span id, start, duration, self)
        self.totals: Dict[str, list] = {}  # name -> [calls, seconds, self seconds]
        self.counts: Dict[str, int] = {}
        self.patched: List[tuple] = []

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def call(self, name: str, keep: bool, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span; ``keep`` records it as a single span."""
        stack = self.stack
        parent = stack[-1][2] if stack else None
        frame = [name, 0.0, len(self.spans) if keep else parent]
        if keep:
            self.spans.append(None)
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][1] += duration
            own = duration - frame[1]
            total = self.totals.get(name)
            if total is None:
                total = self.totals[name] = [0, 0.0, 0.0]
            total[0] += 1
            total[1] += duration
            total[2] += own
            if keep:
                self.spans[frame[2]] = (name, parent, start, duration, own)

    def wrap(self, layer: str, func: str, fn: Callable) -> Callable:
        keep = layer != AGGREGATED
        name = f"{layer}.{func.lstrip('_').replace('run_hook', 'hook')}"
        call = self.call
        if func == "mbr_utility":
            def wrapper(texts, utility="sentence_bleu"):
                n = len(texts)
                self.count("features.mbr_pairs", n * (n - 1) if n > 1 else 1)
                kind = "bleu" if utility == "sentence_bleu" else "chrf"
                return call(f"{name}.{kind}", keep, fn, texts, utility)
        elif func == "tune_mira":
            def wrapper(matrix, corpus, refs, config=None):
                config = config if config is not None else fn.__defaults__[0]
                self.count("mira.epochs", config.epochs)
                self.count("mira.sentence_visits", config.epochs * corpus.num_sentences)
                return call(name, keep, fn, matrix, corpus, refs, config)
        elif func == "rerank":
            def wrapper(*args, **kwargs):
                span = name + ("_refs" if kwargs.get("refs") is not None else "")
                return call(span, keep, fn, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                return call(name, keep, fn, *args, **kwargs)
        return wrapper

    def install(self, package) -> None:
        """Replace each traced function wherever an nbdistill module bound it."""
        layer_module = {m: sys.modules[f"{package.__name__}.{m}"] for m in (*LAYERS, "cli")}
        modules = [package, *layer_module.values()]
        for layer, funcs in LAYERS.items():
            for func in funcs:
                original = getattr(layer_module[layer], func)
                wrapper = self.wrap(layer, func, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self.patched.append((module, attr, original))

    def remove(self) -> None:
        for module, attr, original in reversed(self.patched):
            setattr(module, attr, original)
        self.patched.clear()

    def metrics(self) -> Dict[str, float]:
        out: Dict[str, float] = dict(self.counts)
        layer_self = {layer: 0.0 for layer in LAYERS}
        untraced = 0.0
        for name, (calls, seconds, own) in self.totals.items():
            out[f"{name}_s"] = seconds
            out[f"{name}.self_s"] = own
            out[f"{name}.calls"] = calls
            layer = name.split(".", 1)[0]
            if layer in layer_self:
                layer_self[layer] += own
            else:
                untraced += own
        for layer, own in layer_self.items():
            out[f"{layer}.self_s"] = own
        out["untraced_s"] = untraced
        out["traced_wall_s"] = self.totals["run"][1]
        out["self_sum_residual_s"] = out["traced_wall_s"] - untraced - sum(layer_self.values())
        return out


def stages_skipped(workdir: Path, stages) -> int:
    """Stages a re-run will not execute: whole ledger iterations plus markers."""
    ledger = workdir / "ledger.jsonl"
    done = len(ledger.read_text(encoding="utf-8").splitlines()) if ledger.is_file() else 0
    skipped = done * len(stages)
    for itdir in workdir.glob("iter*"):
        if int(itdir.name[len("iter"):]) > done:
            skipped += sum((itdir / f".{s}.done").exists() for s in stages)
    return skipped


def run_sequence(workload, ws, k: int, cli, stages, tracer: Tracer = None):
    """Status probe plus the chain, in-process; returns (rep, wall, exits)."""
    rep = ws.rep(k)
    workload.prepare(ws.inputs, rep)
    exits = []

    def invoke(argv, log):
        with open(f"{log}.out", "w", encoding="utf-8") as out, \
                open(f"{log}.err", "w", encoding="utf-8") as err, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                return cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad arguments this way
                return exc.code if isinstance(exc.code, int) else 1

    def body():
        calls = [("status", ["status", "--workdir", str(ws.empty)], None)]
        calls += [(s.name, s.argv, s) for s in workload.steps(rep)]
        for i, (name, argv, step) in enumerate(calls):
            if step is not None and step.before is not None:
                step.before()
            if tracer is not None and name == "resume":
                tracer.count("pipeline.stages_skipped", stages_skipped(rep / "resume", stages))
            log = rep / "logs" / f"{i}.{name}"
            if tracer is None:
                exits.append((step, invoke(list(argv), log)))
            else:
                exits.append((step, tracer.call(f"cli.{name}", True, invoke, list(argv), log)))
            if step is not None and step.stdout:
                Path(f"{log}.out").replace(rep / step.stdout)

    cwd = os.getcwd()
    os.chdir(rep)
    try:
        start = time.perf_counter()
        if tracer is None:
            body()
        else:
            tracer.call("run", True, body)
        wall = time.perf_counter() - start
    finally:
        os.chdir(cwd)
    return rep, wall, exits


def span_cost(n: int = 50000) -> float:
    """Seconds a wrapper adds to one call, from n no-op calls with and without it.

    Run-to-run noise on a shared machine is larger than the whole tracing
    overhead, so the overhead is also estimated as spans x this cost.
    """
    def noop():
        return None

    wrapped = Tracer().wrap(AGGREGATED, "noop", noop)
    start = time.perf_counter()
    for _ in range(n):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(n):
        wrapped()
    return (time.perf_counter() - start - bare) / n


def hook_seconds(rep: Path) -> float:
    total = 0.0
    for log in rep.glob("*.hooks.jsonl"):
        for line in log.read_text(encoding="utf-8").splitlines():
            total += json.loads(line)["wall_s"]
    return total


def measure(workload, seed: int, seconds: float) -> dict:
    sys.path.insert(0, str(bench.ROOT / "src"))
    import nbdistill
    import nbdistill.cli as cli
    from nbdistill.pipeline import STAGES

    ledger = bench.Ledger()
    info = bench.run_info(seed)
    info["loadavg_before"] = bench.loadavg()
    info["package"] = str(Path(nbdistill.__file__).parent)
    ws = bench.Workspace(workload, seed)
    untraced: List[float] = []
    traced: List[float] = []
    layers: List[Dict[str, float]] = []
    spans: List[tuple] = []
    try:
        shape = workload.generate(seed, ws.inputs)
        start = time.perf_counter()
        k = 0
        first = None
        while True:
            k += 1
            tracer = Tracer() if k % 2 == 0 else None
            if tracer is not None:
                tracer.install(nbdistill)
            try:
                rep, wall, exits = run_sequence(workload, ws, k, cli, STAGES, tracer)
            finally:
                if tracer is not None:
                    tracer.remove()
            ops = {}
            for step, code in exits:
                key = ledger.op()
                want = 0 if step is None else step.expect_exit
                if step is not None:
                    ops.setdefault(step.name, []).append(key)
                if code != want:
                    ledger.fail(key, f"rep {k} {step.name if step else 'status'}: exit {code}")
            digests = bench.check_repetition(workload, ws, seed, k, rep, ops, ledger, first)
            if k == 1:
                first = digests
            if tracer is not None:
                traced.append(wall)
                metrics = tracer.metrics()
                metrics["hook.stub_s"] = hook_seconds(rep)
                metrics.update(shape.as_dict())
                layers.append(metrics)
                origin = tracer.spans[0][2]  # the run root opens first
                spans = [(n, p, t - origin, d, own) for n, p, t, d, own in tracer.spans]
            elif k > 1:  # repetition 1 warms caches and is checked, not timed
                untraced.append(wall)
            if k > 1:
                shutil.rmtree(rep)
            elapsed = time.perf_counter() - start
            if k >= 3 and elapsed + wall > seconds:
                break
    finally:
        info["loadavg_after"] = bench.loadavg()
        ws.close()

    names = sorted(set().union(*layers))
    median = {n: statistics.median(m.get(n, 0.0) for m in layers) for n in names}
    repeat_check = ledger.op()
    for name, unit in PER_LAYER:
        values = {m.get(name, 0) for m in layers}
        if unit == "count" and len(values) > 1:
            ledger.fail(repeat_check, f"count {name} differs between traced repetitions: {values}")
    residual = max(abs(m["self_sum_residual_s"]) for m in layers)
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    wrapped_calls = sum(v for n, v in median.items()
                        if n.endswith(".calls") and not n.startswith(("run.", "cli.")))
    cost = span_cost()
    failed = len(ledger.failed_ops)
    return {
        "workload": workload.name,
        "trace": 1,
        "info": info,
        "seconds": seconds,
        "sizes": workload.sizes,
        "shape": shape.as_dict(),
        "repetitions": k,
        "untraced_wall_s": untraced,
        "traced_wall_s": traced,
        "trace_overhead": overhead,
        "span_cost_s": cost,
        "trace_overhead_estimate": wrapped_calls * cost / statistics.median(untraced),
        "self_sum_residual_s": residual,
        "spans": spans,  # of the last traced repetition; metrics calls are summed instead
        "layers": median,
        "layer_samples": layers,
        "per_layer": {
            name: {"value": median.get(name, 0.0), "unit": unit} for name, unit in PER_LAYER
        },
        "attempted": ledger.attempted,
        "failed": failed,
        "error_rate": failed / ledger.attempted,
        "failures": ledger.failures,
    }


def print_summary(result: dict) -> None:
    print(f"== {result['workload']} traced  seed {result['info']['seed']}  "
          f"repetitions {result['repetitions']}  shape {result['shape']}")
    print(f"  untraced in-process median {statistics.median(result['untraced_wall_s']):.4f} s "
          f"(n={len(result['untraced_wall_s'])}), traced median "
          f"{statistics.median(result['traced_wall_s']):.4f} s (n={len(result['traced_wall_s'])}), "
          f"tracing overhead {100 * result['trace_overhead']:.1f}%")
    print(f"  span cost {1e6 * result['span_cost_s']:.2f} us: estimated tracing overhead "
          f"{100 * result['trace_overhead_estimate']:.2f}% of the untraced wall")
    print(f"  self times + untraced_s - traced wall: max residual "
          f"{result['self_sum_residual_s']:.2e} s")
    layers = result["layers"]
    for name in sorted(layers):
        if not (name.endswith(".calls") and name.startswith(("cli.", "run."))):
            print(f"  {name:<40} {layers[name]:.6g}")
    print(f"  {'error_rate':<40} {result['error_rate']:.4f} "
          f"({result['failed']}/{result['attempted']} operations)")
    for message in result["failures"][:20]:
        print(f"  FAILED {message}")
