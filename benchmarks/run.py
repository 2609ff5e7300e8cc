"""nbdistill benchmark: seeded batch workloads timed through the real CLI.

Untraced mode (``--trace 0``) runs each workload's command chain as one child
process per command, one process at a time, repeating the chain until
``--seconds`` is used up, and reports the end-to-end metrics as medians over
repetitions.  Traced mode (``--trace 1``) replays the same chain in-process
with spans around the public functions of every layer module (see
``tracing.py``) and reports per-layer metrics.  Both modes check every output
(see ``checks.py``).

    python3 benchmarks/run.py --workload consensus --seed 0 --seconds 40 --trace 0
    python3 benchmarks/run.py --all --seed 0 --seconds 40

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a run record with the raw samples
is written under ``.bench_work/records/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
DIGESTS = BENCH / "digests.json"
DEFAULT_SEED = 0
SETUP_PROBES = 2  # status calls after each repetition, so they spread over the run
COMMAND_TIMEOUT_S = 150.0
REQUIRED = ("src/nbdistill/cli.py", "tests/synth.py", "tests/oracles.py")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "hyps_per_s": "1/s",
    "peak_rss_mb": "MB",
}
COMMANDS = ("assemble", "tune", "rerank", "distill", "ki", "oracle", "selftrain", "resume")


def require_checkout() -> None:
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not an nbdistill checkout, missing {', '.join(missing)}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "tests"))
    sys.path.insert(0, str(BENCH))


def summarize(values: List[float]) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    s = sorted(values)
    n = len(s)
    out = {"median": statistics.median(s), "n": n, "tail_pct": None, "tail": None}
    if n >= 11:
        out["tail_pct"] = 100.0 * (n - 10) / n
        out["tail"] = s[n - 11]
    return out


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def artifact_digests(workload, rep: Path) -> Dict[str, Optional[str]]:
    return {
        rel: sha256(rep / rel) if (rep / rel).is_file() else None
        for rel in workload.artifacts()
    }


def loadavg() -> Optional[str]:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def run_info(seed: int) -> dict:
    import numpy  # the program's own dependency, imported here only for its version

    commit = None
    if (ROOT / ".git").exists():  # a plain source checkout has no commit to report
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for p in sorted((ROOT / "src" / "nbdistill").glob("*.py")):
        src.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


@dataclass
class Call:
    step: str
    rep: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit: int


def cli_env() -> Dict[str, str]:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + old if old else "")
    return env


def run_cli(argv: List[str], cwd: Path, log_stem: Path, env: Dict[str, str]):
    """Run one ``nbdistill`` command; returns (exit, wall_s, cpu_s, maxrss_mb).

    ``os.wait4`` gives the child's user+sys time and peak RSS, including any
    hook processes it waited for.
    """
    with open(f"{log_stem}.out", "wb") as out, open(f"{log_stem}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "nbdistill", *argv], cwd=cwd, env=env, stdout=out, stderr=err
        )
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


@dataclass
class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    failed_ops: set = field(default_factory=set)

    def op(self) -> int:
        self.attempted += 1
        return self.attempted

    def fail(self, op_key, message: str) -> None:
        self.failed_ops.add(op_key)
        self.failures.append(message)


class Workspace:
    """Per-run working directory inside the checkout; removed at the end."""

    def __init__(self, workload, seed: int):
        self.root = WORK / f"{workload.name}-s{seed}-{os.getpid()}"
        shutil.rmtree(self.root, ignore_errors=True)
        self.inputs = self.root / "inputs"
        self.empty = self.root / "empty"
        self.inputs.mkdir(parents=True)
        self.empty.mkdir()

    def rep(self, k: int) -> Path:
        path = self.root / f"rep{k}"
        path.mkdir()
        (path / "logs").mkdir()
        return path

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def probe_setup(ws: Workspace, ledger: Ledger, env, samples: List[float], tag: str) -> None:
    """A CLI call that does no work: interpreter start plus package import."""
    key = ledger.op()
    code, wall, _, _ = run_cli(
        ["status", "--workdir", str(ws.empty)], ws.root, ws.root / f"probe{tag}", env
    )
    out = Path(f"{ws.root / f'probe{tag}'}.out").read_text(encoding="utf-8")
    if code != 0 or out != "no iterations recorded\n":
        ledger.fail(key, f"setup probe: exit {code}, stdout {out!r}")
    samples.append(wall)


def run_chain(workload, ws: Workspace, k: int, ledger: Ledger, env, calls: List[Call]):
    rep = ws.rep(k)
    workload.prepare(ws.inputs, rep)
    ops = {}
    for i, step in enumerate(workload.steps(rep)):
        if step.before is not None:
            step.before()
        key = ledger.op()
        ops.setdefault(step.name, []).append(key)
        log = rep / "logs" / f"{i}.{step.name}"
        code, wall, cpu, rss = run_cli(list(step.argv), rep, log, env)
        calls.append(Call(step.name, k, wall, cpu, rss, code))
        if code != step.expect_exit:
            err = Path(f"{log}.err").read_text(encoding="utf-8", errors="replace")[-500:]
            ledger.fail(key, f"rep {k} {step.name}: exit {code}, expected {step.expect_exit}: {err}")
        if step.stdout:
            shutil.copyfile(f"{log}.out", rep / step.stdout)
    return rep, ops


def record_failures(ledger: Ledger, ops: Dict[str, List[int]], problems, where: str) -> None:
    for step, message in problems:
        keys = ops.get(step) or [0]
        ledger.fail(keys[-1], f"{where} {step}: {message}")


def check_digests(workload, seed: int, digests: Dict[str, Optional[str]]):
    """Compare the default seed's artifacts with the committed digests.

    For the default seed a missing digest file, a missing entry or other
    workload sizes than the recorded ones fail the check on the first step.
    """
    if seed != DEFAULT_SEED:
        return []
    producers = workload.artifacts()
    first = next(iter(producers.values()))
    table = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
    entry = table.get(workload.name)
    if entry is None:
        return [(first, f"no committed digests for {workload.name} in {DIGESTS.name}")]
    if entry["sizes"] != workload.sizes:
        return [(first, f"sizes {workload.sizes} differ from the digested {entry['sizes']}")]
    return [
        (producers[rel], f"{rel}: sha256 differs from the committed digest")
        for rel, want in entry["artifacts"].items()
        if digests.get(rel) != want
    ]


def check_repetition(workload, ws, seed, k, rep, ops, ledger, first_digests):
    """Oracle-check repetition 1; later ones must be byte-identical to it.

    Returns the repetition's artifact digests.
    """
    import checks

    digests = artifact_digests(workload, rep)
    if k == 1:
        problems = checks.check(workload, ws.inputs, rep, seed)
        problems += check_digests(workload, seed, digests)
    else:
        producers = workload.artifacts()
        problems = [
            (producers[rel], f"{rel} differs from repetition 1")
            for rel in digests if digests[rel] != first_digests[rel]
        ]
    record_failures(ledger, ops, problems, f"rep {k}")
    return digests


def measure(workload, seed: int, seconds: float) -> dict:
    """Untraced mode: repeated CLI chains, checked, summarized."""
    env = cli_env()
    ledger = Ledger()
    info = run_info(seed)
    info["loadavg_before"] = loadavg()
    ws = Workspace(workload, seed)
    try:
        t0 = time.perf_counter()
        shape = workload.generate(seed, ws.inputs)
        generate_s = time.perf_counter() - t0
        setup: List[float] = []
        probe_setup(ws, ledger, env, [], "warm")  # compiles bytecode; not a sample
        calls: List[Call] = []
        chain_walls: List[float] = []
        first_digests = None
        start = time.perf_counter()
        k = 0
        while True:
            k += 1
            t = time.perf_counter()
            rep, ops = run_chain(workload, ws, k, ledger, env, calls)
            digests = check_repetition(workload, ws, seed, k, rep, ops, ledger, first_digests)
            if k == 1:
                first_digests = digests
            else:
                shutil.rmtree(rep)
            for i in range(SETUP_PROBES):
                probe_setup(ws, ledger, env, setup, f"r{k}.{i}")
            chain_walls.append(time.perf_counter() - t)
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(chain_walls) > seconds:
                break
    finally:
        info["loadavg_after"] = loadavg()
        ws.close()

    reps = k
    per_rep = {r: [c for c in calls if c.rep == r] for r in range(1, reps + 1)}
    series = {
        "setup_s": setup,
        "wall_s": [sum(c.wall_s for c in cs) for cs in per_rep.values()],
        "cpu_s": [sum(c.cpu_s for c in cs) for cs in per_rep.values()],
        "peak_rss_mb": [max(c.rss_mb for c in cs) for cs in per_rep.values()],
    }
    series["hyps_per_s"] = [shape.hyps / w for w in series["wall_s"]]
    for name in COMMANDS + ("crash",):
        vals = [sum(c.wall_s for c in cs if c.step == name) for cs in per_rep.values()]
        if any(c.step == name for c in calls):
            series[f"{name}_s"] = vals
    failed = len(ledger.failed_ops)
    return {
        "workload": workload.name,
        "trace": 0,
        "info": info,
        "seconds": seconds,
        "sizes": workload.sizes,
        "shape": shape.as_dict(),
        "generate_s": generate_s,
        "repetitions": reps,
        "summary": {name: summarize(vals) for name, vals in series.items()},
        "error_rate": failed / ledger.attempted,
        "attempted": ledger.attempted,
        "failed": failed,
        "failures": ledger.failures,
        "samples": {"setup_s": setup, "calls": [c.__dict__ for c in calls]},
        "digests": first_digests,
    }


def print_summary(result: dict) -> None:
    name = result["workload"]
    print(f"== {name}  seed {result['info']['seed']}  repetitions {result.get('repetitions')}  "
          f"shape {json.dumps(result['shape'])}")
    units = dict(END_TO_END, **{f"{c}_s": "s" for c in COMMANDS})
    for metric, unit in units.items():
        s = result["summary"].get(metric)
        if s is None:
            print(f"  {metric:<14} n/a")
            continue
        tail = "n/a (n<11)" if s["tail"] is None else f"p{s['tail_pct']:.0f} {s['tail']:.4f}"
        print(f"  {metric:<14} median {s['median']:.4f} {unit:<4} tail {tail}  n={s['n']}")
    print(f"  {'error_rate':<14} {result['error_rate']:.4f} ratio  "
          f"({result['failed']}/{result['attempted']} operations)")
    for message in result["failures"][:20]:
        print(f"  FAILED {message}")


def write_record(result: dict) -> Path:
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    path = records / (f"{result['workload']}-seed{result['info']['seed']}-"
                      f"trace{result['trace']}-{stamp}-{os.getpid()}.json")
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def contract_line(result: dict) -> dict:
    if result["trace"]:
        metrics = result["per_layer"]
    else:
        metrics = {
            name: {"value": result["summary"][name]["median"], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def record_digests(workload, seed: int) -> None:
    """Run the chain once on ``seed``, check it and store its artifact digests."""
    import checks

    ledger = Ledger()
    ws = Workspace(workload, seed)
    try:
        workload.generate(seed, ws.inputs)
        rep, ops = run_chain(workload, ws, 1, ledger, cli_env(), [])
        record_failures(ledger, ops, checks.check(workload, ws.inputs, rep, seed), "rep 1")
        digests = artifact_digests(workload, rep)
    finally:
        ws.close()
    if ledger.failures:
        sys.exit(f"error: not recording digests of a failing run: {ledger.failures[:3]}")
    table = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
    table[workload.name] = {"seed": seed, "sizes": workload.sizes, "artifacts": digests}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    require_checkout()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--workload", choices=sorted(WORKLOADS))
    group.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store the artifact digests of --seed in digests.json")
    args = parser.parse_args(argv)

    names = sorted(WORKLOADS) if args.all else [args.workload]
    if args.record_digests:
        for name in names:
            record_digests(WORKLOADS[name](), args.seed)
        return 0
    lines = {}
    for name in names:
        workload = WORKLOADS[name]()
        if args.trace:
            import tracing

            result = tracing.measure(workload, args.seed, args.seconds)
            tracing.print_summary(result)
        else:
            result = measure(workload, args.seed, args.seconds)
            print_summary(result)
        print(f"  record {write_record(result)}")
        lines[name] = contract_line(result)
    sys.stdout.flush()
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
