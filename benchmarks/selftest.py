"""Self-test of the benchmark's own checker, on tiny workloads.

For each workload: an untouched chain must pass every check, a chain with
one corrupted artifact must fail the step that produced it, raising the
error rate above 0, and the default seed must fail the digest check at
sizes other than the recorded ones.  Finally the traced mode must run
cleanly and satisfy its self-time identity.  Run from the root of a checkout:

    python3 benchmarks/selftest.py

It is not a pytest module, so tier-1 (which collects only ``tests/``) never
runs it.  It takes well under a minute.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402  (benchmarks/run.py)

SEED = 7
TINY = {
    "consensus": {"sentences": 3, "n": 6},
    "tune_transfer": {"sentences": 6, "n": 16},  # the sweep goes up to 16
    "selftrain": {"tune": 8, "dev": 6, "transfer": 10, "n_max": 4},
}


def replace_line(path: Path, index: int, edit) -> None:
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[index] = edit(lines[index])
    path.write_text("\n".join(lines), encoding="utf-8")


def bump_number(line: str) -> str:
    """Add 1 to the last tab-separated field of a line."""
    head, _, value = line.rpartition("\t")
    return f"{head}\t{float(value) + 1.0:.4f}"


# workload -> (artifact, producing step, corruption)
CORRUPTIONS = {
    "consensus": ("rerank.out", "rerank", lambda p: replace_line(p, 0, bump_number)),
    "tune_transfer": ("sweep.tsv", "oracle", lambda p: replace_line(p, 1, bump_number)),
    "selftrain": ("resume/iter3/selected.txt", "resume",
                  lambda p: p.write_text("lm\n", encoding="utf-8")),
}


def checked_chain(workload, corrupt) -> bench.Ledger:
    """One chain through the CLI, optionally corrupted, then the checker."""
    ledger = bench.Ledger()
    ws = bench.Workspace(workload, SEED)
    try:
        workload.generate(SEED, ws.inputs)
        rep, ops = bench.run_chain(workload, ws, 1, ledger, bench.cli_env(), [])
        if corrupt is not None:
            rel, _, mutate = corrupt
            mutate(rep / rel)
        bench.check_repetition(workload, ws, SEED, 1, rep, ops, ledger, None)
    finally:
        ws.close()
    return ledger


def main() -> int:
    bench.require_checkout()
    import tracing
    from workloads import WORKLOADS

    failures = []
    for name, sizes in TINY.items():
        workload = WORKLOADS[name](sizes)
        clean = checked_chain(workload, None)
        if clean.failures:
            failures.append(f"{name}: clean chain failed checks: {clean.failures[:3]}")
        if not bench.check_digests(workload, bench.DEFAULT_SEED, {}):
            failures.append(f"{name}: seed {bench.DEFAULT_SEED} passed without matching digests")
        rel, step, _ = CORRUPTIONS[name]
        broken = checked_chain(workload, CORRUPTIONS[name])
        rate = len(broken.failed_ops) / broken.attempted
        if rate == 0 or not any(f" {step}: " in f for f in broken.failures):
            failures.append(f"{name}: corrupted {rel} was not caught ({broken.failures[:3]})")
        traced = tracing.measure(workload, SEED, 0.0)
        if traced["failed"] or abs(traced["self_sum_residual_s"]) > 1e-6:
            failures.append(f"{name}: traced run failed: {traced['failures'][:3]}")
        print(f"{name}: clean {len(clean.failures)} failures; corrupted {rel} -> error_rate "
              f"{rate:.3f}; traced {traced['failed']} failures")
    for message in failures:
        print(f"FAIL {message}")
    print("selftest " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
