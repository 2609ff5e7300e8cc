"""Mutation checks: plant known bugs in a copy of ``src/`` and require that
the tests named for each one catch it.

    python tests/mutants.py [NAME ...]

Each mutant replaces one text, which must occur exactly once in its file, so
that a refactor that moves the code fails here loudly instead of leaving the
mutant to pass.  The named tests first run on the unmutated copy and must
pass; then, for each mutant, ``pytest -x`` on its tests must fail.  The
package is imported from the copy through ``PYTHONPATH``.  Exits 1 if the
unmutated run fails or a mutant survives.  A change that adds a fast path or
a check adds its mutants here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: Tuple[str, ...]  # pytest node ids, one of which must fail


_WAIT = """    with ExitStack() as running:  # waits for each started call, also if a start raises
        procs = [running.enter_context(_run_hook(it, *call)) for call in calls]
"""
_CHECK = "    for (hook, set_name, _, out_path), proc in zip(calls, procs):\n"
_SUM = """        total = 0.0
        for j in range(n):
            if j != i:
                total += pair(i, j)
"""
_ROW = "clipped, totals, hyp_len, ref_len = stats[0:4], stats[4:8], stats[8], stats[9]"
_HOOKS = "tests/test_pipeline.py::TestHookCalls::"

MUTANTS = (
    # the calls of a hook stage
    Mutant("hooks-wait-after-each-start", "src/nbdistill/pipeline.py", _WAIT, _WAIT.replace(
        "running.enter_context(_run_hook(it, *call))",
        "(proc := running.enter_context(_run_hook(it, *call)), proc.wait())[0]"),
        (_HOOKS + "test_the_calls_of_a_stage_run_together",)),
    Mutant("hooks-raise-before-the-others-are-waited-for", "src/nbdistill/pipeline.py",
           _WAIT + _CHECK,
           "    procs = [_run_hook(it, *call) for call in calls]\n" + _CHECK
           + "        proc.wait()\n",
           (_HOOKS + "test_a_failed_call_waits_for_its_siblings",)),
    Mutant("hooks-a-start-that-raises-is-not-waited-for", "src/nbdistill/pipeline.py", _WAIT,
           "    procs = [_run_hook(it, *call) for call in calls]\n"
           "    for proc in procs:\n        proc.wait()\n",
           (_HOOKS + "test_a_start_that_raises_waits_for_the_started_calls",)),
    Mutant("hooks-failures-in-completion-order", "src/nbdistill/pipeline.py", _WAIT, """\
    procs = [_run_hook(it, *call) for call in calls]
    order = []
    while len(order) < len(procs):
        order += [n for n, proc in enumerate(procs) if n not in order and proc.poll() is not None]
    calls, procs = [calls[n] for n in order], [procs[n] for n in order]
""", (_HOOKS + "test_the_first_failure_in_call_order_is_reported",)),
    Mutant("hooks-stderr-tail-keeps-leading-blank-lines", "src/nbdistill/pipeline.py",
           "            if kept:\n                blank.append(line)\n",
           "            blank.append(line)\n",
           ("tests/test_pipeline.py::test_last_lines_of_a_stream_equal_those_of_its_whole_text",)),
    Mutant("hooks-stderr-tail-unstripped", "src/nbdistill/pipeline.py",
           "kept[-1] = kept[-1].rstrip()", "kept[-1] = kept[-1]",
           ("tests/test_pipeline.py::test_last_lines_of_a_stream_equal_those_of_its_whole_text",)),
    # BLEU statistics rows and the MBR sums
    Mutant("mbr-builtin-sum", "src/nbdistill/features.py", _SUM,
           "        total = sum(pair(i, j) for j in range(n) if j != i)\n",
           ("tests/test_features.py::test_every_float_reduction_is_in_a_fixed_order_or_listed",)),
    Mutant("bleu-lengths-swapped", "src/nbdistill/metrics.py", _ROW,
           _ROW.replace("stats[8], stats[9]", "stats[9], stats[8]"),
           ("tests/test_metrics.py::TestCorpusBleu::test_constructed_stats_agree_with_formula",)),
    Mutant("bleu-slices-swapped", "src/nbdistill/metrics.py", _ROW,
           _ROW.replace("stats[0:4], stats[4:8]", "stats[4:8], stats[0:4]"),
           ("tests/test_metrics.py::TestCorpusBleu::test_constructed_stats_agree_with_formula",)),
    Mutant("mbr-pair-lengths-swapped", "src/nbdistill/features.py",
           "len(toks[i]), len(toks[j])", "len(toks[j]), len(toks[i])",
           ("tests/test_features.py::TestMbrUtility::test_bit_identical_to_per_pair_definition",)),
)


def pytest(tests, env) -> int:
    """The exit status of ``pytest -q -x`` on ``tests``, run from the repository root."""
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 1
    mutants = [m for m in MUTANTS if not names or m.name in names]
    for m in mutants:
        count = (ROOT / m.file).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            print(f"{m.name}: the old text occurs {count} times in {m.file}, not once")
            return 1
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        where = subprocess.run([sys.executable, "-c", "import nbdistill; print(nbdistill.__file__)"],
                               env=env, capture_output=True, text=True).stdout.strip()
        if not where.startswith(str(copy / "src")):
            print(f"the package is imported from {where!r}, not from the copy")
            return 1
        tests = sorted({t for m in mutants for t in m.tests})
        if pytest(tests, env) != 0:
            print(f"the tests fail without a mutant: {' '.join(tests)}")
            return 1
        survived = 0
        for m in mutants:
            path = copy / m.file
            text = path.read_text(encoding="utf-8")
            mutated = text.replace(m.old, m.new)
            compile(mutated, m.file, "exec")  # a syntax error would count as killed
            path.write_text(mutated, encoding="utf-8")
            start = time.perf_counter()
            try:
                killed = pytest(m.tests, env) != 0
            finally:
                path.write_text(text, encoding="utf-8")
            survived += not killed
            print(f"{'killed' if killed else 'SURVIVED':<9}{m.name} "
                  f"({time.perf_counter() - start:.1f} s)")
    print(f"{len(mutants) - survived} of {len(mutants)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
