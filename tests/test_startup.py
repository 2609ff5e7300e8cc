"""What importing the package and the CLI does to a fresh process.

``import nbdistill`` loads no numpy.  ``import nbdistill.cli`` loads OpenBLAS
on one thread unless the caller set one of the variables OpenBLAS reads for
its thread count, and leaves the environment of child processes as it found
it.  ``nbdistill tune`` loads ``numpy.random`` only if ``import numpy`` does.
Each case runs in a fresh interpreter, because numpy is loaded once per
process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nbdistill.pipeline import assemble_file
from synth import child_env, make_corpus, nbest_lines, write_lines

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/task").is_dir(), reason="counts threads through /proc/self/task"
)

PROBE = """
import json, os, subprocess, sys
import {module}
threads = len(os.listdir("/proc/self/task"))
child = [line.split("=", 1) for line in subprocess.run(
    ["env"], capture_output=True, text=True, check=True
).stdout.splitlines()]
variables = {variables!r}
print(json.dumps({{
    "numpy": "numpy" in sys.modules,
    "threads": threads,
    "environ": {{k: v for k, v in os.environ.items() if k in variables}},
    "child": {{kv[0]: kv[1] for kv in child if kv[0] in variables}},
}}))
"""


def fresh(code, **variables):
    """Run ``code`` in a fresh interpreter whose environment sets only
    ``variables`` of the thread variables; its standard output as JSON."""
    env = child_env({k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES})
    env.update(variables)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def probe(module, **variables):
    """Import ``module`` in a fresh interpreter whose environment sets only
    ``variables`` of the thread variables, and report on the process and on
    the environment of a child it starts."""
    return fresh(PROBE.format(module=module, variables=THREAD_VARIABLES), **variables)


def test_package_import_loads_no_numpy():
    assert probe("nbdistill")["numpy"] is False


def test_cli_loads_openblas_on_one_thread_and_unsets_the_pin():
    assert probe("nbdistill.cli") == {"numpy": True, "threads": 1, "environ": {}, "child": {}}


@pytest.mark.skipif(
    hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) < 2,
    reason="OpenBLAS starts no more threads than there are CPUs",
)
@pytest.mark.parametrize("variable", THREAD_VARIABLES)
def test_cli_keeps_the_callers_thread_count(variable):
    assert probe("nbdistill.cli", **{variable: "2"}) == {
        "numpy": True, "threads": 2, "environ": {variable: "2"}, "child": {variable: "2"},
    }


def test_tune_loads_numpy_random_only_if_numpy_does(tmp_path):
    # numpy 1.x imports numpy.random with numpy; numpy 2 loads it on first use
    _, refs, hyps = make_corpus(10, 4, seed=20)
    write_lines(tmp_path / "nbest.txt", nbest_lines(hyps))
    write_lines(tmp_path / "ref.txt", [r[0] for r in refs])
    assemble_file(tmp_path / "nbest.txt", tmp_path / "matrix.tsv", ["total", "lm"], ["len"])
    argv = ["tune", "--matrix", "matrix.tsv", "--nbest", "nbest.txt", "--refs", "ref.txt",
            "--epochs", "3", "--out", str(tmp_path / "weights.tsv")]
    tune = fresh(
        f"import json, os, sys\nos.chdir({str(tmp_path)!r})\nfrom nbdistill.cli import main\n"
        f"code = main({argv!r})\n"
        "print(json.dumps([code, 'numpy.random' in sys.modules]))"
    )
    bare = fresh("import json, sys, numpy\nprint(json.dumps('numpy.random' in sys.modules))")
    assert tune == [0, bare]
    assert (tmp_path / "weights.tsv").read_text().startswith("total\t")
