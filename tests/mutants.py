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


_WAIT = """    procs: List[subprocess.Popen] = []
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
"""
_START = "                procs.append(running.enter_context(_run_hook(it, *call)))\n"
_KILL = "                    os.killpg(proc.pid, signal.SIGTERM)\n"
_HANDLER = "    previous = signal.signal(signal.SIGTERM, _exit_on_sigterm)\n"
_CHECK = "    for (hook, set_name, _, out_path), proc in zip(calls, procs):\n"
_SUM = """        total = 0.0
        for j in range(n):
            if j != i:
                total += pair(i, j)
"""
_LOOKUP = """    label, score, signature = METRICS[known(metric, METRICS, "metric")]
    hyps, loaded = load_lines(hyp), load_references(refs)
"""
_ROW = "clipped, totals, hyp_len, ref_len = stats[0:4], stats[4:8], stats[8], stats[9]"
_HOOKS = "tests/test_pipeline.py::TestHookCalls::"
_INTERRUPT = "tests/test_cli.py::test_an_interrupted_selftrain_ends_its_hook_calls"
_UNREAD = """        if value is not None and name not in reads:
            raise ValueError(f"{step} does not read {flag}")
"""
_SWEEP_MODE = """    if sweep is not None:
        _check_reads("oracle --sweep", {}, {"mode": mode})
"""
_NO_REPORT = """    if args.report and args.refs is None and args.top_k_models is None:
        raise ValueError("rerank --report requires --refs or --top-k-models")
"""
_REFS_UNREPORTED = """    if not args.report and args.refs is not None:
        raise ValueError("rerank without --report does not read --refs")
"""
_RULES = "tests/test_pipeline.py::test_an_argument_the_mode_does_not_read_fails_before_a_file_is_read"
_MODE_FLAGS = "tests/test_cli.py::TestModeFlags::test_a_flag_the_mode_does_not_read_fails"
_MBR = "tests/test_features.py::TestMbrUtility::"
_COPIED = "tests/test_pipeline.py::TestSelfTrain::test_a_copied_workdir_finalizes_from_its_own_files"
_BAD_VALUE = "tests/test_pipeline.py::test_a_bad_value_fails_before_a_file_is_read"
_EARLY_TOP_K = """    if top_k_models is not None and top_k_models < 1:
        raise ValueError(f"--top-k-models must be >= 1, got {top_k_models}")
"""
_WRITE_ROWS = "enumerate(arr.astype(np.float64, copy=False).tolist())"

MUTANTS = (
    # the calls of a hook stage
    Mutant("hooks-wait-after-each-start", "src/nbdistill/pipeline.py", _START,
           _START + "                procs[-1].wait()\n",
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
    Mutant("hooks-every-exception-ends-the-calls", "src/nbdistill/pipeline.py",
           "        except (KeyboardInterrupt, SystemExit):\n",
           "        except BaseException:\n",
           (_HOOKS + "test_a_start_that_raises_waits_for_the_started_calls",)),
    # an interrupted selftrain
    Mutant("hooks-an-interrupt-leaves-the-calls-running", "src/nbdistill/pipeline.py", _KILL,
           _KILL.replace("os.killpg(proc.pid, signal.SIGTERM)", "pass"),
           (_INTERRUPT + "[SIGTERM]",)),
    Mutant("hooks-calls-in-the-orchestrator-session", "src/nbdistill/pipeline.py",
           "start_new_session=True", "start_new_session=False", (_INTERRUPT + "[SIGINT]",)),
    Mutant("selftrain-sigterm-not-handled", "src/nbdistill/cli.py", _HANDLER,
           _HANDLER.replace("_exit_on_sigterm", "signal.getsignal(signal.SIGTERM)"),
           (_INTERRUPT + "[SIGTERM]",)),
    Mutant("selftrain-sigterm-handler-kept", "src/nbdistill/cli.py",
           "        signal.signal(signal.SIGTERM, previous)\n", "        pass\n",
           ("tests/test_cli.py::test_selftrain_holds_its_sigterm_handler_only_while_it_runs",)),
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
    Mutant("mbr-pair-lengths-swapped", "src/nbdistill/metrics.py",
           "len(toks[i]), len(toks[j])", "len(toks[j]), len(toks[i])",
           (_MBR + "test_bit_identical_to_per_pair_definition",)),
    # BLEU and chrF statistics
    Mutant("ref-length-ties-to-the-longer", "src/nbdistill/metrics.py",
           "[sorted(map(len, refs)) for refs", "[sorted(map(len, refs), reverse=True) for refs",
           ("tests/test_metrics.py::TestSentenceStats::test_closest_ref_len_tie_goes_shorter",)),
    Mutant("hyp-stats-short-validity-mask", "src/nbdistill/metrics.py",
           "    return HypStats(stats, valid)\n",
           "    return HypStats(stats, np.arange(n_max) < lengths[:, None] - 1)\n",
           ("tests/test_metrics.py::TestHypStats::test_equal_to_per_hypothesis_loop",)),
    Mutant("chrf-worst-reference", "src/nbdistill/metrics.py",
           "return max((stats(0, r)", "return min((stats(0, r)",
           ("tests/test_metrics.py::TestChrf::test_multi_reference_takes_best",)),
    # checks before reads
    Mutant("evaluate-metric-looked-up-after-the-reads", "src/nbdistill/pipeline.py", _LOOKUP,
           "\n".join(reversed(_LOOKUP.splitlines())) + "\n",
           ("tests/test_pipeline.py::test_an_unknown_name_fails_before_a_file_is_read"
            "[evaluate_file-misspelt]",)),
    # the argument rules of the file-level steps and of rerank --report
    Mutant("step-unread-argument-accepted", "src/nbdistill/pipeline.py", _UNREAD, "",
           (_RULES + "[kd-matrix]",)),
    Mutant("step-needed-but-empty-argument-accepted", "src/nbdistill/pipeline.py",
           "and not value:", "and value is None:",
           ("tests/test_pipeline.py::test_distill_names_a_missing_argument_before_a_file_is_read"
            "[ki-empty]",)),
    Mutant("oracle-sweep-reads-mode", "src/nbdistill/pipeline.py", _SWEEP_MODE,
           "    if sweep is not None:\n",
           (_RULES + "[oracle-sweep-mode]",)),
    Mutant("rerank-report-without-refs-or-mask", "src/nbdistill/cli.py", _NO_REPORT, "",
           (_MODE_FLAGS + "[rerank --matrix m --nbest n --weights w --out o --report-"
            "rerank --report requires --refs or --top-k-models]",)),
    Mutant("rerank-refs-without-report", "src/nbdistill/cli.py", _REFS_UNREPORTED, "",
           (_MODE_FLAGS + "[rerank --matrix m --nbest n --weights w --out o --refs r-"
            "rerank without --report does not read --refs]",)),
    # a copied or moved workdir
    Mutant("finalize-from-the-ledger-path", "src/nbdistill/pipeline.py",
           "zip(_Iteration(config, best.iter).label_files,",
           'zip(label_paths(Path(best.labels_path).with_suffix(""), config.label_format),',
           (_COPIED,)),
    Mutant("resume-checks-the-ledger-paths", "src/nbdistill/pipeline.py",
           '(("weights", it.weights), ("labels", it.label_files[-1]))',
           '(("weights", state.weights_path), ("labels", state.labels_path))',
           (_COPIED,)),
    # what only a child process shows
    Mutant("main-exit-status-dropped", "src/nbdistill/__main__.py",
           "sys.exit(main())", "sys.exit(main() and 0)",
           ("tests/test_cli.py::TestConfigSyntaxErrors::test_error_names_the_file_and_the_line"
            "[json]",)),
    Mutant("cli-import-keeps-the-blas-pin", "src/nbdistill/cli.py",
           '        del os.environ["OPENBLAS_NUM_THREADS"]\n', "        pass\n",
           ("tests/test_startup.py::test_cli_loads_openblas_on_one_thread_and_unsets_the_pin",)),
    # chrF, MBR and n-gram statistics
    Mutant("chrf-whitespace-not-collapsed", "src/nbdistill/metrics.py",
           'return " ".join(s.split())', "return s",
           ("tests/test_metrics.py::TestChrf::test_whitespace_runs_collapse",)),
    Mutant("mbr-reversed-sum", "src/nbdistill/features.py",
           "for j in range(n):", "for j in reversed(range(n)):",
           (_MBR + "test_bytes_pinned_on_a_list_where_compensated_sums_differ",)),
    Mutant("mbr-fixed-self-pair", "src/nbdistill/features.py",
           "return [pair(0, 0)]", "return [100.0]",
           (_MBR + "test_bit_identical_to_per_pair_definition",)),
    Mutant("overlap-counts-capped-at-one", "src/nbdistill/metrics.py",
           "np.minimum(row, counts).sum(axis=1)", "np.minimum(np.minimum(row, counts), 1).sum(axis=1)",
           ("tests/test_metrics.py::TestOverlaps::test_word_sequences_equal_to_counter_intersection",)),
    Mutant("ngram-keys-collide", "src/nbdistill/metrics.py",
           "prefix[start] * v + tokens[start + k]", "prefix[start] + tokens[start + k]",
           ("tests/test_metrics.py::TestSentenceStats::test_matches_oracle",)),
    # the config reader
    Mutant("config-repeated-json-key-accepted", "src/nbdistill/pipeline.py",
           'raise ValueError(f"repeated key {key!r}")', "pass",
           ("tests/test_pipeline.py::TestConfig::test_repeated_json_key_rejected[key]",)),
    Mutant("config-line-split-at-the-last-equals", "src/nbdistill/pipeline.py",
           'line.partition("=")', 'line.rpartition("=")',
           ("tests/test_pipeline.py::test_ini_reader_matches_configparser",)),
    # the inputs that no writer feeds
    Mutant("ledger-hook-statuses-accepted", "src/nbdistill/pipeline.py",
           "            state = IterationState(**json.loads(line))\n",
           "            obj = json.loads(line)\n"
           "            if isinstance(obj, dict):\n"
           "                obj.pop(\"hook_statuses\", None)\n"
           "            state = IterationState(**obj)\n",
           ("tests/test_pipeline.py::TestLedgerValidation::test_rejects_a_line_that_is_no_entry"
            "[hook-statuses]",)),
    Mutant("config-test-src-accepted", "src/nbdistill/pipeline.py",
           '"dev_refs", "transfer_src"),', '"dev_refs", "transfer_src", "test_src"),',
           ("tests/test_pipeline.py::TestConfig::test_unknown_json_key_rejected[test-src]",)),
    # value rules checked before a file is read
    Mutant("top-k-models-checked-after-the-reads", "src/nbdistill/pipeline.py", _EARLY_TOP_K, "",
           (_BAD_VALUE + "[rerank-top-k-models]",)),
    Mutant("oracle-sweep-sizes-checked-after-the-reads", "src/nbdistill/pipeline.py",
           "        check_sweep(sweep)\n", "", (_BAD_VALUE + "[sweep-zero]",)),
    # status and the matrix writer
    Mutant("status-prints-the-ledger-path", "src/nbdistill/pipeline.py",
           'str(base / f"iter{s.iter}" / Path(s.labels_path).name)', "s.labels_path",
           ("tests/test_pipeline.py::TestSelfTrain::"
            "test_status_names_the_files_of_the_workdir_it_is_given",)),
    Mutant("matrix-rows-out-of-order", "src/nbdistill/features.py", _WRITE_ROWS,
           _WRITE_ROWS.replace(".tolist()", ".tolist()[::-1]"),
           ("tests/test_features.py::TestMatrixIO::test_each_value_is_written_as_the_repr_of_its_float",)),
    Mutant("matrix-values-in-their-own-dtype", "src/nbdistill/features.py", _WRITE_ROWS,
           "enumerate(arr.tolist())",
           ("tests/test_features.py::TestMatrixIO::test_each_value_is_written_as_the_repr_of_its_float",)),
    # MIRA's visit order
    Mutant("pcg-spare-halves-swapped", "src/nbdistill/mira.py",
           "self.spare, value = value >> 32, value & _M32",
           "self.spare, value = value & _M32, value >> 32",
           ("tests/test_mira.py::TestVisitOrder::test_pinned_orders",)),
    Mutant("pcg-modulo-for-rejection", "src/nbdistill/mira.py",
           "while (j := draw() & mask) > i:", "while (j := draw() % (i + 1)) > i:",
           ("tests/test_mira.py::TestVisitOrder::test_pinned_orders",)),
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
