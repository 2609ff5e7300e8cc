"""Command-line interface.

Subcommands: evaluate, assemble, tune, rerank, oracle, distill, selftrain,
status.  All file outputs are byte-identical across runs on identical inputs
(tuning is seeded).
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

# OpenBLAS starts a worker pool when it loads, and no BLAS call here is large
# enough to use one: load it on one thread unless the caller chose a count.
# It reads the variable only when it loads, so the variable is removed again
# and hooks and other child processes inherit the caller's environment.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .corpus import LABEL_SUFFIXES
from .mira import INIT_MODES, MiraConfig
from .pipeline import (
    HookError,
    METRICS,
    PipelineConfig,
    STRATEGIES,
    assemble_file,
    distill_file,
    evaluate_file,
    oracle_file,
    rerank_file,
    run_selftrain,
    split_names,
    status_table,
    tune_file,
)


def _sweep_size(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"--sweep takes integers, got {text!r}") from None


def cmd_evaluate(args) -> int:
    sys.stdout.write(evaluate_file(args.hyp, args.refs, args.metric))
    return 0


def cmd_assemble(args) -> int:
    scores = []
    for item in args.scores or []:
        name, _, path = item.partition("=")
        if not (name and path):
            raise ValueError(f"--scores expects NAME=FILE, got {item!r}")
        scores.append((name, path))
    assemble_file(args.nbest, args.out, args.passthrough, args.native, scores)
    return 0


def cmd_tune(args) -> int:
    config = MiraConfig(c=args.c, epochs=args.epochs, seed=args.seed, init=args.init)
    tune_file(args.matrix, args.nbest, args.refs, config, args.out)
    return 0


def cmd_rerank(args) -> int:
    # --report prints the BLEU of --refs and the features --top-k-models keeps
    if args.report and args.refs is None and args.top_k_models is None:
        raise ValueError("rerank --report requires --refs or --top-k-models")
    if not args.report and args.refs is not None:
        raise ValueError("rerank without --report does not read --refs")
    result, mask = rerank_file(args.matrix, args.nbest, args.weights, args.out,
                               args.top_k_models, args.refs)
    if args.report:
        if result.corpus_score is not None:
            print(f"BLEU\t{result.corpus_score:.4f}")
        if mask is not None:
            print(f"#active\t{','.join(sorted(mask))}")
    return 0


def cmd_oracle(args) -> int:
    sweep = None if args.sweep is None else [_sweep_size(n) for n in args.sweep]
    mode = "anti_oracle" if args.mode == "anti" else args.mode
    bleu, short_lists = oracle_file(args.nbest, args.refs, args.out, mode, sweep)
    print("note: greedy per-sentence selection by smoothed sentence BLEU "
          "(not a corpus-level oracle)", file=sys.stderr)
    if short_lists:
        print(f"warning: {short_lists} truncated list(s)", file=sys.stderr)
    if bleu is not None:
        print(f"BLEU\t{bleu:.4f}")
    return 0


def cmd_distill(args) -> int:
    for p in distill_file(args.strategy, args.nbest, args.src, args.out, args.format,
                          args.matrix, args.weights, args.top_k_models, args.orig_refs):
        print(p)
    return 0


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def cmd_selftrain(args) -> int:
    config = PipelineConfig.from_file(args.config)
    try:
        config.validate()
    except ValueError as exc:
        raise ValueError(f"{args.config}: {exc}") from None
    # SIGTERM ends the run as an exception, so that the hook calls it started
    # are ended too; in-process callers of main get their own handler back
    previous = signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        best, reason = run_selftrain(config)
    finally:
        signal.signal(signal.SIGTERM, previous)
    print(f"stop_reason\t{reason}")
    print(f"best_iteration\t{best.iter}")
    print(f"dev_bleu\t{best.dev_bleu:.4f}")
    print(f"labels\t{best.labels_path}")
    return 0


def cmd_status(args) -> int:
    sys.stdout.write(status_table(args.workdir))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nbdistill",
        description="n-best reranking toolkit for distillation pseudo-labels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", help="corpus BLEU/chrF of a hypothesis file")
    p.add_argument("--hyp", required=True, help="hypothesis file, one sentence per line")
    p.add_argument("--refs", required=True, type=split_names, help="reference file(s), comma-separated")
    p.add_argument("--metric", choices=tuple(METRICS), default="bleu")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("assemble", help="build the per-hypothesis feature matrix")
    p.add_argument("--nbest", required=True)
    p.add_argument("--native", default="", type=split_names, help="comma list of mbr_bleu,mbr_chrf,len,len_ratio")
    p.add_argument("--passthrough", default="", type=split_names, help="comma list of n-best score names ('total' reserved)")
    p.add_argument("--scores", action="append", metavar="NAME=FILE",
                   help="external score table (repeatable)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_assemble)

    p = sub.add_parser("tune", help="learn reranking weights with batch k-best MIRA")
    p.add_argument("--matrix", required=True)
    p.add_argument("--nbest", required=True)
    p.add_argument("--refs", required=True, type=split_names, help="tune reference file(s), comma-separated")
    p.add_argument("--c", type=float, default=MiraConfig.c)
    p.add_argument("--epochs", type=int, default=MiraConfig.epochs)
    p.add_argument("--seed", type=int, default=MiraConfig.seed)
    p.add_argument("--init", choices=INIT_MODES, default=MiraConfig.init)
    p.add_argument("--out", required=True, help="weights file to write")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("rerank", help="argmax selection under learned weights")
    p.add_argument("--matrix", required=True)
    p.add_argument("--nbest", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--top-k-models", type=int, default=None,
                   help="restrict to the k largest-magnitude features")
    p.add_argument("--out", required=True, help="selections TSV (SID RANK TEXT)")
    p.add_argument("--refs", default=None, type=split_names)
    p.add_argument("--report", action="store_true", help="print corpus BLEU of the selection")
    p.set_defaults(func=cmd_rerank)

    p = sub.add_parser("oracle", help="greedy oracle/anti-oracle selection and beam sweeps")
    p.add_argument("--nbest", required=True)
    p.add_argument("--refs", required=True, type=split_names)
    p.add_argument("--mode", choices=("oracle", "anti"), default=None, help="default: oracle")
    p.add_argument("--sweep", default=None, type=split_names, help="comma list of truncation sizes, e.g. 1,2,4,8")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("distill", help="emit pseudo-labels for a transfer set")
    p.add_argument("--strategy", choices=tuple(STRATEGIES), required=True)
    p.add_argument("--nbest", required=True)
    p.add_argument("--src", required=True, help="source sentences, aligned with the n-best list")
    p.add_argument("--matrix", default=None)
    p.add_argument("--weights", default=None)
    p.add_argument("--top-k-models", type=int, default=None)
    p.add_argument("--orig-refs", default=None, type=split_names, help="original labels (for --strategy ki)")
    p.add_argument("--out", required=True, help="output prefix")
    p.add_argument("--format", choices=tuple(LABEL_SUFFIXES), default="tsv")
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("selftrain", help="run the iterative self-training loop")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_selftrain)

    p = sub.add_parser("status", help="print the iteration ledger")
    p.add_argument("--workdir", required=True)
    p.set_defaults(func=cmd_status)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, HookError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
