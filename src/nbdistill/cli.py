"""Command-line interface.

Subcommands: evaluate, assemble, tune, rerank, oracle, distill, selftrain,
status.  All file outputs are byte-identical across runs on identical inputs
(tuning is seeded).
"""

from __future__ import annotations

import argparse
import sys

from . import metrics
from .corpus import (
    LABEL_SUFFIXES, load_file, load_nbest, load_reference_files, load_sources, read_fields,
    write_pseudo_labels, write_text,
)
from .distill import kd_top1, ki_select
from .mira import INIT_MODES, MiraConfig
from .pipeline import (
    HookError,
    PipelineConfig,
    assemble_file,
    rerank_file,
    rerank_labels_file,
    run_selftrain,
    split_names,
    status_table,
    tune_file,
)
from .rerank import beam_sweep, format_selections, format_sweep, oracle_select


def _emit(text: str, path: str | None) -> None:
    if path:
        write_text(path, text)
    else:
        sys.stdout.write(text)


def cmd_evaluate(args) -> int:
    hyps = load_file(args.hyp, lambda stream: [line for _, (line,) in read_fields(stream)])
    ref_files = split_names(args.refs)
    refs = load_reference_files(ref_files).refs
    if len(refs) != len(hyps):
        raise ValueError(
            f"line count mismatch {len(hyps)} vs {len(refs)} (hypothesis file "
            f"{args.hyp!r}: {len(hyps)}, references: {len(refs)})"
        )
    k = len(ref_files)
    if args.metric == "bleu":
        stats = metrics.corpus_stats(hyps, refs)
        value = metrics.corpus_bleu(stats).value
        label = "BLEU"
        signature = f"nrefs:{k}|case:mixed|eff:no|tok:13a|smooth:exp"
    else:
        value = metrics.corpus_chrf(zip(hyps, refs)).value
        label = "chrF"
        signature = f"nrefs:{k}|case:mixed|nc:{metrics.CHRF_CHAR_ORDER}|nw:0|beta:{int(metrics.CHRF_BETA)}|space:collapse"
    print(f"{label}\t{value:.4f}")
    print(f"#signature\t{signature}")
    return 0


def cmd_assemble(args) -> int:
    scores = []
    for item in args.scores or []:
        name, _, path = item.partition("=")
        if not path:
            raise ValueError(f"--scores expects NAME=FILE, got {item!r}")
        scores.append((name, path))
    passthrough, native = split_names(args.passthrough), split_names(args.native)
    assemble_file(args.nbest, args.out, passthrough, native, scores)
    return 0


def cmd_tune(args) -> int:
    config = MiraConfig(c=args.c, epochs=args.epochs, seed=args.seed, init=args.init)
    tune_file(args.matrix, args.nbest, split_names(args.refs), config, args.out)
    return 0


def cmd_rerank(args) -> int:
    result, mask = rerank_file(
        args.matrix, args.nbest, args.weights, args.out,
        models=args.top_k_models, refs=split_names(args.refs),
    )
    if args.report:
        if result.corpus_score is not None:
            print(f"BLEU\t{result.corpus_score.value:.4f}")
        if mask is not None:
            print(f"#active\t{','.join(sorted(mask.active))}")
    return 0


def cmd_oracle(args) -> int:
    corpus = load_file(args.nbest, load_nbest)
    refs = load_reference_files(split_names(args.refs))
    mode = "anti_oracle" if args.mode == "anti" else "oracle"
    print(
        "note: greedy per-sentence selection by smoothed sentence BLEU "
        "(not a corpus-level oracle)",
        file=sys.stderr,
    )
    if args.sweep:
        rows, short_lists = beam_sweep(corpus, refs, [int(n) for n in split_names(args.sweep)])
        _emit(format_sweep(rows), args.out)
        if short_lists:
            print(f"warning: {short_lists} truncated list(s)", file=sys.stderr)
        return 0
    result = oracle_select(corpus, refs, mode=mode)
    _emit(format_selections(result), args.out)
    print(f"BLEU\t{result.corpus_score.value:.4f}")
    return 0


def cmd_distill(args) -> int:
    if args.strategy == "rerank":
        if not (args.matrix and args.weights):
            raise ValueError("--strategy rerank requires --matrix and --weights")
        paths = rerank_labels_file(
            args.matrix, args.nbest, args.weights, args.src, args.out, args.format,
            models=args.top_k_models,
        )
    else:
        corpus = load_file(args.nbest, load_nbest)
        if args.strategy == "kd":
            labels = kd_top1(corpus)
        elif not args.orig_refs:
            raise ValueError("--strategy ki requires --orig-refs")
        else:
            labels = ki_select(corpus, load_reference_files(split_names(args.orig_refs)))
        sources = load_file(args.src, load_sources)
        paths = write_pseudo_labels(sources, labels, args.out, args.format)
    for p in paths:
        print(p)
    return 0


def cmd_selftrain(args) -> int:
    config = PipelineConfig.from_file(args.config)
    best, reason = run_selftrain(config)
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
    p.add_argument("--refs", required=True, help="reference file(s), comma-separated")
    p.add_argument("--metric", choices=("bleu", "chrf"), default="bleu")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("assemble", help="build the per-hypothesis feature matrix")
    p.add_argument("--nbest", required=True)
    p.add_argument("--native", default="", help="comma list of mbr_bleu,mbr_chrf,len,len_ratio")
    p.add_argument("--passthrough", default="", help="comma list of n-best score names ('total' reserved)")
    p.add_argument("--scores", action="append", metavar="NAME=FILE",
                   help="external score table (repeatable)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_assemble)

    p = sub.add_parser("tune", help="learn reranking weights with batch k-best MIRA")
    p.add_argument("--matrix", required=True)
    p.add_argument("--nbest", required=True)
    p.add_argument("--refs", required=True, help="tune reference file(s), comma-separated")
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
    p.add_argument("--refs", default="")
    p.add_argument("--report", action="store_true", help="print corpus BLEU of the selection")
    p.set_defaults(func=cmd_rerank)

    p = sub.add_parser("oracle", help="greedy oracle/anti-oracle selection and beam sweeps")
    p.add_argument("--nbest", required=True)
    p.add_argument("--refs", required=True)
    p.add_argument("--mode", choices=("oracle", "anti"), default="oracle")
    p.add_argument("--sweep", default=None, help="comma list of truncation sizes, e.g. 1,2,4,8")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("distill", help="emit pseudo-labels for a transfer set")
    p.add_argument("--strategy", choices=("kd", "ki", "rerank"), required=True)
    p.add_argument("--nbest", required=True)
    p.add_argument("--src", required=True, help="source sentences, aligned with the n-best list")
    p.add_argument("--matrix", default=None)
    p.add_argument("--weights", default=None)
    p.add_argument("--top-k-models", type=int, default=None)
    p.add_argument("--orig-refs", default=None, help="original labels (for --strategy ki)")
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
