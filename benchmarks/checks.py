"""Output checks against the brute-force oracles of ``tests/oracles.py``.

Nothing here imports ``nbdistill``: every artifact is parsed by the small
readers below and recomputed with the oracles (whitespace tokenization, which
equals 13a on the generated lowercase text).  ``check`` returns a list of
``(step, message)`` problems; an empty list means every output is right.

Selections are compared with the oracle's argmax; a different pick is
accepted only when its score is within ``TOL`` of the oracle's best (a float
near-tie that numpy and a Python loop may break differently).
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from oracles import (  # tests/oracles.py
    bf_argmax_dot,
    bf_bleu_from_stats,
    bf_mbr_utilities,
    bf_sentence_bleu,
    bf_sentence_chrf,
    bf_sentence_stats,
    bf_topk_by_magnitude,
)
from workloads import FAIL_AT, ITERATIONS, SETS, TOP_K

TOL = 1e-9
PRINTED = 5e-5 + 1e-9  # a value printed with 4 decimals
MBR_SAMPLE = 2  # lists per run whose consensus utilities are recomputed

Problems = List[Tuple[str, str]]


class CheckError(Exception):
    pass


def lines(path: Path) -> List[str]:
    text = path.read_text(encoding="utf-8")
    if text and not text.endswith("\n"):
        raise CheckError(f"{path.name}: no final newline")
    return text.split("\n")[:-1]


def parse_nbest(path: Path):
    """[[(text, {name: value}, total), ...] per sentence]"""
    lists: List[list] = []
    for line in lines(path):
        sid, text, scores, total = line.split(" ||| ")
        if int(sid) == len(lists):
            lists.append([])
        toks = scores.split()
        named = {toks[i][:-1]: float(toks[i + 1]) for i in range(0, len(toks), 2)}
        lists[int(sid)].append((text, named, float(total)))
    return lists


def parse_scores(path: Path) -> Dict[Tuple[int, int], float]:
    out = {}
    for line in lines(path):
        sid, rank, value = line.split("\t")
        out[(int(sid), int(rank))] = float(value)
    return out


def parse_matrix(path: Path):
    rows = lines(path)
    header = rows[0].split("\t")
    if header[0] != "#features":
        raise CheckError("matrix header")
    per_sentence: List[List[List[float]]] = []
    for row in rows[1:]:
        fields = row.split("\t")
        sid, rank = int(fields[0]), int(fields[1])
        if sid == len(per_sentence):
            per_sentence.append([])
        if rank != len(per_sentence[sid]):
            raise CheckError(f"matrix rank order at sentence {sid}")
        per_sentence[sid].append([float(v) for v in fields[2:]])
    return header[1:], per_sentence


def parse_weights(path: Path):
    names, weights, trailer = [], [], None
    for line in lines(path):
        parts = line.split("\t")
        if line.startswith("#best_epoch"):
            trailer = (int(parts[1]), float(parts[3]))
        else:
            names.append(parts[0])
            weights.append(float(parts[1]))
    return names, weights, trailer


def parse_selections(path: Path) -> List[Tuple[int, str]]:
    out = []
    for sid, line in enumerate(lines(path)):
        got_sid, rank, text = line.split("\t", 2)
        if int(got_sid) != sid:
            raise CheckError(f"{path.name}: sentence ids not dense")
        out.append((int(rank), text))
    return out


def parse_report(path: Path) -> Dict[str, str]:
    return dict(line.split("\t", 1) for line in lines(path))


class Oracle:
    """Brute-force sentence statistics of one n-best list against references."""

    def __init__(self, lists, refs: Sequence[Sequence[str]]):
        self.lists = lists
        self.stats = [
            [bf_sentence_stats(t.split(), [r.split() for r in refs[sid]]) for t, _, _ in entries]
            for sid, entries in enumerate(lists)
        ]
        self.bleu = [[bf_bleu_from_stats(*s) for s in row] for row in self.stats]

    def corpus_bleu(self, picks: Sequence[int]) -> float:
        clipped, totals, hyp_len, ref_len = [0] * 4, [0] * 4, 0, 0
        for sid, pick in enumerate(picks):
            c, t, h, r = self.stats[sid][pick]
            clipped = [a + b for a, b in zip(clipped, c)]
            totals = [a + b for a, b in zip(totals, t)]
            hyp_len += h
            ref_len += r
        return bf_bleu_from_stats(clipped, totals, hyp_len, ref_len)

    def best_ok(self, sid: int, pick: int) -> bool:
        return abs(self.bleu[sid][pick] - max(self.bleu[sid])) <= TOL

    def extreme(self, sid: int, n: int, highest: bool) -> int:
        vals = self.bleu[sid][:n]
        target = max(vals) if highest else min(vals)
        return vals.index(target)


def dot(row: Sequence[float], weights: Sequence[float]) -> float:
    total = 0.0
    for v, w in zip(row, weights):
        total += v * w
    return total


def argmax_ok(rows, weights, pick: int) -> bool:
    want = bf_argmax_dot(rows, weights)
    if pick == want:
        return True
    best = dot(rows[want], weights)
    return abs(dot(rows[pick], weights) - best) <= TOL * max(1.0, abs(best))


def near_tie(rows, weights) -> bool:
    scores = sorted((dot(r, weights) for r in rows), reverse=True)
    return len(scores) > 1 and scores[0] - scores[1] <= TOL * max(1.0, abs(scores[0]))


def masked(names, weights, k):
    if k is None:
        return list(weights)
    active = bf_topk_by_magnitude(names, weights, k)
    return [w if n in active else 0.0 for n, w in zip(names, weights)]


def check_matrix(matrix_path, lists, passthrough, native, tables, mbr_rng=None) -> List[str]:
    names, rows = parse_matrix(matrix_path)
    want = list(passthrough) + list(native) + [name for name, _ in tables]
    if names != want:
        return [f"columns {names} != {want}"]
    if [len(r) for r in rows] != [len(e) for e in lists]:
        return ["row counts differ from the n-best list"]
    col = {name: i for i, name in enumerate(names)}
    problems = []
    for sid, entries in enumerate(lists):
        counts = [float(len(t.split())) for t, _, _ in entries]
        mean = sum(counts) / len(counts)
        for rank, (text, named, total) in enumerate(entries):
            row = rows[sid][rank]
            for name in passthrough:
                value = total if name == "total" else named[name]
                if row[col[name]] != value:
                    problems.append(f"({sid},{rank}) passthrough {name}")
            if "len" in col and row[col["len"]] != counts[rank]:
                problems.append(f"({sid},{rank}) len")
            if "len_ratio" in col and row[col["len_ratio"]] != (counts[rank] / mean if mean > 0 else 1.0):
                problems.append(f"({sid},{rank}) len_ratio")
            for name, table in tables:
                if row[col[name]] != table[(sid, rank)]:
                    problems.append(f"({sid},{rank}) external {name}")
    if mbr_rng is not None:
        utilities = {
            "mbr_bleu": lambda h, r: bf_sentence_bleu(h, [r]),
            "mbr_chrf": lambda h, r: bf_sentence_chrf(h, [r]),
        }
        for sid in mbr_rng.sample(range(len(lists)), min(MBR_SAMPLE, len(lists))):
            texts = [t for t, _, _ in lists[sid]]
            for name, pair in utilities.items():
                if name not in col:
                    continue
                want_u = bf_mbr_utilities(texts, pair)
                got_u = [r[col[name]] for r in rows[sid]]
                if any(abs(g - w) > TOL for g, w in zip(got_u, want_u)):
                    problems.append(f"sentence {sid}: {name} differs from bf_mbr_utilities")
    return problems[:10]


def check_weights(weights_path, matrix_path, oracle: Oracle) -> List[str]:
    names, weights, trailer = parse_weights(weights_path)
    mnames, rows = parse_matrix(matrix_path)
    if names != mnames:
        return [f"weight names {names} != matrix columns {mnames}"]
    if trailer is None:
        return ["missing #best_epoch trailer"]
    if any(near_tie(r, weights) for r in rows):
        return []  # the tune selection is ambiguous up to float rounding
    picks = [bf_argmax_dot(r, weights) for r in rows]
    bleu = oracle.corpus_bleu(picks)
    if abs(bleu - trailer[1]) > PRINTED:
        return [f"#tune_bleu {trailer[1]} != brute-force {bleu:.6f}"]
    return []


def check_selections(sel_path, matrix_path, weights_path, lists, k=None) -> Tuple[List[str], list]:
    names, weights, _ = parse_weights(weights_path)
    _, rows = parse_matrix(matrix_path)
    w = masked(names, weights, k)
    sel = parse_selections(sel_path)
    if len(sel) != len(lists):
        return [f"{len(sel)} selections for {len(lists)} sentences"], sel
    problems = []
    for sid, (rank, text) in enumerate(sel):
        if not 0 <= rank < len(lists[sid]) or lists[sid][rank][0] != text:
            problems.append(f"sentence {sid}: rank/text do not match the n-best list")
        elif not argmax_ok(rows[sid], w, rank):
            problems.append(f"sentence {sid}: rank {rank} is not bf_argmax_dot")
    return problems[:10], sel


def check_report(report_path, oracle: Oracle, picks, names=None, weights=None, k=None):
    report = parse_report(report_path)
    problems = []
    bleu = oracle.corpus_bleu(picks)
    if abs(float(report.get("BLEU", "nan")) - bleu) > PRINTED:
        problems.append(f"reported BLEU {report.get('BLEU')} != bf_corpus_bleu {bleu:.6f}")
    if k is not None:
        want = ",".join(sorted(bf_topk_by_magnitude(names, weights, k)))
        if report.get("#active") != want:
            problems.append(f"#active {report.get('#active')} != {want}")
    return problems


def check_labels(labels_path, sources: Sequence[str], texts: Sequence[str]) -> List[str]:
    want = [f"{s}\t{t}" for s, t in zip(sources, texts)]
    got = lines(labels_path)
    if got != want:
        bad = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want)))
        return [f"label line {bad + 1} differs ({len(got)} lines, {len(want)} expected)"]
    return []


def check_ki(ki_path, sources, lists, oracle: Oracle) -> List[str]:
    rows = lines(ki_path)
    if len(rows) != len(lists):
        return [f"{len(rows)} KI labels for {len(lists)} sentences"]
    for sid, row in enumerate(rows):
        src, label = row.split("\t", 1)
        texts = [t for t, _, _ in lists[sid]]
        if src != sources[sid] or label not in texts:
            return [f"sentence {sid}: KI label is not a list member"]
        if not oracle.best_ok(sid, texts.index(label)):
            return [f"sentence {sid}: KI label is not the best sentence BLEU"]
    return []


def check_sweep(sweep_path, sizes: Sequence[int], oracle: Oracle) -> List[str]:
    rows = lines(sweep_path)
    if len(rows) != len(sizes):
        return [f"{len(rows)} sweep rows for {len(sizes)} sizes"]
    problems = []
    count = len(oracle.lists)
    for row, n in zip(rows, sizes):
        got = row.split("\t")
        want = [
            oracle.corpus_bleu([oracle.extreme(s, n, False) for s in range(count)]),
            oracle.corpus_bleu([0] * count),
            oracle.corpus_bleu([oracle.extreme(s, n, True) for s in range(count)]),
        ]
        if int(got[0]) != n or any(abs(float(g) - w) > 0.005 + 1e-9 for g, w in zip(got[1:], want)):
            problems.append(f"sweep row {row!r} != brute force {[round(w, 4) for w in want]}")
    return problems


def check_oracle(sel_path, report_path, lists, oracle: Oracle) -> List[str]:
    sel = parse_selections(sel_path)
    for sid, (rank, text) in enumerate(sel):
        if lists[sid][rank][0] != text or not oracle.best_ok(sid, rank):
            return [f"sentence {sid}: oracle pick is not the best sentence BLEU"]
    return check_report(report_path, oracle, [r for r, _ in sel])


def guarded(step: str, problems: Problems, fn, *args, **kwargs):
    """Run one check; a crash while reading an artifact is a failed check too."""
    try:
        result = fn(*args, **kwargs)
    except (CheckError, OSError, ValueError, KeyError, IndexError) as exc:
        problems.append((step, f"{fn.__name__}: {type(exc).__name__}: {exc}"))
        return None
    if isinstance(result, tuple):
        found, value = result
    else:
        found, value = result, None
    problems.extend((step, message) for message in found)
    return value


def check_one_shot(workload, inputs: Path, rep: Path, seed: int) -> Problems:
    """Consensus and tune_transfer: the assemble/tune/rerank/distill chain."""
    problems: Problems = []
    lists = parse_nbest(inputs / "nbest.txt")
    sources = lines(inputs / "src.txt")
    ref_files = sorted(inputs.glob("ref*.txt"))
    ref_cols = [lines(p) for p in ref_files]
    refs = list(zip(*ref_cols))
    oracle = Oracle(lists, refs)
    k = None
    if workload.name == "consensus":
        passthrough, native = ["total"], ["mbr_bleu", "mbr_chrf", "len", "len_ratio"]
        tables = [("lm", parse_scores(inputs / "lm.scores"))]
    else:
        passthrough, native = ["total", "lm", "tm"], ["len", "len_ratio"]
        tables = [(n, parse_scores(inputs / f"{n}.scores")) for n in ("ext1", "ext2")]
        k = TOP_K
    mbr_rng = random.Random(f"check-{seed}") if workload.name == "consensus" else None
    guarded("assemble", problems, check_matrix, rep / "matrix.tsv", lists, passthrough, native,
            tables, mbr_rng)
    guarded("tune", problems, check_weights, rep / "weights.tsv", rep / "matrix.tsv", oracle)
    sel = guarded("rerank", problems, check_selections, rep / "selections.tsv", rep / "matrix.tsv",
                  rep / "weights.tsv", lists, k)
    if sel:
        names, weights, _ = parse_weights(rep / "weights.tsv")
        guarded("rerank", problems, check_report, rep / "rerank.out", oracle,
                [r for r, _ in sel], names, weights, k)
        # distill reranks the same list with the same weights and mask
        guarded("distill", problems, check_labels, rep / "labels.tsv", sources,
                [t for _, t in sel])
    if workload.name == "tune_transfer":
        guarded("ki", problems, check_ki, rep / "ki.tsv", sources, lists, oracle)
        sizes = [int(n) for n in workload.SWEEP.split(",")]
        guarded("oracle", problems, check_sweep, rep / "sweep.tsv", sizes, oracle)
        guarded("oracle", problems, check_oracle, rep / "oracle.tsv", rep / "oracle.out", lists,
                oracle)
    return problems


def check_iteration(itdir: Path, inputs: Path) -> Problems:
    problems: Problems = []
    step = "selftrain"
    it = itdir.name[len("iter"):]
    fixdir = inputs / "fixtures" / f"iter{it}"
    lists = {}
    for name in SETS:
        nbest = itdir / f"nbest.{name}.txt"
        scores = itdir / f"scores.lm.{name}.tsv"
        if nbest.read_bytes() != (fixdir / f"{name}.src.nbest").read_bytes():
            problems.append((step, f"{nbest.name} is not the hook's fixture"))
        if scores.read_bytes() != (fixdir / f"nbest.{name}.txt.lm").read_bytes():
            problems.append((step, f"{scores.name} is not the hook's fixture"))
        lists[name] = parse_nbest(nbest)
        guarded(step, problems, check_matrix, itdir / f"matrix.{name}.tsv", lists[name],
                ["total"], ["len", "len_ratio"], [("lm", parse_scores(scores))])
    tune_refs = [(r,) for r in lines(inputs / "tune.ref")]
    dev_refs = [(r,) for r in lines(inputs / "dev.ref")]
    weights, tune_matrix = itdir / "weights.tsv", itdir / "matrix.tune.tsv"
    guarded(step, problems, check_weights, weights, tune_matrix, Oracle(lists["tune"], tune_refs))
    names, values, _ = parse_weights(weights)
    order = sorted(zip(names, values), key=lambda nw: (-abs(nw[1]), nw[0]))
    active = bf_topk_by_magnitude(names, values, TOP_K)
    if lines(itdir / "selected.txt") != [n for n, _ in order if n in active]:
        problems.append((step, f"iter{it}/selected.txt is not the top-{TOP_K} by magnitude"))
    guarded(step, problems, check_transfer_labels, itdir, inputs, lists)
    dev = guarded(step, problems, check_selections, itdir / "selections.dev.tsv",
                  itdir / "matrix.dev.tsv", weights, lists["dev"], TOP_K)
    if dev:
        bleu = Oracle(lists["dev"], dev_refs).corpus_bleu([r for r, _ in dev])
        got = float((itdir / "dev_bleu.txt").read_text(encoding="utf-8"))
        if abs(got - bleu) > 1e-8:
            problems.append((step, f"iter{it}/dev_bleu.txt {got} != bf_corpus_bleu {bleu}"))
    return problems


def check_transfer_labels(itdir: Path, inputs: Path, lists) -> List[str]:
    """Transfer labels are the masked reranker's argmax on the transfer list."""
    names, weights, _ = parse_weights(itdir / "weights.tsv")
    _, rows = parse_matrix(itdir / "matrix.transfer.tsv")
    w = masked(names, weights, TOP_K)
    sources = lines(inputs / "transfer.src")
    got = lines(itdir / "labels.tsv")
    if len(got) != len(sources):
        return [f"{len(got)} labels for {len(sources)} sources"]
    for sid, row in enumerate(got):
        src, label = row.split("\t", 1)
        texts = [t for t, _, _ in lists["transfer"][sid]]
        if src != sources[sid] or label not in texts:
            return [f"transfer sentence {sid}: label is not a list member"]
        picks = [r for r, t in enumerate(texts) if t == label]
        if not any(argmax_ok(rows[sid], w, r) for r in picks):
            return [f"transfer sentence {sid}: label is not the reranker's argmax"]
    return []


def check_selftrain(workload, inputs: Path, rep: Path) -> Problems:
    problems: Problems = []
    work, resume = rep / "work", rep / "resume"
    ledger = [json.loads(line) for line in lines(work / "ledger.jsonl")]
    if [s["iter"] for s in ledger] != list(range(1, ITERATIONS + 1)):
        return [("selftrain", f"ledger iterations {[s['iter'] for s in ledger]}")]
    for state in ledger:
        itdir = work / f"iter{state['iter']}"
        if state["dev_bleu"] != float((itdir / "dev_bleu.txt").read_text(encoding="utf-8")):
            problems.append(("selftrain", f"ledger dev_bleu of iter{state['iter']}"))
        problems += check_iteration(itdir, inputs)
    final = json.loads((work / "final.json").read_text(encoding="utf-8"))
    best = max(ledger, key=lambda s: (s["dev_bleu"], -s["iter"]))
    if final["stop_reason"] != "max_iterations" or final["best_iteration"] != best["iter"]:
        problems.append(("selftrain", f"final.json {final} (best dev iteration {best['iter']})"))
    if (work / "final.labels.tsv").read_bytes() != (work / f"iter{best['iter']}" / "labels.tsv").read_bytes():
        problems.append(("selftrain", "final.labels.tsv is not the best iteration's labels"))
    fresh_log = [json.loads(line) for line in lines(rep / "work.hooks.jsonl")]
    want_calls = ITERATIONS * len(SETS) * 2
    if len(fresh_log) != want_calls:
        problems.append(("selftrain", f"{len(fresh_log)} hook calls, expected {want_calls}"))

    crash_err = next(rep.glob("logs/*.crash.err")).read_text(encoding="utf-8")
    if "simulated hook crash" not in crash_err:
        problems.append(("crash", "the planned hook crash did not happen"))
    # resume: byte-identical artifacts, every hook call made exactly once
    for rel in workload.artifacts():
        other = resume / Path(rel).relative_to("work")
        if not other.is_file() or other.read_bytes() != (rep / rel).read_bytes():
            problems.append(("resume", f"{other.relative_to(rep)} differs from the fresh run"))
    resume_ledger = [json.loads(line) for line in lines(resume / "ledger.jsonl")]
    if [s["dev_bleu"] for s in resume_ledger] != [s["dev_bleu"] for s in ledger]:
        problems.append(("resume", "resumed ledger dev_bleu differs from the fresh run"))
    resume_log = [json.loads(line) for line in lines(rep / "resume.hooks.jsonl")]
    keys = [(c["iter"], c["suffix"], c["in"]) for c in resume_log]
    if len(keys) != want_calls or len(set(keys)) != len(keys):
        problems.append(("resume", f"{len(keys)} hook calls across crash and resume "
                                   f"({len(set(keys))} distinct), expected {want_calls}"))
    fail_iter, fail_suffix = FAIL_AT.split()
    if not any(k[0] == int(fail_iter) and k[1] == fail_suffix for k in keys):
        problems.append(("resume", "the crashed hook never ran again"))
    return problems


def check(workload, inputs: Path, rep: Path, seed: int) -> Problems:
    if workload.name == "selftrain":
        try:
            return check_selftrain(workload, inputs, rep)
        except (CheckError, OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
            return [("selftrain", f"{type(exc).__name__}: {exc}")]
    return check_one_shot(workload, inputs, rep, seed)
