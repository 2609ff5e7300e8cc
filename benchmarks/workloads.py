"""Seeded inputs and CLI command chains of the benchmark workloads.

Every input is generated from the seed with the primitives of
``tests/synth.py`` (lowercase alphabetic words, so 13a tokenization is
whitespace splitting and ``tests/oracles.py`` applies).  Reference lengths
follow a fixed schedule, so the seed changes the words but not the amount of
work: runs with different seeds stay comparable.

The program sees only the generated files.  A workload is a list of
``Step``s, each one ``nbdistill`` command run with the repetition directory as
working directory; one-shot commands name their files relative to it.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import synth  # tests/synth.py; the caller puts tests/ on sys.path

HOOK = Path(__file__).resolve().parent / "hook.py"
INPUTS = "../inputs"  # the inputs directory as seen from a repetition directory
TOP_K = 3  # features kept by model selection (rerank/distill --top-k-models, selftrain)


@dataclass(frozen=True)
class Step:
    """One CLI call.  ``name`` is the stem of its per-command metric."""

    name: str
    argv: Sequence[str]
    expect_exit: int = 0
    stdout: Optional[str] = None  # file in the repetition dir that keeps stdout
    before: Optional[Callable[[], None]] = None  # untimed action before the call


@dataclass
class Shape:
    """Workload shape, exact for a given seed."""

    sentences: int = 0
    hyps: int = 0
    mbr_pairs: int = 0  # sum of n(n-1) over the lists that get MBR features
    dup_hyps: int = 0  # hypotheses whose text occurs again in the same list

    @property
    def dup_share(self) -> float:
        return self.dup_hyps / self.hyps

    def add_lists(self, lists: Sequence[Sequence[str]], mbr: bool = False) -> None:
        for texts in lists:
            n = len(texts)
            self.sentences += 1
            self.hyps += n
            if mbr:
                self.mbr_pairs += n * (n - 1) if n > 1 else 1
            counts: Dict[str, int] = {}
            for t in texts:
                counts[t] = counts.get(t, 0) + 1
            self.dup_hyps += sum(c for c in counts.values() if c > 1)

    def as_dict(self) -> dict:
        return {
            "corpus.sentences": self.sentences,
            "corpus.hyps": self.hyps,
            "features.mbr_pairs": self.mbr_pairs,
            "features.dup_share": self.dup_share,
        }


def ref_length(sid: int) -> int:
    """Fixed length schedule 5..12 words, the range of ``synth.make_sentence``."""
    return 5 + (sid * 3) % 8


def make_sentence(rng: random.Random, sid: int) -> List[str]:
    n = ref_length(sid)
    return synth.make_sentence(rng, n, n)


def make_list(rng, ref, n, max_edits, distinct=False):
    """n perturbations of ``ref``; ``distinct`` makes texts unique as in beam search."""
    out: List[str] = []
    seen = set()
    while len(out) < n:
        lo = 1 if distinct else 0
        text = " ".join(synth.perturb(rng, ref, rng.randint(lo, max_edits)))
        if distinct and text in seen:
            continue
        seen.add(text)
        out.append(text)
    return out


def score_lines(values: Sequence[Sequence[float]]) -> List[str]:
    return [
        f"{sid}\t{rank}\t{v!r}"
        for sid, row in enumerate(values)
        for rank, v in enumerate(row)
    ]


def write_lines(path: Path, lines: Sequence[str]) -> None:
    synth.write_lines(str(path), lines)


class Workload:
    name = ""
    sizes: Dict[str, int] = {}

    def __init__(self, sizes: Optional[Dict[str, int]] = None):
        self.sizes = dict(sizes or self.sizes)

    def generate(self, seed: int, inputs: Path) -> Shape:
        raise NotImplementedError

    def prepare(self, inputs: Path, rep: Path) -> None:
        """Write per-repetition files (configs) before the chain starts."""

    def steps(self, rep: Path) -> List[Step]:
        raise NotImplementedError

    def artifacts(self) -> Dict[str, str]:
        """Deterministic output files: path relative to the rep dir -> producing step."""
        raise NotImplementedError


class Consensus(Workload):
    """32-best lists with distinct texts: assemble is dominated by the O(n^2)
    pairwise MBR utilities; tune/rerank are too small to matter."""

    name = "consensus"
    sizes = {"sentences": 6, "n": 32}

    def generate(self, seed, inputs):
        rng = random.Random(f"consensus-{seed}")
        s, n = self.sizes["sentences"], self.sizes["n"]
        sources, refs, hyps = [], [], []
        for sid in range(s):
            ref = make_sentence(rng, sid)
            refs.append(" ".join(ref))
            sources.append(" ".join(make_sentence(rng, sid)))
            hyps.append(make_list(rng, ref, n, 4, distinct=True))
        write_lines(inputs / "src.txt", sources)
        write_lines(inputs / "ref.txt", refs)
        write_lines(inputs / "nbest.txt", synth.nbest_lines(hyps))
        lm = [[rng.uniform(-5.0, 0.0) for _ in row] for row in hyps]
        write_lines(inputs / "lm.scores", score_lines(lm))
        shape = Shape()
        shape.add_lists(hyps, mbr=True)
        return shape

    def steps(self, rep):
        i = INPUTS
        return [
            Step("assemble", ["assemble", "--nbest", f"{i}/nbest.txt", "--passthrough", "total",
                              "--native", "mbr_bleu,mbr_chrf,len,len_ratio",
                              "--scores", f"lm={i}/lm.scores", "--out", "matrix.tsv"]),
            Step("tune", ["tune", "--matrix", "matrix.tsv", "--nbest", f"{i}/nbest.txt",
                          "--refs", f"{i}/ref.txt", "--out", "weights.tsv"]),
            Step("rerank", ["rerank", "--matrix", "matrix.tsv", "--nbest", f"{i}/nbest.txt",
                            "--weights", "weights.tsv", "--refs", f"{i}/ref.txt", "--report",
                            "--out", "selections.tsv"], stdout="rerank.out"),
            Step("distill", ["distill", "--strategy", "rerank", "--nbest", f"{i}/nbest.txt",
                             "--src", f"{i}/src.txt", "--matrix", "matrix.tsv",
                             "--weights", "weights.tsv", "--out", "labels"]),
        ]

    def artifacts(self):
        return {"matrix.tsv": "assemble", "weights.tsv": "tune", "selections.tsv": "rerank",
                "rerank.out": "rerank", "labels.tsv": "distill"}


class TuneTransfer(Workload):
    """Many 16-best lists, 2 refs, no MBR: per-hypothesis BLEU statistics
    (tune, ki, oracle) and file parsing dominate."""

    name = "tune_transfer"
    sizes = {"sentences": 500, "n": 16}
    SWEEP = "1,2,4,8,16"

    def generate(self, seed, inputs):
        rng = random.Random(f"tune_transfer-{seed}")
        s, n = self.sizes["sentences"], self.sizes["n"]
        sources, refs1, refs2, hyps, informative = [], [], [], [], []
        for sid in range(s):
            ref = make_sentence(rng, sid)
            refs1.append(" ".join(ref))
            refs2.append(" ".join(synth.perturb(rng, ref, rng.randint(0, 2))))
            sources.append(" ".join(make_sentence(rng, sid)))
            row, signal = [], []
            for _ in range(n):
                edits = rng.randint(0, 4)
                row.append(" ".join(synth.perturb(rng, ref, edits)))
                signal.append(rng.gauss(-float(edits), 1.0))
            hyps.append(row)
            informative.append(signal)
        write_lines(inputs / "src.txt", sources)
        write_lines(inputs / "ref1.txt", refs1)
        write_lines(inputs / "ref2.txt", refs2)
        write_lines(inputs / "nbest.txt", synth.nbest_lines(hyps))
        write_lines(inputs / "ext1.scores", score_lines(informative))
        noise = [[rng.uniform(-5.0, 5.0) for _ in row] for row in hyps]
        write_lines(inputs / "ext2.scores", score_lines(noise))
        shape = Shape()
        shape.add_lists(hyps)
        return shape

    def steps(self, rep):
        i = INPUTS
        nbest, refs = f"{i}/nbest.txt", f"{i}/ref1.txt,{i}/ref2.txt"
        return [
            Step("assemble", ["assemble", "--nbest", nbest, "--passthrough", "total,lm,tm",
                              "--native", "len,len_ratio", "--scores", f"ext1={i}/ext1.scores",
                              "--scores", f"ext2={i}/ext2.scores", "--out", "matrix.tsv"]),
            Step("tune", ["tune", "--matrix", "matrix.tsv", "--nbest", nbest, "--refs", refs,
                          "--epochs", "30", "--out", "weights.tsv"]),
            Step("rerank", ["rerank", "--matrix", "matrix.tsv", "--nbest", nbest,
                            "--weights", "weights.tsv", "--top-k-models", str(TOP_K),
                            "--refs", refs, "--report", "--out", "selections.tsv"],
                 stdout="rerank.out"),
            Step("distill", ["distill", "--strategy", "rerank", "--nbest", nbest,
                             "--src", f"{i}/src.txt", "--matrix", "matrix.tsv",
                             "--weights", "weights.tsv", "--top-k-models", str(TOP_K),
                             "--out", "labels"]),
            Step("ki", ["distill", "--strategy", "ki", "--nbest", nbest, "--src", f"{i}/src.txt",
                        "--orig-refs", refs, "--out", "ki"]),
            Step("oracle", ["oracle", "--nbest", nbest, "--refs", refs,
                            "--sweep", self.SWEEP, "--out", "sweep.tsv"]),
            Step("oracle", ["oracle", "--nbest", nbest, "--refs", refs, "--out", "oracle.tsv"],
                 stdout="oracle.out"),
        ]

    def artifacts(self):
        return {"matrix.tsv": "assemble", "weights.tsv": "tune", "selections.tsv": "rerank",
                "rerank.out": "rerank", "labels.tsv": "distill", "ki.tsv": "ki",
                "sweep.tsv": "oracle", "oracle.tsv": "oracle", "oracle.out": "oracle"}


SETS = ("tune", "dev", "transfer")
ITERATIONS = 3
# dev lists get far better each iteration, so dev BLEU climbs by much more
# than min_delta and every run stops at the iteration cap
DEV_EDITS = {1: 5, 2: 2, 3: 0}
FAIL_AT = "2 lm"  # the planned crash: iteration 2, score hook of feature lm


class SelfTrain(Workload):
    """selftrain with stub hooks on ragged 1..8-best lists: a fresh run, then a
    run whose iteration-2 score hook crashes on purpose, then the resume.  The
    only workload that runs the pipeline layer (hooks, markers, ledger)."""

    name = "selftrain"
    sizes = {"tune": 64, "dev": 40, "transfer": 640, "n_max": 8}

    def generate(self, seed, inputs):
        rng = random.Random(f"selftrain-{seed}")
        shape = Shape()
        refs = {}
        for name in SETS:
            count = self.sizes[name]
            refs[name] = [make_sentence(rng, sid) for sid in range(count)]
            write_lines(inputs / f"{name}.src",
                        [" ".join(make_sentence(rng, sid)) for sid in range(count)])
        for name in ("tune", "dev"):
            write_lines(inputs / f"{name}.ref", [" ".join(r) for r in refs[name]])
        for it in range(1, ITERATIONS + 1):
            fixdir = inputs / "fixtures" / f"iter{it}"
            fixdir.mkdir(parents=True, exist_ok=True)
            for name in SETS:
                max_edits = DEV_EDITS[it] if name == "dev" else 4
                hyps = [
                    [" ".join(synth.perturb(rng, ref, rng.randint(0, max_edits)))
                     for _ in range(rng.randint(1, self.sizes["n_max"]))]
                    for ref in refs[name]
                ]
                write_lines(fixdir / f"{name}.src.nbest", synth.nbest_lines(hyps))
                lm = [[rng.uniform(-5.0, 0.0) for _ in row] for row in hyps]
                write_lines(fixdir / f"nbest.{name}.txt.lm", score_lines(lm))
                shape.add_lists(hyps)
        return shape

    def prepare(self, inputs, rep):
        inputs, rep = inputs.resolve(), rep.resolve()
        for config, workdir in (("fresh.ini", "work"), ("resume.ini", "resume")):
            hook = (f"{sys.executable} {HOOK} --fixtures {inputs / 'fixtures'} "
                    f"--log {rep / (workdir + '.hooks.jsonl')} --iter {{ITER}} --in {{IN}} --out {{OUT}}")
            text = f"""[pipeline]
workdir = {workdir}
iterations_max = {ITERATIONS}
min_delta = 0.1
top_k_models = {TOP_K}

[data]
tune_src = {inputs / 'tune.src'}
tune_refs = {inputs / 'tune.ref'}
dev_src = {inputs / 'dev.src'}
dev_refs = {inputs / 'dev.ref'}
transfer_src = {inputs / 'transfer.src'}

[features]
passthrough = total
native = len,len_ratio
external = lm

[hooks]
generate_nbest = {hook} --suffix nbest
score_lm = {hook} --suffix lm --fail-flag {rep / 'fail.flag'}

[mira]
epochs = 30
seed = 0
"""
            (rep / config).write_text(text, encoding="utf-8")

    def steps(self, rep):
        # the config path is absolute: hooks run with cwd=iterN, and relative
        # {IN}/{OUT} paths from a relative config would not resolve there
        rep = rep.resolve()
        flag = rep / "fail.flag"

        def arm() -> None:
            flag.write_text(FAIL_AT + "\n", encoding="utf-8")

        fresh = ["selftrain", "--config", str(rep / "fresh.ini")]
        resume = ["selftrain", "--config", str(rep / "resume.ini")]
        return [
            Step("selftrain", fresh, stdout="fresh.out"),
            Step("crash", resume, expect_exit=1, stdout="crash.out", before=arm),
            Step("resume", resume, stdout="resume.out", before=flag.unlink),
        ]

    def artifacts(self):
        out = {}
        for it in range(1, ITERATIONS + 1):
            for name in SETS:
                for stem in (f"nbest.{name}.txt", f"scores.lm.{name}.tsv", f"matrix.{name}.tsv"):
                    out[f"work/iter{it}/{stem}"] = "selftrain"
            for stem in ("weights.tsv", "selected.txt", "labels.tsv", "selections.dev.tsv",
                         "dev_bleu.txt"):
                out[f"work/iter{it}/{stem}"] = "selftrain"
        out["work/final.labels.tsv"] = "selftrain"
        return out


WORKLOADS = {w.name: w for w in (Consensus, TuneTransfer, SelfTrain)}

