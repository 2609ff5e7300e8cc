"""Deterministic synthetic corpora for the test suite, and the environment
of a child process that runs the package under test.

All generated text is lowercase alphabetic words separated by single spaces,
so 13a tokenization coincides with whitespace splitting and the brute-force
oracles in oracles.py apply directly.
"""

import os
import random
from pathlib import Path

VOCAB = [
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel",
    "india", "juliet", "kilo", "lima", "mike", "november", "oscar", "papa",
    "quebec", "romeo", "sierra", "tango", "uniform", "victor", "whiskey",
    "xray", "yankee", "zulu",
]


def make_sentence(rng, lo=5, hi=12):
    return [rng.choice(VOCAB) for _ in range(rng.randint(lo, hi))]


def perturb(rng, tokens, edits):
    """Apply `edits` random word substitutions/deletions/insertions."""
    out = list(tokens)
    for _ in range(edits):
        op = rng.random()
        if op < 0.5 or not out:
            pos = rng.randrange(len(out) + 1)
            out.insert(pos, rng.choice(VOCAB))
        elif op < 0.8:
            out[rng.randrange(len(out))] = rng.choice(VOCAB)
        else:
            del out[rng.randrange(len(out))]
    if not out:
        out = [rng.choice(VOCAB)]
    return out


def make_corpus(num_sentences, n, seed=0, num_refs=1, max_edits=4):
    """Sources, per-sentence reference lists, and per-sentence hypothesis lists.

    Hypothesis quality varies with rank but is deliberately not monotone, so
    oracle selection differs from top-1.
    """
    rng = random.Random(seed)
    sources = []
    refs = []
    hyps = []
    for _ in range(num_sentences):
        ref = make_sentence(rng)
        sources.append(" ".join(make_sentence(rng)))
        sentence_refs = [" ".join(ref)]
        for _ in range(num_refs - 1):
            sentence_refs.append(" ".join(perturb(rng, ref, rng.randint(0, 2))))
        refs.append(sentence_refs)
        sentence_hyps = []
        for _ in range(n):
            sentence_hyps.append(" ".join(perturb(rng, ref, rng.randint(0, max_edits))))
        hyps.append(sentence_hyps)
    return sources, refs, hyps


def nbest_lines(hyps, scores=None):
    """Render hypothesis lists as Moses-format n-best lines.

    The total is 10 - rank (strictly decreasing), so rank order follows the
    total and a one-hot weight on 'total' reproduces the top-1 selection.
    """
    lines = []
    for sid, sentence_hyps in enumerate(hyps):
        for rank, text in enumerate(sentence_hyps):
            total = 10.0 - rank
            named = f"lm= {-1.0 - 0.5 * rank} tm= {-2.0 - 0.25 * rank}"
            if scores is not None:
                named = scores(sid, rank)
            lines.append(f"{sid} ||| {text} ||| {named} ||| {total}")
    return lines


def child_env(env=None):
    """``env`` (default: this process's environment) with the directory of the
    imported ``nbdistill`` first on ``PYTHONPATH``, so that a child process
    imports the package under test, also where it is not the checkout's."""
    import nbdistill

    env = dict(os.environ if env is None else env)
    package = str(Path(nbdistill.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package, env.get("PYTHONPATH")]))
    return env


def write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for line in lines:
            f.write(line + "\n")


def build_pipeline_fixtures(root, iterations=3, seed=0, fail_marker=None):
    """Data + config for a stub-hook self-training run.

    Creates tune/dev/transfer sources and references, per-iteration pre-baked
    n-best and external-score fixture files (dev lists get strictly better
    each iteration, so dev BLEU climbs by far more than any min_delta), and
    an INI config whose hooks copy fixtures into place.  Returns the config
    path.
    """
    import sys
    from pathlib import Path

    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    fixdir = root / "fixtures"
    workdir = root / "work"
    rng = random.Random(seed)
    sizes = {"tune": 12, "dev": 8, "transfer": 6}
    n = 4
    refs = {
        name: [make_sentence(rng) for _ in range(count)]
        for name, count in sizes.items()
    }
    sources = {
        name: [" ".join(make_sentence(rng)) for _ in range(count)]
        for name, count in sizes.items()
    }
    for name in sizes:
        write_lines(root / f"{name}.src", sources[name])
    for name in ("tune", "dev"):
        write_lines(root / f"{name}.ref", [" ".join(r) for r in refs[name]])

    # dev hypotheses improve sharply with the iteration; tune/transfer just vary
    edits_by_iter = {1: 5, 2: 2, 3: 0}
    for it in range(1, iterations + 1):
        itdir = fixdir / f"iter{it}"
        itdir.mkdir(parents=True, exist_ok=True)
        for name, count in sizes.items():
            max_edits = edits_by_iter.get(it, 0) if name == "dev" else 4
            hyps = [
                [" ".join(perturb(rng, refs[name][sid], rng.randint(0, max_edits)))
                 for _ in range(n)]
                for sid in range(count)
            ]
            write_lines(itdir / f"{name}.src.nbest", nbest_lines(hyps))
            score_rng = random.Random(f"{seed}-{it}-{name}-lm")
            write_lines(
                itdir / f"nbest.{name}.txt.lm",
                [
                    f"{sid}\t{rank}\t{score_rng.uniform(-5, 0)}"
                    for sid in range(count)
                    for rank in range(n)
                ],
            )

    hook_script = Path(__file__).parent / "copy_hook.py"
    fail = f" --fail-marker {fail_marker}" if fail_marker else ""
    base_cmd = (
        f"{sys.executable} {hook_script} --fixtures {fixdir} --iter {{ITER}} "
        f"--in {{IN}} --out {{OUT}}"
    )
    config_text = f"""
[pipeline]
workdir = work
iterations_max = {iterations}
min_delta = 0.1
top_k_models = 2

[data]
tune_src = tune.src
tune_refs = tune.ref
dev_src = dev.src
dev_refs = dev.ref
transfer_src = transfer.src

[features]
passthrough = total
native = mbr_bleu,len_ratio
external = lm

[hooks]
generate_nbest = {base_cmd} --suffix nbest
score_lm = {base_cmd} --suffix lm{fail}

[mira]
c = 0.01
epochs = 4
seed = 0
"""
    config_path = root / "selftrain.ini"
    config_path.write_text(config_text, encoding="utf-8")
    workdir.mkdir(exist_ok=True)
    return config_path


def make_planted_instance(num_sentences=200, n=8, seed=42, noise_seed=7):
    """Corpus + references + matrix whose first feature is noisy sentence BLEU.

    Feature 0 ("signal") is each hypothesis's sentence BLEU against the
    references plus Gaussian noise (sigma 0.5); features 1-3 are pure noise.
    Returns (corpus, refs_as_tuples, FeatureMatrix, refs_as_lists, hyps).
    """
    import random

    from nbdistill.corpus import load_nbest, load_scores
    from nbdistill.features import assemble_matrix
    from nbdistill.metrics import sentence_bleu

    _, refs, hyps = make_corpus(num_sentences, n, seed=seed, max_edits=6)
    corpus = load_nbest(nbest_lines(hyps))
    refset = tuple(tuple(r) for r in refs)
    rng = random.Random(noise_seed)
    gains = [
        [sentence_bleu(t, refs[sid]) for t in hyps[sid]]
        for sid in range(num_sentences)
    ]

    def table(name, fn):
        lines = [
            f"{sid}\t{rank}\t{fn(sid, rank)}"
            for sid in range(num_sentences)
            for rank in range(n)
        ]
        return name, load_scores(lines)

    signal = table("signal", lambda s, r: gains[s][r] + rng.gauss(0, 0.5))
    noises = [
        table(f"noise{i}", lambda s, r: rng.gauss(0, 5.0)) for i in range(1, 4)
    ]
    matrix = assemble_matrix(corpus, external=[signal] + noises)
    return corpus, refset, matrix, refs, hyps
