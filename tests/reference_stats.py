"""Per-hypothesis BLEU and chrF statistics, one hypothesis at a time with
``Counter`` multisets: the definitions that ``metrics.hyp_stats``,
``metrics.sentence_stats``, ``metrics.tokenize_13a``, ``metrics.sentence_chrf``
and ``metrics.corpus_chrf`` must reproduce exactly.

``reference_tokenize_13a`` is a frozen copy of the 13a tokenizer with its
original rule set, whose first class still contains the space.
``reference_sentence_stats`` rebuilds every reference's n-gram counts for each
hypothesis and returns the package's 10-integer statistics row, and
``reference_total`` sums such rows column by column.
``reference_hyp_stats`` runs the loop the package used before the shared
statistics table: tokenize the references, then tokenize and count every
hypothesis of the list, duplicates included.  The chrF functions are a
frozen copy of the package's ``Counter`` intersection per reference and
order, which the shared n-gram count matrices replaced.
"""

import re
from collections import Counter

from nbdistill.metrics import _chrf_from_stats, corpus_bleu

_FROZEN_13A_RULES = (
    (re.compile(r"([\{-\~\[-\` -\&\(-\+\:-\@\/])"), r" \1 "),
    (re.compile(r"([^0-9])([\.,])"), r"\1 \2 "),
    (re.compile(r"([\.,])([^0-9])"), r" \1 \2"),
    (re.compile(r"([0-9])(-)"), r"\1 \2 "),
)


def reference_tokenize_13a(text):
    norm = text.replace("<skipped>", "")
    norm = norm.replace("-\n", "")
    norm = norm.replace("\n", " ")
    if "&" in norm:
        norm = norm.replace("&quot;", '"')
        norm = norm.replace("&amp;", "&")
        norm = norm.replace("&lt;", "<")
        norm = norm.replace("&gt;", ">")
    norm = f" {norm} "
    for pattern, repl in _FROZEN_13A_RULES:
        norm = pattern.sub(repl, norm)
    return norm.split()


def _ngrams(tokens, order):
    return zip(*(tokens[i:] for i in range(order)))


def reference_sentence_stats(hyp_tokens, refs_tokens):
    hyp_len = len(hyp_tokens)
    ref_len = min((len(r) for r in refs_tokens), key=lambda rl: (abs(rl - hyp_len), rl))
    clipped = [0] * 4
    totals = [0] * 4
    for order in range(1, 5):
        totals[order - 1] = max(0, hyp_len - order + 1)
        if totals[order - 1] == 0:
            continue
        hyp_counts = Counter(_ngrams(hyp_tokens, order))
        max_ref = Counter()
        for ref in refs_tokens:
            for gram, count in Counter(_ngrams(ref, order)).items():
                if count > max_ref[gram]:
                    max_ref[gram] = count
        clipped[order - 1] = sum(
            min(count, max_ref[gram]) for gram, count in hyp_counts.items()
        )
    return (*clipped, *totals, hyp_len, ref_len)


def reference_total(stats):
    """Column sum of statistics rows: the statistics of a whole corpus."""
    return tuple(map(sum, zip(*stats)))


def reference_hyp_stats(lists, refs_per_sentence):
    """Per sentence, the statistics row and the sentence BLEU of every hypothesis."""
    stats = []
    gains = []
    for texts, refs in zip(lists, refs_per_sentence):
        ref_toks = [reference_tokenize_13a(r) for r in refs]
        sent = [reference_sentence_stats(reference_tokenize_13a(t), ref_toks) for t in texts]
        stats.append(sent)
        gains.append([corpus_bleu(s) for s in sent])
    return stats, gains


def _char_ngrams(s, order):
    return (s[i : i + order] for i in range(len(s) - order + 1))


def reference_char_ngram_stats(hyp, ref):
    """(hyp_total, ref_total, overlap) per character n-gram order 1..6."""
    out = []
    for order in range(1, 7):
        hyp_counts = Counter(_char_ngrams(hyp, order))
        ref_counts = Counter(_char_ngrams(ref, order))
        overlap = sum((hyp_counts & ref_counts).values())
        out.append((sum(hyp_counts.values()), sum(ref_counts.values()), overlap))
    return out


def reference_best_ref_chrf_stats(hyp, refs):
    # whitespace runs collapse; the first best-scoring reference wins
    h = " ".join(hyp.split())
    best_stats = None
    best_value = -1.0
    for ref in refs:
        stats = reference_char_ngram_stats(h, " ".join(ref.split()))
        value = _chrf_from_stats(stats)
        if value > best_value:
            best_value = value
            best_stats = stats
    return best_stats


def reference_sentence_chrf(hyp, refs):
    return _chrf_from_stats(reference_best_ref_chrf_stats(hyp, refs))


def reference_corpus_chrf(pairs):
    agg = [(0, 0, 0)] * 6
    for hyp, refs in pairs:
        stats = reference_best_ref_chrf_stats(hyp, refs)
        agg = [(a[0] + s[0], a[1] + s[1], a[2] + s[2]) for a, s in zip(agg, stats)]
    return _chrf_from_stats(agg)
