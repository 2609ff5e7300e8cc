"""Per-pair consensus utilities: the definition ``features.mbr_utility`` must
reproduce bit for bit.

Every ordered pair (i, j) scores hypothesis i against hypothesis j as its
single reference with the ``Counter`` sentence metrics of ``reference_stats``;
each hypothesis's utility is the sum over j != i, added one by one in
ascending order, divided by n - 1.  The builtin ``sum`` of floats is not used:
from Python 3.12 on it compensates its rounding.  A single-member list scores
against itself.
"""

from nbdistill.metrics import corpus_bleu
from reference_stats import (
    reference_sentence_chrf,
    reference_sentence_stats,
    reference_tokenize_13a,
)


def reference_mbr_utility(texts, utility="sentence_bleu"):
    if not texts:
        raise ValueError("empty hypothesis list")
    n = len(texts)
    if utility == "sentence_bleu":
        toks = [reference_tokenize_13a(t) for t in texts]

        def pair(i, j):
            return corpus_bleu(reference_sentence_stats(toks[i], [toks[j]]))

    elif utility == "sentence_chrf":

        def pair(i, j):
            return reference_sentence_chrf(texts[i], [texts[j]])

    else:
        raise ValueError(f"unknown MBR utility {utility!r}")
    if n == 1:
        return [pair(0, 0)]
    utilities = []
    for i in range(n):
        total = 0.0
        for j in range(n):
            if j != i:
                total += pair(i, j)
        utilities.append(total / (n - 1))
    return utilities
