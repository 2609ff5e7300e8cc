"""Hypothesis strategies for texts that reach every tokenizer and chrF
boundary: 13a punctuation and digit rules, HTML entities, <skipped>,
whitespace runs and non-ASCII."""

from hypothesis import strategies as st

FRAGMENTS = (
    "a", "b", "cat", "the", " ", "  ", "\t", "\n", ".", ",", "-", "!", "(", "'s",
    "1", "3.5", "1,000", "9-", "&quot;", "&amp;", "&lt;", "&gt;", "<skipped>",
    "é", "straße", "日本",
)
TEXTS = st.lists(st.sampled_from(FRAGMENTS), max_size=10).map("".join)


@st.composite
def hypothesis_lists(draw):
    # drawing members from a small pool of texts puts duplicates in the list
    pool = draw(st.lists(TEXTS, min_size=1, max_size=12))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
