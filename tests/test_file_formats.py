"""The error contract of every line-oriented loader, as a mutation fuzz.

A valid file of each format is mutated by inserting, deleting and duplicating
bytes and lines, and read back through the loader's file path.  The loader
must return or raise a FormatError, and the error must carry the number of a
line of the file, unless it is about the whole stream.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from nbdistill.corpus import (
    FormatError,
    load_file,
    load_nbest,
    load_reference_files,
    load_scores,
    load_sources,
)
from nbdistill.features import load_matrix
from nbdistill.mira import load_weights
from nbdistill.pipeline import read_ledger

ENTRY = {"iter": 1, "dev_bleu": 1.5, "weights_path": "w", "labels_path": "l",
         "started": "t0", "finished": "t1"}
VALID = {
    "nbest": b"0 ||| a b ||| lm= -1.5 tm= 2 ||| 0.5\n0 ||| c |||  ||| 1e3\n1 ||| d ||| lm= 0 ||| -2\n",
    "scores": b"0\t0\t1.5\n0\t1\t-2\n1\t0\t3e2\n",
    "matrix": b"#features\ta\tb\n0\t0\t1.0\t2\n0\t1\t-1\t0\n1\t0\t3\t4.5\n",
    "weights": b"a\t0.5\n\nb\t-1\n#best_epoch\t3\t#tune_bleu\t1.0000\n",
    "references": "a b\nc .\nd \u00e9\n".encode(),
    "sources": b"x y\nz\n w \n",
    "ledger": "".join(json.dumps({**ENTRY, "iter": i}) + "\n" for i in (1, 2)).encode(),
}
LOADERS = {
    "nbest": lambda path: load_file(path, load_nbest),
    "scores": lambda path: load_file(path, load_scores, "lm"),
    "matrix": lambda path: load_file(path, load_matrix),
    "weights": lambda path: load_file(path, load_weights),
    # the second file is a valid copy, so a changed line count is a mismatch
    "references": lambda path: load_reference_files([path, path.with_name("ref1")]),
    "sources": lambda path: load_file(path, load_sources),
    "ledger": read_ledger,
}
# the errors that concern a whole stream, and so name no line
WHOLE_STREAM = ("no sentences", "empty matrix file", "matrix has no rows", "no weights",
                "line count mismatch", "ledger iteration indices")
PIECES = (b"\n", b"\r", b"\t", b" ||| ", b"|||", b" ", b"#", b"0", b"1", b"-", b".", b"e",
          b"=", b"nan", b"{", b"}", b'"', b":", b",", b"\x0c", b"\xff", "\u00e9\u00a0\u2028".encode())
LINES = [line for data in VALID.values() for line in data.splitlines(keepends=True)]


@st.composite
def mutated(draw):
    name = draw(st.sampled_from(sorted(VALID)))
    data = VALID[name]
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["insert", "delete", "duplicate"]))
        whole_lines = draw(st.booleans())
        if whole_lines:
            parts = data.splitlines(keepends=True)
        else:
            parts = [data[k:k + 1] for k in range(len(data))]
        i = draw(st.integers(0, len(parts)))
        j = draw(st.integers(i, min(i + 3, len(parts))))
        if op == "insert":
            parts.insert(i, draw(st.sampled_from(LINES if whole_lines else PIECES)))
        elif op == "delete":
            del parts[i:j]
        else:
            parts[j:j] = parts[i:j]
        data = b"".join(parts)
    return name, data


@settings(max_examples=1000)
@example(("ledger", json.dumps(ENTRY).replace("1.5", "1" * 5000).encode()))
@example(("nbest", VALID["nbest"].replace(b"c", b"\xff")))
@given(mutated())
def test_every_loader_returns_or_raises_a_line_numbered_format_error(case):
    name, data = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(data)
        (Path(tmp) / "ref1").write_bytes(VALID["references"])
        try:
            LOADERS[name](path)
        except FormatError as exc:
            if exc.line is None:
                assert any(text in str(exc) for text in WHOLE_STREAM), str(exc)
            else:
                # text mode splits lines at \n, \r and \r\n, as bytes.splitlines does
                assert 1 <= exc.line <= len(data.splitlines()), str(exc)
