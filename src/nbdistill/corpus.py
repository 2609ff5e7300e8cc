"""Data model and bit-exact I/O for n-best lists, bitext and score tables.

File formats (all UTF-8, ``\\n`` line endings):

* n-best list, one hypothesis per line in the Moses convention::

      SID ||| TEXT ||| NAME= VALUE [NAME= VALUE ...] ||| TOTAL

  with a single space on each side of every ``|||``.  SIDs are base-10,
  non-decreasing and dense from 0; ranks follow order of appearance.
  Duplicate hypothesis texts are kept as-is.  An ``NBestCorpus`` stores no
  ids: its three aligned columns are indexed by sentence id, then rank.

* external score table: ``SID<TAB>RANK<TAB>SCORE``, no header row.

* pseudo-label output: aligned ``.src``/``.tgt`` files, or a two-column
  ``SOURCE<TAB>TARGET`` TSV.

Every loader reads its lines through ``read_fields``.  A malformed line raises
a ``FormatError`` whose ``line`` is its 1-based number.  ``naming``, used by
``load_file`` alone, puts a path in front of an error:
``PATH: line 7: ...``, or ``PATH: ...`` for one about the whole file.  Only
errors about a whole stream (an empty n-best list, reference files of
different lengths) have no line.

Text is carried verbatim (no unicode normalization); everything loaded here
is immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Collection, Dict, Iterable, Iterator, List, Sequence, TextIO, Tuple

SEP = " ||| "


def known(name: str, names: Collection[str], what: str) -> str:
    """``name`` if it is one of ``names``; else a ValueError that lists them."""
    if name not in names:
        raise ValueError(f"unknown {what} {name!r}: expected one of {', '.join(names)}")
    return name


_PATH = (str, os.PathLike)
# per declared field type: the types of the value, or of each item of its tuple
# or key and value of its dict, and what it must be; a bool is no number
_FIELD_TYPES = {
    "int": (int, "be an integer"), "float": ((int, float), "be a number"),
    "str": (str, "be a string"), "Path": (_PATH, "be a path"),
    "Tuple[str, ...]": (str, "be a tuple of strings"),
    "Tuple[Path, ...]": (_PATH, "be a tuple of paths"),
    "Dict[str, str]": (str, "map names to strings"),
}


def typed(obj) -> None:
    """A ValueError unless each dataclass field of ``obj`` declared with a
    ``_FIELD_TYPES`` type holds a value of it (an int is a float, a str a path)."""
    for f in fields(obj):
        if f.type in _FIELD_TYPES:
            types, must = _FIELD_TYPES[f.type]
            value = getattr(obj, f.name)
            holder = {"Tuple": tuple, "Dict": dict}.get(f.type.partition("[")[0])
            items = ([value] if not holder
                     else [*value, *value.values()] if isinstance(value, dict) else value)
            if holder and not isinstance(value, holder) or any(
                    isinstance(item, bool) or not isinstance(item, types) for item in items):
                raise ValueError(f"{f.name} must {must}, got {value!r}")


class FormatError(ValueError):
    """An input stream violates its file-format contract.  ``line`` is the
    1-based number of the bad line."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class NBestCorpus:
    """All hypotheses per source sentence, as three aligned columns.

    Entry ``[s][r]`` of each field belongs to hypothesis ``r`` of sentence
    ``s``: the position is the sentence id and the rank.
    """

    texts: Tuple[Tuple[str, ...], ...]
    teacher_scores: Tuple[Tuple[Dict[str, float], ...], ...]
    totals: Tuple[Tuple[float, ...], ...]

    def __post_init__(self):
        if not self.texts:
            raise ValueError("no sentences")
        if not all(self.texts):
            raise ValueError("empty hypothesis list")
        columns = (self.texts, self.teacher_scores, self.totals)
        if len({tuple(map(len, column)) for column in columns}) > 1:
            raise ValueError("texts, teacher_scores and totals differ in list lengths")
        for texts in self.texts:
            for text in texts:
                if "\n" in text or "\r" in text:
                    raise ValueError("hypothesis text must not contain newlines")
                if "|||" in text:
                    raise ValueError("hypothesis text must not contain '|||'")

    @property
    def num_sentences(self) -> int:
        return len(self.texts)

    @property
    def n_max(self) -> int:
        return max(len(texts) for texts in self.texts)


def _parse_float(token: str, lineno: int, what: str, finite: bool = False) -> float:
    try:
        value = float(token)
    except ValueError:
        raise FormatError(f"unparseable {what}: {token!r}", lineno) from None
    if finite and not math.isfinite(value):
        raise FormatError(f"non-finite {what} {token!r}", lineno)
    return value


def _parse_scores(fld: str, lineno: int) -> Dict[str, float]:
    scores: Dict[str, float] = {}
    tokens = fld.split()
    if len(tokens) % 2 != 0:
        raise FormatError("score field must be 'NAME= VALUE' pairs", lineno)
    for i in range(0, len(tokens), 2):
        name_tok = tokens[i]
        if not name_tok.endswith("=") or len(name_tok) == 1:
            raise FormatError(f"bad score name token {name_tok!r}", lineno)
        name = name_tok[:-1]
        if name in scores:
            raise FormatError(f"duplicate score name {name!r}", lineno)
        scores[name] = _parse_float(tokens[i + 1], lineno, f"score {name!r}")
    return scores


def read_fields(
    stream: Iterable[str], sep: str | None = None, columns: int | None = None,
    start: int = 1, comment: str | None = None, name: str | None = None,
) -> Iterator[Tuple[int, List[str]]]:
    """Yield ``(line number, fields)`` for each line of ``stream``, numbered
    from ``start``: the line without its ``\\n``, split at ``sep`` (one field
    when ``sep`` is None).  Given a ``comment`` prefix, empty lines and lines
    that start with it are skipped.  A line without ``columns`` fields, a
    blank line in a stream with a ``name``, and an open file that is not UTF-8
    raise a FormatError with the line number.
    """
    try:
        for lineno, raw in enumerate(stream, start):
            line = raw.rstrip("\n")
            if comment and (not line or line.startswith(comment)):
                continue
            if name and not line.strip():
                raise FormatError(f"empty line in {name} stream", lineno)
            fields = line.split(sep) if sep else [line]
            if columns is not None and len(fields) != columns:
                raise FormatError(
                    f"expected {columns} columns separated by {sep!r}, got {len(fields)}", lineno
                )
            yield lineno, fields
    except UnicodeDecodeError:
        if not hasattr(stream, "name"):
            raise
        # text-mode decoding reads ahead in chunks, so find the line in the bytes
        for lineno, raw in enumerate(Path(stream.name).read_bytes().splitlines(), 1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"invalid UTF-8: {exc.reason}", lineno) from None
        raise


def _sentence_list(lists: List[list], sid: int, lineno: int) -> list:
    """The list that a line of sentence ``sid`` extends, opened when ``sid``
    is the next id: ids run dense and non-decreasing from 0."""
    last = len(lists) - 1
    if sid == last + 1:
        lists.append([])
    elif sid > last:
        raise FormatError(f"non-dense sentence ids: jump from {last} to {sid}", lineno)
    elif sid < last or sid < 0:
        raise FormatError(f"sentence id {sid} after {last}: ids must be non-decreasing", lineno)
    return lists[sid]


def load_nbest(stream: Iterable[str]) -> NBestCorpus:
    """Parse a Moses-convention n-best stream into an NBestCorpus.

    Ranks are assigned by order of appearance within each sentence id.
    Raises FormatError (with the offending line number) on malformed lines,
    decreasing or non-dense sentence ids, or an empty stream.
    """
    lists: List[List[Tuple[str, Dict[str, float], float]]] = []
    for lineno, (sid_str, text, score_fld, total_str) in read_fields(stream, SEP, 4):
        try:
            sid = int(sid_str)
        except ValueError:
            raise FormatError(f"bad sentence id {sid_str!r}", lineno) from None
        hyps = _sentence_list(lists, sid, lineno)
        if "|||" in text:
            raise FormatError("hypothesis text contains '|||'", lineno)
        if "\n" in text or "\r" in text:
            raise FormatError("hypothesis text contains a line break", lineno)
        scores = _parse_scores(score_fld, lineno)
        hyps.append((text, scores, _parse_float(total_str, lineno, "total")))
    if not lists:
        raise FormatError("no sentences")
    # each list's (text, scores, total) rows, transposed into the three columns
    return NBestCorpus(*zip(*(tuple(zip(*hyps)) for hyps in lists)))


@contextmanager
def naming(path: str | Path) -> Iterator[None]:
    """Put ``path`` in front of a FormatError raised in the block."""
    try:
        yield
    except FormatError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def load_file(path: str | Path, load: Callable, *args, errors: str = "strict"):
    """``load(stream, *args)`` over the UTF-8 text of ``path``, ``naming`` it,
    so that a command that reads several files says which one failed;
    ``errors`` is how bytes that are not UTF-8 decode (``open``'s argument)."""
    with open(path, encoding="utf-8", errors=errors) as f, naming(path):
        return load(f, *args)


def load_lines(path: str | Path, name: str | None = None) -> List[str]:
    """The lines of the UTF-8 text file ``path``, without their ``\\n``; with
    a ``name``, a blank line is an error that calls the file a ``name`` stream."""
    return load_file(path, lambda stream: [line for _, (line,) in read_fields(stream, name=name)])


@contextmanager
def open_out(path: str | Path) -> Iterator[TextIO]:
    """Open ``path`` for UTF-8 output with ``\\n`` line ends, as a context
    manager.  A regular file is written under a temporary name in its
    directory, which replaces ``path`` only when the block ends without an
    exception, so an interrupted write leaves the old file or none.  A link
    or a device is written in place, the file of standard output or error
    through fd 1 or 2, which keeps what a shell's ``>>`` put there."""
    p = Path(path)
    if p.is_symlink() or (p.exists() and not p.is_file()):
        target = next((fd for fd in (1, 2) if p.exists() and os.path.samestat(p.stat(), os.fstat(fd))), p)
        with open(target, "w", encoding="utf-8", newline="\n", closefd=target is p) as f:
            yield f
        return
    tmp = p.with_name(f".{p.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as f:
            yield f
        os.replace(tmp, p)
    finally:
        with suppress(FileNotFoundError):
            os.remove(tmp)


def write_text(path: str | Path, text: str) -> None:
    with open_out(path) as f:
        f.write(text)


def _fmt(value: float) -> str:
    # repr round-trips doubles exactly, keeping load/write/load the identity
    return repr(float(value))


def write_nbest(corpus: NBestCorpus, out: TextIO) -> None:
    """Serialize an NBestCorpus; the exact dual of load_nbest."""
    for sid, hyps in enumerate(zip(corpus.texts, corpus.teacher_scores, corpus.totals)):
        for text, scores, total in zip(*hyps):
            score_fld = " ".join(f"{k}= {_fmt(v)}" for k, v in scores.items())
            out.write(f"{sid}{SEP}{text}{SEP}{score_fld}{SEP}{_fmt(total)}\n")


def load_scores(stream: Iterable[str]) -> Dict[Tuple[int, int], float]:
    """Parse a ``SID<TAB>RANK<TAB>SCORE`` stream (order-insensitive) into
    ``{(sid, rank): score}``."""
    scores: Dict[Tuple[int, int], float] = {}
    for lineno, parts in read_fields(stream, "\t", 3):
        try:
            sid = int(parts[0])
            rank = int(parts[1])
        except ValueError:
            raise FormatError(f"bad id/rank: {parts[0]!r}, {parts[1]!r}", lineno) from None
        if sid < 0 or rank < 0:
            raise FormatError(f"negative id/rank ({sid},{rank})", lineno)
        score = _parse_float(parts[2], lineno, "score", finite=True)
        key = (sid, rank)
        if key in scores:
            raise FormatError(f"duplicate key ({sid},{rank})", lineno)
        scores[key] = score
    return scores


def load_references(paths: Sequence[str | Path]) -> Tuple[Tuple[str, ...], ...]:
    """The references of each sentence, one per line-aligned file of ``paths``."""
    if not paths:
        raise ValueError("at least one reference stream required")
    columns = [load_lines(p, "reference") for p in paths]
    if len({len(c) for c in columns}) > 1:
        lengths = " vs ".join(str(len(c)) for c in columns)
        counts = ", ".join(f"reference {str(p)!r}: {len(c)}" for p, c in zip(paths, columns))
        raise FormatError(f"line count mismatch {lengths} ({counts})")
    return tuple(zip(*columns))


def load_sources(stream: Iterable[str]) -> Tuple[str, ...]:
    return tuple(line for _, (line,) in read_fields(stream, name="source"))


# The files of each pseudo-label format, as suffixes of the output prefix; the
# last one holds the labels.
LABEL_SUFFIXES = {"tsv": (".tsv",), "parallel": (".src", ".tgt")}


def label_paths(prefix: str | Path, fmt: str) -> List[Path]:
    """The files that pseudo-labels in format ``fmt`` are written to."""
    suffixes = LABEL_SUFFIXES[known(fmt, LABEL_SUFFIXES, "label format")]
    return [Path(f"{prefix}{suffix}") for suffix in suffixes]


def write_pseudo_labels(
    sources: Sequence[str],
    labels: Sequence[str],
    out_prefix: str | Path,
    fmt: str = "tsv",
) -> List[Path]:
    """Emit (source, label) pairs in sentence-id order; byte-identical across runs.

    ``labels[i]`` is the label of sentence ``i``.  ``fmt`` is ``"parallel"``
    (aligned ``.src``/``.tgt`` files) or ``"tsv"`` (two-column
    ``SOURCE<TAB>TARGET``).  Returns the written paths.
    """
    paths = label_paths(out_prefix, fmt)
    n = len(sources)
    if len(labels) < n:
        raise ValueError(f"missing label for sentence {len(labels)}")
    if len(labels) > n:
        raise ValueError(f"label for unknown sentence {n}")
    for i, lab in enumerate(labels):
        if "\n" in lab or "\r" in lab:
            raise ValueError(f"label for sentence {i} contains a newline")
    if fmt == "parallel":
        texts = ["".join(s + "\n" for s in sources),
                 "".join(lab + "\n" for lab in labels)]
    else:
        for i, (s, lab) in enumerate(zip(sources, labels)):
            if "\t" in lab:
                raise ValueError(f"label for sentence {i} contains a tab (tsv format)")
            if "\t" in s:
                raise ValueError(f"source sentence {i} contains a tab (tsv format)")
        texts = ["".join(f"{s}\t{lab}\n" for s, lab in zip(sources, labels))]
    for path, text in zip(paths, texts):
        write_text(path, text)
    return paths
