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
a ``FormatError`` whose ``line`` is its 1-based number; invalid UTF-8 in an
open file also names the file.  Only errors about the whole stream (an empty
n-best list, reference streams of different lengths) have no line.

Text is carried verbatim (no unicode normalization); everything loaded here
is immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import math
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, TextIO, Tuple

SEP = " ||| "


class FormatError(ValueError):
    """An input stream violates its file-format contract."""

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


@dataclass(frozen=True)
class SourceCorpus:
    """Source sentences; index is the sentence id."""

    sentences: Tuple[str, ...]

    def __len__(self) -> int:
        return len(self.sentences)


@dataclass(frozen=True)
class ReferenceSet:
    """Per-sentence reference translations (one or more per sentence)."""

    refs: Tuple[Tuple[str, ...], ...]

    def __post_init__(self):
        if any(not r for r in self.refs):
            raise ValueError("every sentence needs at least one reference")
        if any(not text.strip() for r in self.refs for text in r):
            raise ValueError("reference strings must be non-empty after trimming")

    @property
    def num_sentences(self) -> int:
        return len(self.refs)


@dataclass(frozen=True)
class ExternalScoreTable:
    """Out-of-process model scores keyed by (sentence id, rank)."""

    feature_name: str
    scores: Dict[Tuple[int, int], float]

    def validate_against(self, corpus: NBestCorpus) -> None:
        """Check that the key set exactly covers the corpus (no missing, no extra)."""
        corpus_keys = {
            (sid, rank)
            for sid, texts in enumerate(corpus.texts)
            for rank in range(len(texts))
        }
        table_keys = set(self.scores)
        missing = sorted(corpus_keys - table_keys)
        extra = sorted(table_keys - corpus_keys)
        if missing or extra:
            parts = []
            if missing:
                parts.append("missing " + ", ".join(f"({s},{r})" for s, r in missing[:5]))
            if extra:
                parts.append("extra " + ", ".join(f"({s},{r})" for s, r in extra[:5]))
            raise ValueError(
                f"score table {self.feature_name!r} does not match corpus: "
                + "; ".join(parts)
            )


def _parse_float(token: str, lineno: int, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise FormatError(f"unparseable {what}: {token!r}", lineno) from None


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
        with open(stream.name, "rb") as f:
            lines = f.read().splitlines()
        for lineno, raw in enumerate(lines, 1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"invalid UTF-8 in {stream.name!r}: {exc.reason}", lineno) from None
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


def load_file(path: str | Path, load: Callable, *args):
    """``load(stream, *args)`` over the UTF-8 text of ``path``."""
    with open(path, encoding="utf-8") as f:
        return load(f, *args)


def open_out(path: str | Path) -> TextIO:
    """Open ``path`` for UTF-8 output with ``\\n`` line ends."""
    return open(path, "w", encoding="utf-8", newline="\n")


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


def load_scores(stream: Iterable[str], feature_name: str) -> ExternalScoreTable:
    """Parse a ``SID<TAB>RANK<TAB>SCORE`` stream (order-insensitive)."""
    scores: Dict[Tuple[int, int], float] = {}
    for lineno, parts in read_fields(stream, "\t", 3):
        try:
            sid = int(parts[0])
            rank = int(parts[1])
        except ValueError:
            raise FormatError(f"bad id/rank: {parts[0]!r}, {parts[1]!r}", lineno) from None
        if sid < 0 or rank < 0:
            raise FormatError(f"negative id/rank ({sid},{rank})", lineno)
        score = _parse_float(parts[2], lineno, "score")
        if not math.isfinite(score):
            raise FormatError(f"non-finite score {parts[2]!r}", lineno)
        key = (sid, rank)
        if key in scores:
            raise FormatError(f"duplicate key ({sid},{rank})", lineno)
        scores[key] = score
    return ExternalScoreTable(feature_name, scores)


def load_references(streams: Sequence[Iterable[str]]) -> ReferenceSet:
    """Zip one or more aligned reference streams into a multi-reference set.

    An error names a stream by its ``name`` (an open file's path) when it has
    one, and by its 0-based position otherwise.
    """
    if not streams:
        raise ValueError("at least one reference stream required")
    names = [f"reference {getattr(s, 'name', i)!r}" for i, s in enumerate(streams)]
    columns = [[line for _, (line,) in read_fields(s, name=n)] for s, n in zip(streams, names)]
    if len({len(c) for c in columns}) > 1:
        counts = ", ".join(f"{name}: {len(c)}" for name, c in zip(names, columns))
        raise FormatError(
            "line count mismatch " + " vs ".join(str(len(c)) for c in columns) + f" ({counts})"
        )
    return ReferenceSet(tuple(zip(*columns)))


def load_reference_files(paths: Sequence[str | Path]) -> ReferenceSet:
    """A multi-reference set from one line-aligned file per reference."""
    with ExitStack() as stack:
        return load_references([stack.enter_context(open(p, encoding="utf-8")) for p in paths])


def load_sources(stream: Iterable[str]) -> SourceCorpus:
    return SourceCorpus(tuple(line for _, (line,) in read_fields(stream, name="source")))


# The files of each pseudo-label format, as suffixes of the output prefix; the
# last one holds the labels.
LABEL_SUFFIXES = {"tsv": (".tsv",), "parallel": (".src", ".tgt")}


def label_paths(prefix: str | Path, fmt: str) -> List[Path]:
    """The files that pseudo-labels in format ``fmt`` are written to."""
    if fmt not in LABEL_SUFFIXES:
        raise ValueError(f"unknown output format {fmt!r}")
    return [Path(f"{prefix}{suffix}") for suffix in LABEL_SUFFIXES[fmt]]


def write_pseudo_labels(
    sources: SourceCorpus,
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
        texts = ["".join(s + "\n" for s in sources.sentences),
                 "".join(lab + "\n" for lab in labels)]
    else:
        for i, (s, lab) in enumerate(zip(sources.sentences, labels)):
            if "\t" in lab:
                raise ValueError(f"label for sentence {i} contains a tab (tsv format)")
            if "\t" in s:
                raise ValueError(f"source sentence {i} contains a tab (tsv format)")
        texts = ["".join(f"{s}\t{lab}\n" for s, lab in zip(sources.sentences, labels))]
    for path, text in zip(paths, texts):
        write_text(path, text)
    return paths
