import io

import pytest
from hypothesis import given, strategies as st

from nbdistill.corpus import (
    ExternalScoreTable,
    FormatError,
    NBestCorpus,
    SourceCorpus,
    load_file,
    load_nbest,
    load_reference_files,
    load_references,
    load_scores,
    load_sources,
    write_nbest,
    write_pseudo_labels,
)
from nbdistill.features import load_matrix
from nbdistill.mira import load_weights
from nbdistill.pipeline import read_ledger


class TestLoadNBest:
    def test_empty_stream_is_an_error(self):
        with pytest.raises(FormatError, match="no sentences"):
            load_nbest([])

    def test_single_line(self):
        corpus = load_nbest(["0 ||| the cat . ||| lm= -4.2 tm= -1.1 ||| -5.3"])
        assert corpus.num_sentences == 1
        assert corpus.texts == (("the cat .",),)
        assert corpus.teacher_scores == (({"lm": -4.2, "tm": -1.1},),)
        assert corpus.totals == ((-5.3,),)

    def test_ranks_follow_order_of_appearance(self):
        corpus = load_nbest(
            [
                "0 ||| a ||| lm= 1.0 ||| 1.0",
                "0 ||| b ||| lm= 2.0 ||| 2.0",
                "1 ||| c ||| lm= 3.0 ||| 3.0",
            ]
        )
        assert corpus.texts == (("a", "b"), ("c",))
        assert corpus.totals == ((1.0, 2.0), (3.0,))
        assert corpus.n_max == 2

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(FormatError, match="line 2"):
            load_nbest(["0 ||| a ||| lm= 1.0 ||| 1.0", "garbage"])

    def test_decreasing_sid(self):
        lines = ["0 ||| a |||  ||| 1.0", "1 ||| b |||  ||| 1.0", "0 ||| c |||  ||| 1.0"]
        with pytest.raises(FormatError, match="non-decreasing"):
            load_nbest(lines)

    def test_non_dense_sids(self):
        with pytest.raises(FormatError, match="non-dense"):
            load_nbest(["0 ||| a |||  ||| 1.0", "2 ||| b |||  ||| 1.0"])

    def test_separator_inside_text_rejected(self):
        with pytest.raises(FormatError):
            load_nbest(["0 ||| a ||| b ||| lm= 1.0 ||| 1.0"])
        with pytest.raises(FormatError, match=r"\|\|\|"):
            load_nbest(["0 ||| a|||b |||  ||| 1.0"])

    @pytest.mark.parametrize("text", ["a\rb", "a\nb"])
    def test_line_break_inside_text_is_a_line_numbered_error(self, text):
        with pytest.raises(FormatError, match="line break") as err:
            load_nbest(["0 ||| a ||| lm= 1 ||| 0.0", f"0 ||| {text} |||  ||| 0.0"])
        assert err.value.line == 2

    def test_duplicate_texts_are_kept(self):
        corpus = load_nbest(["0 ||| same |||  ||| 2.0", "0 ||| same |||  ||| 1.0"])
        assert corpus.texts[0] == ("same", "same")

    def test_bad_score_field(self):
        with pytest.raises(FormatError, match="score"):
            load_nbest(["0 ||| a ||| lm -4.2 ||| 1.0"])
        with pytest.raises(FormatError, match="duplicate score name"):
            load_nbest(["0 ||| a ||| lm= 1.0 lm= 2.0 ||| 1.0"])


class TestNBestCorpus:
    def test_position_is_sentence_id_and_rank(self):
        corpus = NBestCorpus(
            (("a", "b"), ("c",)), (({"lm": 1.0}, {}), ({"lm": 2.0},)), ((0.0, 0.0), (1.0,))
        )
        buf = io.StringIO()
        write_nbest(corpus, buf)
        assert buf.getvalue() == (
            "0 ||| a ||| lm= 1.0 ||| 0.0\n0 ||| b |||  ||| 0.0\n1 ||| c ||| lm= 2.0 ||| 1.0\n"
        )
        assert load_nbest(io.StringIO(buf.getvalue())) == corpus

    @pytest.mark.parametrize(
        "teacher_scores, totals",
        [
            ((({},), ({},)), ((0.0, 0.0), (1.0,))),  # sentence 0 lacks a score map
            ((({}, {}), ({},)), ((0.0,), (1.0,))),  # sentence 0 lacks a total
            ((({}, {}),), ((0.0, 0.0),)),  # sentence 1 is missing altogether
        ],
    )
    def test_fields_must_have_equal_list_lengths(self, teacher_scores, totals):
        with pytest.raises(ValueError, match="differ in list lengths"):
            NBestCorpus((("a", "b"), ("c",)), teacher_scores, totals)

    @pytest.mark.parametrize(
        "text, message",
        [("a ||| b", r"'\|\|\|'"), ("a|||b", r"'\|\|\|'"),
         ("a\nb", "newlines"), ("a\rb", "newlines")],
    )
    def test_text_must_fit_one_field_of_one_line(self, text, message):
        with pytest.raises(ValueError, match=message):
            NBestCorpus((("ok", text),), (({}, {}),), ((0.0, 0.0),))

    def test_no_sentences_and_empty_lists_rejected(self):
        with pytest.raises(ValueError, match="no sentences"):
            NBestCorpus((), (), ())
        with pytest.raises(ValueError, match="empty hypothesis list"):
            NBestCorpus((("a",), ()), (({},), ()), ((0.0,), ()))


_name = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=6)
_text = st.text(
    alphabet=st.characters(blacklist_characters="\n\r", codec="utf-8"), max_size=30
).filter(lambda t: "|||" not in t)
_score = st.floats(allow_nan=False, allow_infinity=False, width=32)


@st.composite
def corpora(draw):
    num_sentences = draw(st.integers(1, 5))
    score_names = draw(st.lists(_name, min_size=0, max_size=3, unique=True))
    sizes = [draw(st.integers(1, 4)) for _ in range(num_sentences)]
    return NBestCorpus(
        tuple(tuple(draw(_text) for _ in range(n)) for n in sizes),
        tuple(
            tuple({name: draw(_score) for name in score_names} for _ in range(n))
            for n in sizes
        ),
        tuple(tuple(draw(_score) for _ in range(n)) for n in sizes),
    )


class TestRoundTrip:
    @given(corpora())
    def test_load_write_load_is_identity(self, corpus):
        buf = io.StringIO()
        write_nbest(corpus, buf)
        reloaded = load_nbest(io.StringIO(buf.getvalue()))
        assert reloaded == corpus
        buf2 = io.StringIO()
        write_nbest(reloaded, buf2)
        assert buf2.getvalue() == buf.getvalue()


LEDGER_LINE = (
    '{{"iter": 1, "dev_bleu": 1.5, "weights_path": "w", "labels_path": "l", '
    '"started": {}, "finished": "t1"}}\n'
)


@pytest.mark.parametrize("sid", ["-1", "x"])
@pytest.mark.parametrize(
    "load, template, line",
    [
        (lambda path: load_file(path, load_nbest), "{} ||| a |||  ||| 0.0\n", 1),
        (lambda path: load_file(path, load_scores, "lm"), "{}\t0\t1.0\n", 1),
        (lambda path: load_file(path, load_matrix), "#features\tf\n{}\t0\t1.0\n", 2),
        # weights and the ledger have no sentence ids: the value goes where it
        # repeats a weight name, or is no JSON string
        (lambda path: load_file(path, load_weights), "#c\n{0}\t1.0\n{0}\t2.0\n", 3),
        (read_ledger, LEDGER_LINE, 1),
    ],
    ids=["nbest", "scores", "matrix", "weights", "ledger"],
)
def test_bad_first_sentence_id_is_a_line_numbered_error(tmp_path, load, template, line, sid):
    path = tmp_path / "input"
    path.write_text(template.format(sid), encoding="utf-8")
    with pytest.raises(FormatError) as err:
        load(path)
    assert err.value.line == line


def test_invalid_utf8_names_the_file_and_the_line(tmp_path):
    # text-mode decoding reads 8 KB chunks ahead, far past line 1500's start
    lines = [f"{sid} ||| a |||  ||| 0.0\n".encode() for sid in range(2000)]
    lines[1499] = b"1499 ||| \xff |||  ||| 0.0\n"
    path = tmp_path / "bad.nbest"
    path.write_bytes(b"".join(lines))
    with pytest.raises(FormatError) as err:
        load_file(path, load_nbest)
    assert err.value.line == 1500
    assert str(err.value) == f"line 1500: invalid UTF-8 in {str(path)!r}: invalid start byte"


class TestLoadScores:
    def test_empty_stream_gives_empty_table(self):
        table = load_scores([], "lm")
        assert table.scores == {}
        assert table.feature_name == "lm"

    def test_single_entry(self):
        table = load_scores(["0\t0\t-3.5"], "lm")
        assert table.scores == {(0, 0): -3.5}

    def test_duplicate_key(self):
        with pytest.raises(FormatError, match=r"duplicate key \(0,1\)"):
            load_scores(["0\t1\t1.0", "0\t1\t2.0"], "lm")

    def test_negative_ids(self):
        with pytest.raises(FormatError, match="negative"):
            load_scores(["-1\t0\t1.0"], "lm")

    def test_unparseable_score(self):
        with pytest.raises(FormatError, match="unparseable"):
            load_scores(["0\t0\tabc"], "lm")
        with pytest.raises(FormatError, match="non-finite"):
            load_scores(["0\t0\tnan"], "lm")

    def test_validate_reports_missing_keys(self):
        corpus = load_nbest(
            [
                "0 ||| a |||  ||| 1.0",
                "0 ||| b |||  ||| 0.9",
                "0 ||| c |||  ||| 0.8",
            ]
        )
        table = load_scores(["0\t0\t1.0", "0\t1\t2.0"], "lm")
        with pytest.raises(ValueError, match=r"missing \(0,2\)"):
            table.validate_against(corpus)

    def test_validate_reports_extra_keys(self):
        corpus = load_nbest(["0 ||| a |||  ||| 1.0"])
        table = load_scores(["0\t0\t1.0", "9\t9\t2.0"], "lm")
        with pytest.raises(ValueError, match=r"extra \(9,9\)"):
            table.validate_against(corpus)

    @given(st.permutations(["0\t0\t1.5", "0\t1\t-2.0", "1\t0\t3.25", "1\t1\t0.0"]))
    def test_order_insensitive(self, lines):
        assert load_scores(lines, "x") == load_scores(sorted(lines), "x")


class TestParallel:
    def test_empty_line_rejected(self):
        with pytest.raises(FormatError, match="line 2: empty line in source stream"):
            load_sources(["a", "   "])
        with pytest.raises(FormatError, match="line 1: empty line in reference 1 stream"):
            load_references([["x", "y"], ["", "y"]])

    def test_reference_file_error_names_its_path(self, tmp_path):
        (tmp_path / "r1").write_text("a\nb\n", encoding="utf-8")
        (tmp_path / "r0").write_text("a\n \n", encoding="utf-8")
        paths = [tmp_path / "r1", tmp_path / "r0"]
        want = f"line 2: empty line in reference {str(paths[1])!r} stream"
        with pytest.raises(FormatError) as err:
            load_reference_files(paths)
        assert (str(err.value), err.value.line) == (want, 2)

    def test_multi_reference_zip(self):
        refs = load_references([["r0a", "r1a"], ["r0b", "r1b"]])
        assert refs.refs == (("r0a", "r0b"), ("r1a", "r1b"))

    def test_multi_reference_mismatch(self):
        with pytest.raises(FormatError, match="line count mismatch 2 vs 1"):
            load_references([["a", "b"], ["x"]])

    def test_reference_files_mismatch_names_each_file(self, tmp_path):
        (tmp_path / "r0").write_text("a\nb\n", encoding="utf-8")
        (tmp_path / "r1").write_text("x\n", encoding="utf-8")
        paths = [tmp_path / "r0", tmp_path / "r1"]
        with pytest.raises(FormatError) as err:
            load_reference_files(paths)
        assert str(err.value) == (
            f"line count mismatch 2 vs 1 (reference {str(paths[0])!r}: 2, "
            f"reference {str(paths[1])!r}: 1)"
        )


class TestWritePseudoLabels:
    def test_single_sentence_tgt_bytes(self, tmp_path):
        paths = write_pseudo_labels(
            SourceCorpus(("src .",)), ("hello .",), tmp_path / "out", "parallel"
        )
        tgt = [p for p in paths if p.suffix == ".tgt"][0]
        assert tgt.read_bytes() == b"hello .\n"

    def test_newline_in_label_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="newline"):
            write_pseudo_labels(
                SourceCorpus(("s",)), ("bad\nlabel",), tmp_path / "out", "tsv"
            )

    def test_output_in_id_order(self, tmp_path):
        labels = ("zero", "one", "two")
        paths = write_pseudo_labels(
            SourceCorpus(("a", "b", "c")), labels, tmp_path / "out", "tsv"
        )
        body = paths[0].read_text()
        assert body == "a\tzero\nb\tone\nc\ttwo\n"

    def test_missing_label(self, tmp_path):
        with pytest.raises(ValueError, match="missing label for sentence 1"):
            write_pseudo_labels(SourceCorpus(("a", "b")), ("x",), tmp_path / "o", "tsv")

    def test_tsv_rejects_tabs(self, tmp_path):
        with pytest.raises(ValueError, match="tab"):
            write_pseudo_labels(SourceCorpus(("a",)), ("x\ty",), tmp_path / "o", "tsv")

    def test_byte_identical_across_runs(self, tmp_path):
        sources = SourceCorpus(("a", "b"))
        labels = ("x", "y")
        p1 = write_pseudo_labels(sources, labels, tmp_path / "one", "tsv")[0]
        p2 = write_pseudo_labels(sources, labels, tmp_path / "two", "tsv")[0]
        assert p1.read_bytes() == p2.read_bytes()
