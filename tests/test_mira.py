import io

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from nbdistill.corpus import FormatError, load_nbest
from nbdistill.features import assemble_matrix
from nbdistill.metrics import corpus_bleu, corpus_stats
import nbdistill.mira as mira
from nbdistill.mira import (
    MiraConfig,
    WeightVector,
    _Pcg64,
    _update_on_sentence,
    hope_fear,
    load_weights,
    tune_mira,
    write_weights,
)
from nbdistill.rerank import rerank
from synth import make_corpus, make_planted_instance, nbest_lines


def build(num_sentences, n, seed=0, num_refs=1):
    _, refs, hyps = make_corpus(num_sentences, n, seed=seed, num_refs=num_refs)
    corpus = load_nbest(nbest_lines(hyps))
    refset = tuple(tuple(r) for r in refs)
    matrix = assemble_matrix(corpus, passthrough=["total", "lm"], native=["mbr_bleu"])
    return corpus, refset, matrix, refs, hyps


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MiraConfig(c=0.0)
        for c in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"^c must be positive and finite, got {c}$"):
                MiraConfig(c=c)
        with pytest.raises(ValueError):
            MiraConfig(epochs=0)
        with pytest.raises(ValueError):
            MiraConfig(init="random")

    @pytest.mark.parametrize("seed", [-1, 2**64, -(2**64)])
    def test_seed_must_fit_in_64_bits(self, seed):
        # a seed outside 0..2**64-1 would otherwise name the stream of one inside
        with pytest.raises(ValueError, match=f"^seed must be in 0..{2**64 - 1}, got {seed}$"):
            MiraConfig(seed=seed)

    @pytest.mark.parametrize("field, value, kind", [
        *((field, value, "an integer") for field in ("epochs", "seed") for value in (1.5, True)),
        ("c", True, "a number"),  # True < 1 held, so c=True was a step size of 1
    ])
    def test_counts_must_be_integers(self, field, value, kind):
        # a float failed only inside tune_mira, after its BLEU table was built
        with pytest.raises(ValueError) as err:
            MiraConfig(**{field: value})
        assert str(err.value) == f"{field} must be {kind}, got {value}"

    def test_seed_range_ends_are_accepted(self):
        assert (MiraConfig(seed=0).seed, MiraConfig(seed=2**64 - 1).seed) == (0, 2**64 - 1)


class TestVisitOrder:
    """Epoch e visits the sentences in the order of the e-th
    ``numpy.random.default_rng(seed).permutation`` on one generator; the
    package computes that stream itself, and numpy.random is the oracle."""

    @given(
        seed=st.integers(0, 2**64 - 1),
        sizes=st.lists(st.integers(0, 300), min_size=1, max_size=5),
    )
    @example(seed=0, sizes=[0, 1, 2, 10])
    @example(seed=2**32 - 1, sizes=[2, 300, 1])
    @example(seed=2**32, sizes=[1, 300, 0, 2])
    @example(seed=2**64 - 1, sizes=[300, 2, 1, 0, 7])
    def test_permutations_match_numpy(self, seed, sizes):
        ours, numpy_rng = _Pcg64(seed), np.random.default_rng(seed)
        for n in sizes:
            assert ours.permutation(n) == numpy_rng.permutation(n).tolist()

    def test_pinned_orders(self):
        # fixed here too, so the order holds whichever numpy is installed
        rng = _Pcg64(0)
        assert [rng.permutation(10) for _ in range(3)] == [
            [4, 6, 2, 7, 3, 5, 9, 0, 8, 1],
            [2, 9, 3, 6, 0, 4, 8, 7, 5, 1],
            [5, 4, 9, 0, 8, 2, 1, 6, 7, 3],
        ]

    @pytest.mark.parametrize("seed", [0, 2**32, 2**64 - 1])
    def test_tune_visits_in_the_numpy_order(self, monkeypatch, seed):
        corpus, refset, matrix, _, _ = build(9, 4, seed=3)
        sid_of = {id(rows): sid for sid, rows in enumerate(matrix.values)}
        visits = []
        update = mira._update_on_sentence

        def recording(lam, rows, gains, c):
            visits.append(sid_of[id(rows)])
            return update(lam, rows, gains, c)

        monkeypatch.setattr(mira, "_update_on_sentence", recording)
        tune_mira(matrix, corpus, refset, MiraConfig(epochs=3, seed=seed))
        numpy_rng = np.random.default_rng(seed)
        assert visits == [sid for _ in range(3) for sid in numpy_rng.permutation(9).tolist()]


class TestTune:
    def test_single_hypothesis_lists_never_update(self):
        corpus, refset, matrix, _, _ = build(6, 1)
        run = tune_mira(matrix, corpus, refset, MiraConfig(epochs=3))
        init = run.history[0][0]
        for weights, bleu in run.history:
            assert weights == init
            assert bleu == run.history[0][1]
        assert run.best_epoch == 0
        assert run.history[run.best_epoch][0] == init

    def test_default_init_is_one_hot_total(self):
        corpus, refset, matrix, _, _ = build(4, 3)
        run = tune_mira(matrix, corpus, refset, MiraConfig(epochs=1))
        init = run.history[0][0]
        assert init.weights[matrix.feature_names.index("total")] == 1.0
        assert sum(abs(w) for w in init.weights) == 1.0

    def test_uniform_init(self):
        corpus, refset, matrix, _, _ = build(4, 3)
        m = len(matrix.feature_names)
        run = tune_mira(matrix, corpus, refset, MiraConfig(epochs=1, init="uniform"))
        assert run.history[0][0].weights == (1.0 / m,) * m

    def test_tiny_c_pins_weights_to_init(self):
        corpus, refset, matrix, _, _ = build(10, 4, seed=2)
        c = 1e-12
        config = MiraConfig(c=c, epochs=3)
        run = tune_mira(matrix, corpus, refset, config)
        init = np.array(run.history[0][0].weights)
        max_step = max(
            float(np.abs(arr[i] - arr[j]).max())
            for arr in matrix.values
            for i in range(len(arr))
            for j in range(len(arr))
        )
        bound = c * max_step * config.epochs * corpus.num_sentences
        for weights, _ in run.history:
            assert np.abs(np.array(weights.weights) - init).max() <= bound

    def test_history_shape_and_epoch0_candidacy(self):
        corpus, refset, matrix, _, _ = build(8, 4, seed=3)
        run = tune_mira(matrix, corpus, refset, MiraConfig(epochs=5))
        assert len(run.history) == 6
        bleus = [b for _, b in run.history]
        assert run.history[run.best_epoch][1] == max(bleus)
        assert bleus[run.best_epoch] >= bleus[0]
        # first maximum wins
        assert run.best_epoch == bleus.index(max(bleus))

    def test_determinism_same_seed(self):
        corpus, refset, matrix, _, _ = build(12, 4, seed=4)
        a = tune_mira(matrix, corpus, refset, MiraConfig(epochs=4, seed=9))
        b = tune_mira(matrix, corpus, refset, MiraConfig(epochs=4, seed=9))
        assert a == b

    def test_different_seed_changes_visit_order(self):
        corpus, refset, matrix, _, _ = build(30, 6, seed=5)
        a = tune_mira(matrix, corpus, refset, MiraConfig(epochs=2, seed=0))
        b = tune_mira(matrix, corpus, refset, MiraConfig(epochs=2, seed=1))
        # histories may coincide in BLEU but raw weights should differ somewhere
        assert a.history != b.history

    def test_planted_signal_recovered(self):
        corpus, refset, matrix, refs, hyps = make_planted_instance(60, 6, seed=5)
        run = tune_mira(matrix, corpus, refset, MiraConfig(epochs=8, seed=0))
        assert run.history[run.best_epoch][0].weights[0] > 0
        # beats every single-feature reranker on the tune set
        num_sentences = corpus.num_sentences
        singles = []
        for j in range(len(matrix.feature_names)):
            sel = [
                int(np.argmax(matrix.values[s][:, j])) for s in range(num_sentences)
            ]
            hyp = [hyps[s][sel[s]] for s in range(num_sentences)]
            singles.append(corpus_bleu(corpus_stats(hyp, refs)))
        assert run.history[run.best_epoch][1] >= max(singles) - 1e-9

    def test_misaligned_refs_rejected(self):
        corpus, refset, matrix, _, _ = build(4, 2)
        bad = refset[:-1]
        with pytest.raises(ValueError, match="cover"):
            tune_mira(matrix, corpus, bad)


class TestUpdateStep:
    @given(st.data())
    def test_update_reduces_margin_or_caps_at_c(self, data):
        n = data.draw(st.integers(2, 5))
        m = data.draw(st.integers(1, 4))
        ints = st.integers(-8, 8)
        rows = np.array(
            [[data.draw(ints) for _ in range(m)] for _ in range(n)], dtype=float
        )
        gains = np.array([data.draw(st.integers(0, 100)) for _ in range(n)], dtype=float)
        lam = np.array([data.draw(ints) for _ in range(m)], dtype=float) / 4.0
        c = 0.25
        model = rows @ lam
        hope, fear = hope_fear(model, gains)
        old_loss = (gains[hope] - gains[fear]) - (model[hope] - model[fear])
        new_lam, updated = _update_on_sentence(lam, rows, gains, c)
        if not updated:
            assert old_loss <= 0.0 or hope == fear or np.all(rows[hope] == rows[fear])
            return
        diff = rows[hope] - rows[fear]
        delta = (new_lam - lam) @ diff / float(diff @ diff)
        assert delta <= c + 1e-12
        new_model = rows @ new_lam
        new_loss = (gains[hope] - gains[fear]) - (new_model[hope] - new_model[fear])
        assert new_loss <= old_loss + 1e-9
        # uncapped steps close the margin exactly
        if delta < c - 1e-12:
            assert new_loss == pytest.approx(0.0, abs=1e-9)

    @given(st.data())
    def test_hope_fear_invariant_to_gain_shift(self, data):
        n = data.draw(st.integers(1, 6))
        ints = st.integers(-64, 64)
        model = np.array([data.draw(ints) for _ in range(n)], dtype=float)
        gains = np.array([data.draw(st.integers(0, 100)) for _ in range(n)], dtype=float)
        shift = float(data.draw(st.integers(-50, 50)))
        assert hope_fear(model, gains) == hope_fear(model, gains + shift)


class TestEvaluateWeights:
    # corpus BLEU of a weight vector's argmax selection, as rerank reports it
    def test_one_hot_total_equals_rank0_bleu(self):
        corpus, refset, matrix, refs, hyps = build(10, 4, seed=6)
        # fixture precondition: rank order follows the total score
        for totals in corpus.totals:
            assert list(totals) == sorted(totals, reverse=True)
        one_hot = WeightVector(
            matrix.feature_names,
            tuple(1.0 if n == "total" else 0.0 for n in matrix.feature_names),
        )
        value = rerank(matrix, corpus, one_hot, refs=refset).corpus_score
        top1 = [h[0] for h in hyps]
        assert value == corpus_bleu(corpus_stats(top1, refs))

    def test_zero_weights_select_rank0(self):
        corpus, refset, matrix, refs, hyps = build(10, 4, seed=7)
        zeros = WeightVector(matrix.feature_names, (0.0,) * len(matrix.feature_names))
        value = rerank(matrix, corpus, zeros, refs=refset).corpus_score
        top1 = [h[0] for h in hyps]
        assert value == corpus_bleu(corpus_stats(top1, refs))

    def test_two_sentence_toy_enumeration(self):
        corpus = load_nbest(
            [
                "0 ||| a b ||| f= 1.0 ||| 0.0",
                "0 ||| c d ||| f= 5.0 ||| 0.0",
                "1 ||| e f ||| f= 2.0 ||| 0.0",
                "1 ||| g h ||| f= 1.0 ||| 0.0",
            ]
        )
        refset = (("c d",), ("e f",))
        matrix = assemble_matrix(corpus, passthrough=["f"])
        weights = WeightVector(("f",), (1.0,))
        assert rerank(matrix, corpus, weights, refs=refset).corpus_score == 100.0

    def test_name_mismatch(self):
        corpus, refset, matrix, _, _ = build(3, 2)
        wrong = WeightVector(("x",) * len(matrix.feature_names), (1.0,) * len(matrix.feature_names))
        with pytest.raises(ValueError, match="match"):
            rerank(matrix, corpus, wrong, refs=refset)


class TestWeightsIO:
    def test_round_trip_with_trailer(self):
        weights = WeightVector(("a", "b"), (0.125, -3.5))
        buf = io.StringIO()
        write_weights(weights, buf, best_epoch=4, tune_bleu=52.12345)
        text = buf.getvalue()
        assert text.endswith("#best_epoch\t4\t#tune_bleu\t52.1234\n")
        assert load_weights(io.StringIO(text)) == weights

    @pytest.mark.parametrize("weight", ["abc", "", "1.5x"])
    def test_unparseable_weight_names_its_line(self, weight):
        text = f"a\t0.5\n#comment\nb\t{weight}\n"
        with pytest.raises(FormatError, match=r"^line 3: unparseable weight") as exc:
            load_weights(io.StringIO(text))
        assert exc.value.line == 3

    def test_repeated_name_names_its_line(self):
        with pytest.raises(FormatError, match=r"^line 3: duplicate feature name 'a'") as exc:
            load_weights(io.StringIO("a\t0.5\n#comment\na\t1.5\n"))
        assert exc.value.line == 3

    @pytest.mark.parametrize(
        "text", ["", "\n#best_epoch\t0\t#tune_bleu\t0.0000\n"], ids=["empty", "comment"]
    )
    def test_a_file_without_weights_is_an_error(self, text):
        with pytest.raises(FormatError, match="^no weights$"):
            load_weights(io.StringIO(text))

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_weight_names_its_line(self, weight):
        text = f"a\t0.5\nb\t{weight}\n"
        with pytest.raises(FormatError, match=r"^line 2: non-finite weight") as exc:
            load_weights(io.StringIO(text))
        assert exc.value.line == 2
