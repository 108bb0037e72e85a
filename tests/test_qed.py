import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from qergodic import (
    Distribution,
    Hypothesis1Error,
    NullEventError,
    ValidationError,
    decompose_classes,
    exact_mean_ratio,
    lift_chain,
    moving_walk,
    moving_walk_qed,
    qed_fixed,
    qed_moving,
    select_dominant,
    survivor_matrix_fixed,
)
from _chains import (
    chained_tie,
    class_edges,
    feeder_ring_sink,
    k2_walk,
    n3_walk,
    random_problem,
    rate_zero_feeder,
    reachable_dfs,
    symmetric_slow_chain,
    thinned_random_lift,
    two_copies_tied,
)


def test_select_dominant_mixed_start_picks_odd_class():
    lifted = lift_chain(
        moving_walk(0.5, 3, initial=Distribution({"2": 0.5, "3": 0.5}))
    )
    dec = decompose_classes(lifted.survivor_matrix)
    selection = select_dominant(dec, lifted.initial_vector)
    assert len(selection.charged) == 2
    cls = selection.selected(dec)
    labels = {lifted.survivors[s] for s in cls.states}
    assert ("1", 0) in labels  # the odd-parity class
    assert selection.rho_max == pytest.approx(
        2 * np.sqrt(0.25) * np.cos(np.pi / 6), abs=1e-12
    )


def test_select_dominant_even_start_picks_even_class():
    lifted = lift_chain(moving_walk(0.5, 3, initial="2"))
    dec = decompose_classes(lifted.survivor_matrix)
    selection = select_dominant(dec, lifted.initial_vector)
    assert len(selection.charged) == 1
    cls = selection.selected(dec)
    labels = {lifted.survivors[s] for s in cls.states}
    assert labels == {("2", 0), ("4", 0), ("3", 1)}


def test_select_dominant_tie_raises_naming_classes():
    problem = two_copies_tied()
    lifted = lift_chain(problem)
    dec = decompose_classes(lifted.survivor_matrix)
    with pytest.raises(Hypothesis1Error) as err:
        select_dominant(dec, lifted.initial_vector)
    assert len(err.value.tied_classes) == 2


def test_select_dominant_picks_the_core_without_warnings():
    # the absorbing states are reachable from the core but decay at rate 0
    problem = symmetric_slow_chain()
    lifted = lift_chain(problem)
    dec = decompose_classes(lifted.survivor_matrix)
    selection = select_dominant(dec, lifted.initial_vector)
    labels = {lifted.survivors[s][0] for s in selection.selected(dec).states}
    assert labels == {"a", "b", "c"}
    assert selection.warnings == ()


@pytest.mark.parametrize("ring", [("b", "c"), ("b", "c", "e")], ids=["period2", "period3"])
def test_qed_moves_to_a_reachable_class_that_outranks_the_start(ring):
    problem = feeder_ring_sink(ring)
    result = qed_moving(problem, {"b": 1.0})
    assert result.rho == pytest.approx(0.9, abs=1e-12)
    assert set(result.eta_distribution.support()) == set(ring)
    assert abs(result.phi - exact_mean_ratio(problem, {"b": 1.0}, 2000)) <= 1e-2


def test_qed_from_a_rate_zero_start_that_feeds_a_surviving_class():
    problem = rate_zero_feeder()
    result = qed_moving(problem, {"b": 1.0})
    assert result.eta_distribution.weights == {"b": 1.0}
    assert abs(result.phi - exact_mean_ratio(problem, {"b": 1.0}, 500)) <= 1e-2


def test_qed_rejects_a_tie_with_a_reachable_class():
    with pytest.raises(Hypothesis1Error) as err:
        qed_moving(chained_tie())
    assert err.value.tied_classes == (0, 1)


def _reference_selection(dec, Q, mu):
    """The argmax of the decay rate over the classes mu charges and those
    they reach by a plain DFS: a class index, or the error to expect."""
    charged = set(dec.class_of[mu > 0.0].tolist())
    live = charged | reachable_dfs(class_edges(Q, dec.class_of), charged)
    best = max(live, key=lambda i: dec.classes[i].rho)
    rho_max = dec.classes[best].rho
    if rho_max <= 0.0:
        return NullEventError
    if any(dec.classes[i].rho >= rho_max * (1.0 - 1e-9) for i in live - {best}):
        return Hypothesis1Error
    return best


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_select_dominant_matches_a_reference_on_random_problems(seed):
    rng = np.random.default_rng(seed)
    # a thinned lift started from a random law spans several classes
    for lifted in (lift_chain(random_problem(rng)), thinned_random_lift(rng)):
        dec, Q = lifted.decomposition, lifted.survivor_csr.toarray()
        for mu in (lifted.initial_vector, rng.random(len(Q)) * (rng.random(len(Q)) < 0.3)):
            if mu.sum() <= 0.0:
                continue
            want = _reference_selection(dec, Q, mu)
            if isinstance(want, type):
                with pytest.raises(want):
                    select_dominant(dec, mu)
            else:
                assert select_dominant(dec, mu).selected_index == want


def test_qed_fixed_k2():
    Q = survivor_matrix_fixed(0.5, 2)
    mu = np.array([1.0, 0.0])
    f = np.array([1.0, 0.0])
    result = qed_fixed(Q, mu, f)
    np.testing.assert_allclose(result.eta, [0.5, 0.5], atol=1e-12)
    assert result.phi == pytest.approx(0.5, abs=1e-12)


def test_qed_fixed_k5_is_p_free_sine_profile():
    expected = np.array([1 / 12, 1 / 4, 1 / 3, 1 / 4, 1 / 12])
    for p in (0.3, 0.5, 0.8):
        Q = survivor_matrix_fixed(p, 5)
        result = qed_fixed(Q, np.full(5, 0.2))
        np.testing.assert_allclose(result.eta, expected, atol=1e-11)


def test_qed_fixed_constant_function_gives_one():
    Q = survivor_matrix_fixed(0.4, 5)
    result = qed_fixed(Q, np.full(5, 0.2), np.ones(5))
    assert result.phi == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("value", [np.nan, np.inf, -0.5])
@pytest.mark.parametrize(
    "entry",
    [
        lambda Q, mu: qed_fixed(Q, mu),
        lambda Q, mu: select_dominant(decompose_classes(Q), mu),
    ],
    ids=["qed_fixed", "select_dominant"],
)
def test_an_initial_law_with_a_negative_or_non_finite_weight_is_rejected(entry, value):
    # a NaN weight would read as uncharged and an infinite one as charged
    with pytest.raises(ValidationError, match="negative or not finite"):
        entry(survivor_matrix_fixed(0.5, 5), np.array([value, 1.0, 0.0, 0.0, 0.0]))


@pytest.mark.parametrize(
    "entry, message",
    [
        (lambda Q: select_dominant(decompose_classes(Q), np.full(4, 0.25)),
         "initial law must be a vector over the matrix states"),
        (lambda Q: qed_fixed(Q, np.full(5, 0.2), np.ones(4)),
         "f must have one value per matrix state"),
    ],
    ids=["select_dominant-law", "qed_fixed-f"],
)
def test_a_vector_of_the_wrong_length_is_rejected(entry, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        entry(survivor_matrix_fixed(0.5, 5))


@pytest.mark.parametrize(
    "Q",
    [survivor_matrix_fixed(0.4, 5), lift_chain(n3_walk(0.45)).survivor_matrix],
    ids=["fixed-5", "lifted-n3"],
)
def test_qed_fixed_reads_sparse_and_dense_alike(Q):
    mu = np.full(Q.shape[0], 1.0 / Q.shape[0])
    dense, csr = qed_fixed(Q, mu), qed_fixed(sparse.csr_array(Q), mu)
    assert csr.eta.tobytes() == dense.eta.tobytes()
    assert csr.rho == dense.rho


@pytest.mark.parametrize("labels", [("a",), ("a", "b", "c", "d"), ("a", "b", "a")])
def test_qed_fixed_wants_one_distinct_label_per_state(labels):
    Q = survivor_matrix_fixed(0.5, 3)
    with pytest.raises(ValidationError, match=r"^labels must name the 3 states once each"):
        qed_fixed(Q, np.full(3, 1 / 3), labels=labels)
    names = qed_fixed(Q, np.full(3, 1 / 3), labels=("a", "b", "c")).eta_distribution.weights
    assert sorted(names) == ["a", "b", "c"]


def test_qed_moving_n3_odd_start():
    result = qed_moving(n3_walk(), {"3": 1.0})
    expected = {"1": 1 / 12, "2": 1 / 4, "3": 1 / 3, "4": 1 / 4, "5": 1 / 12}
    for s, w in expected.items():
        assert result.eta_distribution.weights[s] == pytest.approx(w, abs=1e-11)
    assert result.phi == pytest.approx(1 / 3, abs=1e-11)


def test_qed_moving_n3_even_start():
    result = qed_moving(moving_walk(0.5, 3, initial="2"))
    expected = {"2": 0.25, "3": 0.5, "4": 0.25}
    assert set(result.eta_distribution.support()) == set(expected)
    for s, w in expected.items():
        assert result.eta_distribution.weights[s] == pytest.approx(w, abs=1e-11)


def test_qed_moving_gamma_one_equals_fixed():
    problem = k2_walk(p=0.35)
    moving = qed_moving(problem, {"1": 1.0})
    Q = survivor_matrix_fixed(0.35, 2)
    fixed = qed_fixed(Q, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    np.testing.assert_allclose(
        sorted(moving.eta_distribution.weights.values()),
        sorted(fixed.eta_distribution.weights.values()),
        atol=1e-12,
    )
    assert moving.phi == pytest.approx(fixed.phi, abs=1e-12)


def test_qed_eta_positive_on_class_and_sums_to_one():
    for problem in (n3_walk(0.3), symmetric_slow_chain()):
        result = qed_moving(problem)
        cls = result.selection.selected(result.decomposition)
        assert np.all(result.eta[list(cls.states)] > 0.0)
        off = [s for s in range(len(result.eta)) if s not in cls.states]
        assert np.all(result.eta[off] == 0.0)
        assert result.eta.sum() == pytest.approx(1.0, abs=1e-10)


def test_qed_scale_invariance_of_phi():
    problem = n3_walk(0.6)
    f = {"1": 0.3, "2": -1.0, "3": 2.0}
    base = qed_moving(problem, f).phi
    shifted = qed_moving(
        problem, {k: 3.0 * v + 0.7 for k, v in f.items()} | {
            x: 0.7 for x in problem.space.labels if x not in f
        }
    ).phi
    assert shifted == pytest.approx(3.0 * base + 0.7, abs=1e-10)


def test_qed_agrees_with_exact_oracle_along_n():
    problem = n3_walk(0.4, start="3")
    f = {"1": 1.0, "2": 0.5}
    phi = qed_moving(problem, f).phi
    errors = [
        abs(exact_mean_ratio(problem, f, n) - phi) for n in (50, 200, 2000)
    ]
    assert errors[-1] <= 1e-2
    assert errors[2] < errors[1] < errors[0]


def test_qed_matches_closed_form_distribution():
    for N in (3, 4, 5):
        for p in (0.3, 0.7):
            res = qed_moving(moving_walk(p, N, initial="1"))
            assert res.eta_distribution.tv_distance(
                moving_walk_qed(N, "odd")
            ) < 1e-9
