import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import sparse

from qergodic import (
    ConvergenceError,
    ValidationError,
    build_qprocess_dominant,
    decompose_classes,
    lift_chain,
    moving_walk,
    moving_walk_qed,
    moving_walk_rho,
    peripheral_system,
    perron_data,
    qed_moving,
    qld_cycle,
    qprocess_closed_form,
    save_problem,
    spectral_radius,
    survival_coefficient,
    validate_problem,
    verify_eigenprojection,
)
from qergodic import spectral
from qergodic.cli import main
from _chains import (
    chained_tie,
    class_edges,
    expander_chain,
    feeder_ring_sink,
    k2_walk,
    k5_walk,
    ladder_chain,
    n3_walk,
    random_problem,
    reachable_dfs,
    sparse_periodic_chain,
    survival_probability_from_state,
    swap_with_killing,
    three_cycle,
    thinned_random_lift,
    two_copies_tied,
)


def lifted_classes(problem):
    lifted = lift_chain(problem)
    return lifted, decompose_classes(lifted.survivor_matrix)


def test_decompose_lifted_n3_two_parity_classes():
    lifted, dec = lifted_classes(n3_walk())
    assert len(dec.classes) == 2
    as_states = [
        {lifted.survivors[s] for s in cls.states} for cls in dec.classes
    ]
    odd = {("1", 0), ("3", 0), ("5", 0), ("2", 1), ("4", 1)}
    even = {("2", 0), ("4", 0), ("3", 1)}
    assert as_states == [odd, even]
    # deterministic ordering: class 0 contains lifted state index 0
    assert dec.class_of[0] == 0


def test_decompose_irreducible_aperiodic():
    Q = np.array([[0.3, 0.3, 0.3], [0.2, 0.4, 0.3], [0.3, 0.3, 0.3]])
    dec = decompose_classes(Q)
    assert len(dec.classes) == 1
    assert dec.classes[0].period == 1


def test_decompose_two_state_swap():
    _, dec = lifted_classes(swap_with_killing())
    assert len(dec.classes) == 1
    cls = dec.classes[0]
    assert cls.period == 2
    assert all(len(c) == 1 for c in cls.cyclic_classes)


def _assert_graph_and_reachability(dec, Q, rng):
    # graph stores one entry, 1.0, per ordered pair of distinct classes
    # joined by a positive entry, and its searches match a plain DFS
    edges = class_edges(Q, dec.class_of)
    C = len(dec.classes)
    coo = dec.graph.tocoo()
    assert dec.graph.shape == (C, C)
    assert dec.graph.nnz == len(edges)
    assert set(zip(coo.row.tolist(), coo.col.tolist())) == edges
    assert np.all(coo.data == 1.0)
    starts = [{i} for i in range(C)] + [set(), set(range(C))]
    starts += [set(np.flatnonzero(rng.random(C) < 0.3).tolist()) for _ in range(5)]
    for ids in starts:
        for reverse in (False, True):
            assert dec.reachable_from(ids, reverse=reverse) == reachable_dfs(
                edges, ids, reverse
            )


@pytest.mark.parametrize(
    "ids", [[-1], [3], [0, 3], [1.5], [True], np.array([0.0]), ["0"]],
    ids=["negative", "past-the-end", "one-bad", "float", "bool", "float-array", "str"],
)
def test_class_ids_that_name_no_class_are_rejected(ids):
    # -1 once reached scipy's search and came back as class -1, and 3
    # raised a bare IndexError
    dec = decompose_classes(np.array([[0.5, 0.0, 0.0], [0.1, 0.4, 0.0], [0.0, 0.2, 0.3]]))
    assert len(dec.classes) == 3
    V = np.full((1, 3), 1.0 / 3.0)
    calls = [dec.dominant_classes, dec.reachable_from,
             lambda ids: dec.extend(ids[-1], V), lambda ids: dec.extend(0, V, ids)]
    for call in calls:
        with pytest.raises(ValidationError, match=r"range\(3\)"):
            call(ids)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_reachability_matches_dfs_on_random_lifts(seed):
    rng = np.random.default_rng(seed)
    lifted = thinned_random_lift(rng)
    _assert_graph_and_reachability(lifted.decomposition, lifted.survivor_matrix, rng)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_reachability_matches_dfs_on_random_sparse_matrices(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    Q = rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.02, 0.2))
    Q /= np.maximum(Q.sum(axis=1, keepdims=True), 1.0)
    _assert_graph_and_reachability(decompose_classes(Q), Q, rng)


@pytest.mark.parametrize(
    "problem",
    [
        ladder_chain(60),
        chained_tie(),
        two_copies_tied(),
        three_cycle(),
        n3_walk(),
        k5_walk(),
        moving_walk(0.45, 12),
    ],
    ids=["ladder", "chained-tie", "two-copies", "three-cycle", "n3", "k5", "walk"],
)
def test_reachability_matches_dfs_on_test_chains(problem):
    lifted = lift_chain(problem)
    rng = np.random.default_rng(0)
    _assert_graph_and_reachability(lifted.decomposition, lifted.survivor_matrix, rng)


def test_perron_k2_closed_values():
    _, dec = lifted_classes(k2_walk())
    cls = dec.classes[0]
    assert cls.period == 2
    assert cls.rho == pytest.approx(0.5, abs=1e-13)
    np.testing.assert_allclose(cls.nu, [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(cls.xi, [1.0, 1.0], atol=1e-12)


def test_perron_k5_rho():
    from _chains import k5_walk

    _, dec5 = lifted_classes(k5_walk())
    assert dec5.classes[0].rho == pytest.approx(np.sqrt(3) / 2, abs=1e-13)


def test_perron_stochastic_chain_has_rho_one():
    rng = np.random.default_rng(5)
    P = rng.dirichlet(np.ones(4), size=4)
    cls = perron_data(P, range(4))
    assert cls.rho == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(cls.xi, 1.0, atol=1e-10)
    np.testing.assert_allclose(cls.nu @ P, cls.nu, atol=1e-12)


def test_perron_rejects_reducible_state_set():
    Q = np.array([[0.0, 0.5], [0.0, 0.0]])
    with pytest.raises(ValidationError):
        perron_data(Q, [0, 1])


@pytest.mark.parametrize(
    "entry, message",
    [
        (lambda: perron_data(np.full((2, 3), 0.25), [0, 1]),
         r"^expected a square matrix, got shape \(2, 3\)$"),
        (lambda: perron_data(np.array([[0.5, 0.5], [0.0, 0.5]]), [1]).position(0),
         "^state 0 is not in this class$"),
    ],
    ids=["perron_data-not-square", "position-outside-the-class"],
)
def test_a_matrix_or_state_a_class_cannot_hold_is_rejected(entry, message):
    with pytest.raises(ValidationError, match=message):
        entry()


def _class_bytes(cls):
    return [
        cls.states,
        cls.period,
        cls.rho,
        cls.rho_bracket,
        cls.nu_residual,
        cls.xi_residual,
        cls.cyclic.tobytes(),
        cls.nu.tobytes(),
        cls.xi.tobytes(),
        cls.submatrix.toarray().tobytes(),
    ]


def _assert_perron_data_rebuilds_every_class(Q):
    for cls in decompose_classes(Q).classes:
        assert _class_bytes(perron_data(Q, cls.states)) == _class_bytes(cls)


@pytest.mark.parametrize(
    "problem",
    [ladder_chain(60), chained_tie(), two_copies_tied(), three_cycle(), n3_walk(),
     k5_walk(), swap_with_killing(), moving_walk(0.45, 12)],
    ids=["ladder", "chained-tie", "two-copies", "three-cycle", "n3", "k5", "swap", "walk"],
)
def test_perron_data_rebuilds_each_class_of_test_chains(problem):
    _assert_perron_data_rebuilds_every_class(lift_chain(problem).survivor_csr)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_perron_data_rebuilds_each_class_of_thinned_random_lifts(seed):
    lifted = thinned_random_lift(np.random.default_rng(seed))
    _assert_perron_data_rebuilds_every_class(lifted.survivor_csr)


def _assert_lazy_classes_match_perron_data(Q):
    classes = decompose_classes(Q).classes
    assert not any("_perron" in vars(cls) for cls in classes)
    for cls in classes:
        assert _class_bytes(cls) == _class_bytes(perron_data(Q, cls.states))


@pytest.mark.parametrize(
    "problem",
    [moving_walk(0.45, 40), moving_walk(0.3, 25, initial="25"), n3_walk(),
     sparse_periodic_chain(1), sparse_periodic_chain(47)],
    ids=["walk-40", "walk-25", "n3", "sparse-1", "sparse-47"],
)
def test_lazy_perron_data_is_bit_equal_to_perron_data(problem):
    _assert_lazy_classes_match_perron_data(lift_chain(problem).survivor_csr)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_lazy_perron_data_is_bit_equal_on_random_problems(seed):
    problem = random_problem(np.random.default_rng(seed))
    _assert_lazy_classes_match_perron_data(lift_chain(problem).survivor_csr)


def _analyze(problem, spec):
    main(["analyze", "--in", str(spec), "--out", str(spec.with_name("report.json"))])


# moving_walk(0.45, 100) lifts to two parity classes, and a point start
# reaches one of them
PERRON_SOLVES = {
    "qed_moving": (lambda problem, spec: qed_moving(problem), 1),
    "build_qprocess_dominant": (lambda problem, spec: build_qprocess_dominant(problem), 1),
    "qld_cycle": (lambda problem, spec: qld_cycle(problem), 1),
    "cli_analyze": (_analyze, 2),
}


@pytest.mark.parametrize("entry", list(PERRON_SOLVES))
def test_perron_data_is_solved_only_for_the_classes_a_call_reads(entry, monkeypatch, tmp_path):
    solved = []
    original = spectral._perron_solve

    def counting(cls):
        solved.append(cls.states)
        return original(cls)

    monkeypatch.setattr(spectral, "_perron_solve", counting)
    problem = moving_walk(0.45, 100, initial="101")
    spec = tmp_path / "walk.json"
    save_problem(problem, spec)
    call, count = PERRON_SOLVES[entry]
    call(problem, spec)
    assert len(solved) == len(set(solved)) == count


def _noda_class_bytes(Q, state):
    """The class bytes of ``state`` as the general path finds them: Noda's
    iteration on the 1 x 1 block cut from ``Q``."""
    block = Q[[state]][:, [state]]
    cls = spectral.IrreducibleClass((state,), 1, np.zeros(1, dtype=int), block)
    return _class_bytes(cls)


def test_singleton_classes_are_built_without_cutting_a_block(monkeypatch):
    cuts = []
    getitem = sparse.csr_array.__getitem__

    def counting(self, key):
        block = getitem(self, key)
        cuts.append(block.shape)
        return block

    Q = lift_chain(ladder_chain(600)).survivor_csr
    # a self-loop on every state of an upper-triangular matrix: each state
    # is a singleton with rho > 0
    looped = sparse.csr_array(np.triu(np.random.default_rng(5).uniform(0.0, 0.2, (40, 40))))
    monkeypatch.setattr(sparse.csr_array, "__getitem__", counting)
    decompositions = [decompose_classes(Q), decompose_classes(looped)]
    assert (1, 1) not in cuts
    monkeypatch.undo()

    assert sum(c.size == 1 for c in decompositions[0].classes) == 589
    assert all(c.size == 1 and c.rho > 0.0 for c in decompositions[1].classes)
    for matrix, dec in zip((Q, looped), decompositions):
        for cls in dec.classes:
            if cls.size == 1:
                assert _class_bytes(cls) == _noda_class_bytes(matrix, cls.states[0])


def test_left_perron_run_started_from_the_right_one_takes_few_solves(monkeypatch):
    dec = lift_chain(moving_walk(0.45, 100, initial="101")).decomposition
    cls = max(dec.classes, key=lambda c: c.size)
    # each solve, sparse or dense, is tagged with the number of Noda runs
    # begun before it: 1 for the right run and the left run's start, 2 for
    # the left run; with no tree potential the right run starts flat
    solve, noda = spectral._solve, spectral._noda
    solves, starts = [], []
    monkeypatch.setattr(spectral, "_tree_potential", lambda sub: np.zeros(sub.shape[0]))
    monkeypatch.setattr(
        spectral, "_solve",
        lambda M, transpose=False: solves.append(len(starts)) or solve(M, transpose),
    )
    monkeypatch.setattr(spectral, "_noda", lambda A, x=None: starts.append(x) or noda(A, x))
    lo, hi = cls.rho_bracket
    assert lo <= cls.rho <= hi
    assert starts[0] is None and starts[1] is not None
    # the start costs one solve, counted with the right run
    assert solves.count(2) + 1 <= 3
    assert solves.count(1) >= 10  # the right run starts flat


@pytest.mark.parametrize(
    "poison",
    [lambda z: -z, lambda z: np.where(np.arange(z.size) == 3, np.nan, z), lambda z: None],
    ids=["negative", "nan", "singular"],
)
def test_a_left_start_that_is_not_finite_and_positive_falls_back_to_flat(poison, monkeypatch):
    start, noda = spectral._left_start, spectral._noda
    runs = []

    def recording(A, x=None):
        runs.append((A, x, noda(A, x)))
        return runs[-1][2]

    monkeypatch.setattr(spectral, "_left_start", lambda *args: poison(start(*args)))
    monkeypatch.setattr(spectral, "_noda", recording)
    problem = sparse_periodic_chain(5)
    Q = lift_chain(problem).survivor_csr
    cls = max(decompose_classes(Q).classes, key=lambda c: c.size)
    lo, hi = cls.rho_bracket
    assert lo <= cls.rho <= hi
    A, x, (left, left_lo, left_hi) = runs[1]
    flat, flat_lo, flat_hi = noda(A)
    assert left.tobytes() == flat.tobytes() and (left_lo, left_hi) == (flat_lo, flat_hi)


def test_a_start_whose_first_solve_is_singular_runs_again_flat(monkeypatch):
    # a start close enough to the Perron vector makes max(Ax/x) rho to
    # working precision, and LU may find the Noda system exactly singular
    rng = np.random.default_rng(3)
    A = rng.uniform(0.0, 1.0, (6, 6))
    start = rng.uniform(0.5, 1.0, 6)
    solve, calls = spectral._solve, []

    def singular_first(M, transpose=False):
        calls.append(M.shape)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(M, transpose)

    monkeypatch.setattr(spectral, "_solve", singular_first)
    x, lo, hi = spectral._noda(A, start)
    monkeypatch.undo()
    flat, flat_lo, flat_hi = spectral._noda(A)
    assert x.tobytes() == flat.tobytes() and (lo, hi) == (flat_lo, flat_hi)


@pytest.mark.parametrize("form", [np.asarray, sparse.csc_array], ids=["dense", "csc"])
def test_a_singular_factor_raises_lin_alg_error(form):
    with pytest.raises(np.linalg.LinAlgError):
        spectral._solve(form(np.array([[1.0, 0.0], [0.0, 0.0]])))


def test_a_bracket_that_stays_open_raises_convergence_error(monkeypatch):
    monkeypatch.setattr(spectral, "_NODA_MAX_STEPS", 1)
    rng = np.random.default_rng(3)
    P = rng.dirichlet(np.full(60, 0.5), size=60) * rng.uniform(0.5, 1.0, (60, 1))
    with pytest.raises(ConvergenceError, match=r"wider than 1e-10 relative after 1 solves"):
        perron_data(P, range(60))


# the lifetime certificate settles the walk with no Perron solve, and the
# feeder's ring extends onto the feeder and onto the sink
ONE_SOLVE_PATHS = {
    "lifetime": (lambda: validate_problem(moving_walk(0.45, 20)), 0),
    "extension": (lambda: qld_cycle(feeder_ring_sink(("b", "c"))), 2),
}


@pytest.mark.parametrize("path", list(ONE_SOLVE_PATHS))
def test_every_linear_system_is_solved_by_the_one_solve(path, monkeypatch):
    solve, calls = spectral._solve, []

    def recording(M, transpose=False, rhs=None):
        calls.append((M, rhs))
        return solve(M, transpose, rhs)

    monkeypatch.setattr(spectral, "_solve", recording)
    run, extensions = ONE_SOLVE_PATHS[path]
    run()
    assert sum(rhs is not None for _, rhs in calls) == extensions
    if path == "lifetime":
        (M, _), = calls
        survivors = len(lift_chain(moving_walk(0.45, 20)).survivors)
        assert M.format == "csc" and M.shape == (survivors, survivors)
    assert all(M.format == "csc" for M, rhs in calls if rhs is not None)


def test_transient_singleton_has_rho_zero():
    Q = np.array([[0.0, 0.5], [0.0, 0.5]])
    dec = decompose_classes(Q)
    rhos = sorted(c.rho for c in dec.classes)
    assert rhos[0] == 0.0
    assert rhos[1] == pytest.approx(0.5)


def test_cyclic_classes_are_respected_by_one_step():
    for problem in (n3_walk(0.35), swap_with_killing(), three_cycle()):
        _, dec = lifted_classes(problem)
        for cls in dec.classes:
            if cls.rho == 0.0:
                continue
            sub = cls.submatrix.toarray()
            for j, cyc in enumerate(cls.cyclic_classes):
                nxt = set(cls.cyclic_classes[(j + 1) % cls.period])
                for s in cyc:
                    targets = {
                        cls.states[t]
                        for t in np.flatnonzero(sub[cls.position(s)] > 0)
                    }
                    assert targets <= nxt


def _dense_extension(Q, rho, V, S, left):
    """Rows of V on S from a dense solve of ``rho I - shift (x) Q_SS``."""
    T, Q_SS = len(V), Q[np.ix_(S, S)]
    if left:  # rho V_j = V_{j-1} Q
        shift, A, B = np.roll(np.eye(T), -1, axis=1), Q_SS.T, np.roll(V, 1, 0) @ Q[:, S]
    else:  # rho V_j = Q V_{j+1}
        shift, A, B = np.roll(np.eye(T), 1, axis=1), Q_SS, np.roll(V, -1, 0) @ Q[S].T
    M = rho * np.eye(T * len(S)) - np.kron(shift, A)
    return np.linalg.solve(M, B.ravel()).reshape(T, len(S))


@pytest.mark.parametrize(
    "problem",
    [feeder_ring_sink(("b", "c")), feeder_ring_sink(("b", "c", "e")), ladder_chain(40)],
    ids=["ring2", "ring3", "ladder40"],
)
def test_extension_matches_a_dense_cyclic_solve(problem):
    lifted = lift_chain(problem)
    dec, Q = lifted.decomposition, lifted.survivor_matrix
    _, (i,) = dec.dominant_classes(dec.class_of[lifted.initial_vector > 0.0])
    cls = dec.classes[i]
    for left, targets, vector in [
        (True, dec.reachable_from({i}), cls.nu),
        (False, dec.reachable_from({i}, reverse=True), cls.xi),
    ]:
        V = np.zeros((cls.period, len(Q)))
        V[cls.cyclic, list(cls.states)] = vector
        given = V.copy()
        dec.extend(i, V, set())  # no ancestors: nothing to do
        assert np.array_equal(V, given)
        dec.extend(i, V, None if left else targets)
        S = np.flatnonzero(np.isin(dec.class_of, list(targets)))
        rest = np.setdiff1d(np.arange(len(Q)), S)
        assert np.array_equal(V[:, rest], given[:, rest])
        if not S.size:  # the ladder's ring feeds no class
            continue
        want = _dense_extension(Q, cls.rho, given, S, left)
        np.testing.assert_allclose(V[:, S], want, rtol=1e-12, atol=0.0)
        image = np.roll(V, 1, 0) @ Q if left else np.roll(V, -1, 0) @ Q.T
        np.testing.assert_allclose(cls.rho * V[:, S], image[:, S], rtol=1e-12, atol=0.0)


def test_peripheral_k2_twisting():
    _, dec = lifted_classes(k2_walk())
    system = peripheral_system(dec.classes[0])
    np.testing.assert_allclose(system.lambdas, [0.5, -0.5], atol=1e-12)
    np.testing.assert_allclose(system.left_vectors[1], [0.5, -0.5], atol=1e-12)
    np.testing.assert_allclose(system.right_vectors[1], [1.0, -1.0], atol=1e-12)


def test_peripheral_residuals_small_on_lifted_n3():
    _, dec = lifted_classes(n3_walk(0.4))
    for cls in dec.classes:
        system = peripheral_system(cls)
        assert system.left_residual <= 1e-10
        assert system.right_residual <= 1e-10


def test_peripheral_degenerates_for_aperiodic():
    Q = np.full((3, 3), 0.25)
    dec = decompose_classes(Q)
    system = peripheral_system(dec.classes[0])
    assert system.lambdas.shape == (1,)
    np.testing.assert_allclose(system.left_vectors[0].imag, 0.0, atol=1e-15)


def test_survival_coefficient_k2_is_one_and_exact():
    problem = k2_walk()
    lifted, dec = lifted_classes(problem)
    cls = dec.classes[0]
    pos = lifted.survivor_index[("1", 0)]
    for n in range(0, 12):
        assert survival_coefficient(cls, pos, n) == pytest.approx(1.0, abs=1e-12)
        exact = survival_probability_from_state(problem, "1", 0, n)
        assert exact == pytest.approx(0.5**n, abs=1e-15)


def test_survival_coefficient_three_cycle_exact_prefactor():
    # single surviving path per horizon: P_a(alive at n) is a plain product,
    # so c_n = P(alive at n) / rho^n exactly, which pins the phase convention
    problem = three_cycle()
    lifted, dec = lifted_classes(problem)
    cls = next(c for c in dec.classes if c.size == 3)
    pos = lifted.survivor_index[("a", 0)]
    products = {0: 1.0, 1: 0.9, 2: 0.9 * 0.8}
    for n in range(0, 13):
        exact = products[n % 3] * (0.9 * 0.8 * 0.7) ** (n // 3)
        coeff = survival_coefficient(cls, pos, n)
        assert coeff > 0.0
        assert coeff * cls.rho**n == pytest.approx(exact, rel=1e-10)


def test_survival_coefficient_aperiodic_reduces_to_xi():
    Q = np.full((3, 3), 0.25)
    dec = decompose_classes(Q)
    cls = dec.classes[0]
    for i, s in enumerate(cls.states):
        for n in range(4):
            assert survival_coefficient(cls, s, n) == pytest.approx(cls.xi[i])


def test_survival_coefficient_positive_and_accurate_on_lifted_n3():
    problem = n3_walk()
    lifted, dec = lifted_classes(problem)
    for cls in dec.classes:
        for s in cls.states:
            label, phase = lifted.survivors[s]
            c60 = survival_coefficient(cls, s, 60)
            assert c60 > 0.0
            exact = survival_probability_from_state(problem, label, phase, 60)
            # phase-0 states need 60 steps from phase 0; phase-1 states the
            # same from phase 1: the lifted power from that state covers it
            ratio = exact / (c60 * cls.rho**60)
            assert abs(ratio - 1.0) < 1e-2


def test_peripheral_sum_matches_survival_coefficient():
    # per-step consistency of the twisted eigensystem with the closed-form
    # prefactor, including a period-3 class with uneven cyclic masses
    for problem in (n3_walk(0.45), three_cycle()):
        lifted, dec = lifted_classes(problem)
        for cls in dec.classes:
            if cls.rho == 0.0:
                continue
            system = peripheral_system(cls)
            T = cls.period
            for s in cls.states[:4]:
                pos = cls.position(s)
                for n in range(2 * T + 1):
                    total = 0.0 + 0.0j
                    for l in range(T):
                        total += (
                            np.exp(-2j * np.pi * n * l / T)
                            * np.conj(system.right_vectors[l, pos])
                            * np.conj(system.left_vectors[l]).sum()
                        )
                    assert abs(total.imag) <= 1e-10
                    assert total.real == pytest.approx(
                        survival_coefficient(cls, s, n), abs=1e-10
                    )


def test_eigenprojection_k2_example():
    lifted, dec = lifted_classes(k2_walk())
    cls = dec.classes[0]
    report = verify_eigenprojection(cls, lifted.survivor_index[("1", 0)])
    np.testing.assert_allclose(report.alpha, [1.0, 1.0], atol=1e-12)
    assert report.gram_residual <= 1e-10


def test_eigenprojection_gram_residual_on_symmetric_classes():
    for problem in (k2_walk(), n3_walk()):
        _, dec = lifted_classes(problem)
        for cls in dec.classes:
            for s in cls.states:
                assert verify_eigenprojection(cls, s).gram_residual <= 1e-10


def test_eigenprojection_projection_residual_everywhere():
    # the spectral-coefficient identity holds for every class, biased walks
    # included; the Gram form only matches on symmetric classes
    for problem in (n3_walk(0.3), three_cycle(), swap_with_killing()):
        _, dec = lifted_classes(problem)
        for cls in dec.classes:
            if cls.rho == 0.0:
                continue
            for s in cls.states:
                report = verify_eigenprojection(cls, s)
                assert report.projection_residual <= 1e-10


def test_spectral_radius_matches_dense_eig():
    rng = np.random.default_rng(11)
    for _ in range(10):
        problem = random_problem(rng)
        lifted = lift_chain(problem)
        Q = lifted.survivor_matrix
        dense = np.max(np.abs(np.linalg.eigvals(Q))) if Q.size else 0.0
        assert spectral_radius(Q) == pytest.approx(dense, abs=1e-9)


def test_rho_matches_moving_walk_closed_form():
    for p in (0.3, 0.5, 0.7):
        _, dec = lifted_classes(n3_walk(p))
        rhos = sorted(c.rho for c in dec.classes)
        assert rhos[-1] == pytest.approx(moving_walk_rho(p, 3, "odd"), abs=1e-12)
        assert rhos[0] == pytest.approx(moving_walk_rho(p, 3, "even"), abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(seed=2407)
@example(seed=2560)
def test_class_invariants_on_random_problems(seed):
    rng = np.random.default_rng(seed)
    problem = random_problem(rng)
    lifted = lift_chain(problem)
    dec = decompose_classes(lifted.survivor_matrix)
    # partition
    seen = sorted(s for cls in dec.classes for s in cls.states)
    assert seen == list(range(len(lifted.survivors)))
    for cls in dec.classes:
        assert cls.nu.min() > 0.0
        assert cls.xi.min() > 0.0
        assert cls.nu.sum() == pytest.approx(1.0, abs=1e-10)
        assert cls.nu @ cls.xi == pytest.approx(1.0, abs=1e-10)
        assert cls.nu_residual <= 1e-10
        assert cls.xi_residual <= 1e-10
        if cls.rho > 0.0:
            lo, hi = cls.rho_bracket
            slack = 4.0 * np.spacing(cls.rho)
            assert lo - slack <= cls.rho <= hi + slack
            assert hi - lo <= 1e-10 * cls.rho
            for n in range(2 * cls.period):
                for s in cls.states:
                    assert survival_coefficient(cls, s, n) > 0.0


@pytest.mark.parametrize("p, N", [(0.45, 100), (0.45, 200), (0.1, 150), (0.45, 800)])
def test_long_walk_matches_closed_forms(p, N):
    # xi spans e^20, e^40, e^327 and e^160 from end to end; a solver that loses
    # the relative accuracy of its smallest entries misses the q-process,
    # which divides neighbouring entries of xi, or never closes its bracket
    problem = moving_walk(p, N, initial=str(N + 1))
    kernel = build_qprocess_dominant(problem)
    closed = qprocess_closed_form(p, N, "odd")
    for sl, cf in zip(kernel.slices, closed.slices):
        assert sl.row_states == cf.row_states
        assert sl.col_states == cf.col_states
        assert np.max(np.abs(sl.matrix - cf.matrix)) <= 1e-10
    result = qed_moving(problem)
    expected = moving_walk_qed(N, "odd").weights
    got = result.eta_distribution.weights
    tv = 0.5 * sum(abs(got.get(x, 0.0) - w) for x, w in expected.items())
    assert tv <= 1e-9
    assert result.rho == pytest.approx(moving_walk_rho(p, N, "odd"), rel=1e-12)


def test_perron_solve_takes_few_dense_solves(monkeypatch):
    # a dense class stalls a few ulps short of closing its bracket, and the
    # iteration stops there instead of running to its step cap
    solve = spectral._solve
    calls = []
    monkeypatch.setattr(
        spectral, "_solve", lambda M, transpose=False: calls.append(M) or solve(M, transpose)
    )
    rng = np.random.default_rng(3)
    P = rng.dirichlet(np.full(60, 0.5), size=60) * rng.uniform(0.5, 1.0, (60, 1))
    cls = perron_data(P, range(60))
    assert all(isinstance(M, np.ndarray) for M in calls)
    assert len(calls) <= 30
    lo, hi = cls.rho_bracket
    assert hi - lo <= 1e-10 * cls.rho
    assert cls.rho == pytest.approx(np.max(np.abs(np.linalg.eigvals(P))), rel=1e-12)


def _solves_by_run(monkeypatch):
    """Patch the one solve to record, per call, its matrix and the number
    of Noda runs begun before it (1: the right run and the left run's
    start, 2: the left run)."""
    solve, noda = spectral._solve, spectral._noda
    solves, runs = [], []
    monkeypatch.setattr(
        spectral, "_solve",
        lambda M, transpose=False: solves.append((len(runs), M)) or solve(M, transpose),
    )
    monkeypatch.setattr(spectral, "_noda", lambda A, x=None: runs.append(x) or noda(A, x))
    return solves


def test_right_perron_run_on_the_north_star_walk_takes_few_solves(monkeypatch):
    # a flat start took 64 solves here; the tree potential leaves Noda
    # only its quadratic phase
    cls = max(lift_chain(moving_walk(0.45, 800)).decomposition.classes, key=lambda c: c.size)
    solves = _solves_by_run(monkeypatch)
    assert cls.rho == pytest.approx(moving_walk_rho(0.45, 800, "odd"), rel=1e-12)
    assert sum(run == 1 for run, _ in solves) - 1 <= 10


@pytest.mark.parametrize(
    "problem, form",
    [(moving_walk(0.45, 100), "sparse"), (moving_walk(0.1, 150), "sparse"),
     (expander_chain(300), "dense"), (sparse_periodic_chain(1), "dense")],
    ids=["walk-100", "walk-150", "expander-300", "sparse-1"],
)
def test_the_fill_of_the_factor_picks_the_solve(problem, form, monkeypatch):
    # the expander's T-step block holds a few % of n^2 entries, but its LU
    # fills in: the rule reads the fill, not the block's density
    cls = max(lift_chain(problem).decomposition.classes, key=lambda c: c.size)
    blocks, t_step = [], spectral._t_step
    monkeypatch.setattr(spectral, "_t_step", lambda b: blocks.append(b) or t_step(b))
    solves = _solves_by_run(monkeypatch)
    lo, hi = cls.rho_bracket
    assert lo <= cls.rho <= hi
    kinds = {"dense" if isinstance(M, np.ndarray) else M.format for _, M in solves}
    assert kinds == ({"dense"} if form == "dense" else {"csc"})
    if problem.gamma == 2:
        (b0, b1), = blocks
        product = b0 @ b1
        assert 8 * product.nnz < product.shape[0] ** 2


def test_a_sparse_block_with_one_self_loop_matches_its_symmetric_twin(monkeypatch):
    # a period-1 path with one loop: its block is banded, so it is
    # factored sparse, with the 99 diagonal entries it does not store.  It
    # is similar to the symmetric path with off-diagonal sqrt(0.3 * 0.6),
    # whose eigenvalues are well conditioned; those of P are not, since
    # xi spans 2^50
    n = 100
    P = np.diag(np.full(n - 1, 0.3), 1) + np.diag(np.full(n - 1, 0.6), -1)
    P[0, 0] = 0.2
    twin = np.diag(np.full(n - 1, np.sqrt(0.18)), 1)
    twin = twin + twin.T
    twin[0, 0] = 0.2
    solves = _solves_by_run(monkeypatch)
    cls = perron_data(sparse.csr_array(P), range(n))
    assert {M.format for _, M in solves} == {"csc"}
    rho = np.linalg.eigvalsh(twin)[-1]
    assert cls.period == 1 and cls.rho == pytest.approx(rho, rel=1e-12)
    assert max(cls.nu_residual, cls.xi_residual) <= 1e-12


def test_tree_potential_makes_a_reversible_block_symmetric():
    # the lifted moving walk is reversible, so exp(-L) Q exp(L) is
    # symmetric on its class; L moves by log(q/p) / 2 a site, over the 198
    # sites from one end of the class to the other
    cls = max(lift_chain(moving_walk(0.45, 100)).decomposition.classes, key=lambda c: c.size)
    sub = cls.submatrix.toarray()
    L = spectral._tree_potential(cls.submatrix)
    scaled = np.where(sub > 0.0, sub * np.exp(L[None, :] - L[:, None]), 0.0)
    assert np.max(np.abs(scaled - scaled.T)) <= 1e-13 * scaled.max()
    assert np.ptp(L) == pytest.approx(198 * 0.5 * np.log(0.55 / 0.45), rel=1e-9)


def test_a_block_with_no_two_way_edge_gets_no_potential():
    three = sparse.csr_array(np.roll(np.eye(3), 1, axis=1) * 0.9)
    assert spectral._tree_potential(three).tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("entry", [qed_moving, build_qprocess_dominant, qld_cycle])
def test_perron_vectors_past_float64_raise_in_every_reader(entry):
    # nu and xi span 333 decades: rho is certified, and the unscaled
    # vectors would underflow, so no reader gets a NaN or a silent 0
    with pytest.raises(ConvergenceError, match="333 decades"):
        entry(moving_walk(0.1, 350))


def test_underflowing_perron_iterate_raises_convergence_error():
    # nu and xi span about 333 decades here: the Noda iterate underflows to
    # 0, and the iteration stops before it divides 0 by 0
    with pytest.raises(ConvergenceError, match="Perron bracket"):
        qed_moving(moving_walk(0.1, 350))
