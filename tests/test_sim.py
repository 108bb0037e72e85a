import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qergodic import (
    AbsorbedChainProblem,
    Distribution,
    MovingBoundary,
    NoSurvivorsError,
    PhaseSlice,
    QProcessKernel,
    SimConfig,
    StateSpace,
    TransitionKernel,
    ValidationError,
    build_qprocess,
    build_qprocess_dominant,
    decompose_classes,
    estimate_conditionals,
    lift_chain,
    moving_walk,
    qed_moving,
    qld_cycle,
    qprocess_closed_form,
    simulate_qprocess,
    survival_coefficient,
    survival_curve,
)
from qergodic.sim import _absorbed_engine, _path_dtype, _path_keys, _RowSampler, _uniforms
from _chains import dense_draw, n3_walk, random_problem, symmetric_slow_chain


def suicide_chain():
    labels = ("a", "t")
    P = np.array([[0.0, 1.0], [0.0, 1.0]])
    return AbsorbedChainProblem(
        StateSpace(labels),
        TransitionKernel(P),
        MovingBoundary(1, (frozenset({"t"}),)),
        Distribution.point_mass("a"),
    )


def simulate_paths(problem, config):
    """Paths (trajectory by step, -1 once absorbed) and absorption times
    (-1 for a path alive at the horizon), drawn by the absorbed engine."""
    tau, _, _, paths = _absorbed_engine(problem, config, None, record="paths")
    return paths, tau


def test_deterministic_suicide_has_tau_one():
    paths, tau = simulate_paths(suicide_chain(), SimConfig(seed=1, trajectories=500, horizon=5))
    assert np.all(tau == 1)
    assert np.all(paths[:, 1] == 1)
    assert np.all(paths[:, 2] == -1)


def test_paths_respect_kernel_support_and_killing():
    problem = n3_walk(0.4)
    config = SimConfig(seed=3, trajectories=2000, horizon=12)
    paths, taus = simulate_paths(problem, config)
    P = problem.kernel.normalized
    space = problem.space
    for i in range(0, 2000, 97):
        path = paths[i]
        tau = taus[i]
        end = tau if tau >= 0 else config.horizon
        for t in range(1, end + 1):
            assert P[path[t - 1], path[t]] > 0.0
        for t in range(0, end):
            label = space.labels[path[t]]
            assert label not in problem.boundary.killing_set(t)
        if tau >= 0:
            label = space.labels[path[tau]]
            assert label in problem.boundary.killing_set(tau)


def test_tau_equals_lifted_hitting_time():
    problem = n3_walk(0.45)
    lifted = lift_chain(problem)
    config = SimConfig(seed=11, trajectories=500, horizon=10)
    paths, taus = simulate_paths(problem, config)
    for i in range(500):
        path = paths[i]
        tau = taus[i]
        lifted_tau = -1
        for t in range(config.horizon + 1):
            if path[t] < 0:
                break
            state = (problem.space.labels[path[t]], t % problem.gamma)
            if state not in lifted.survivor_index:
                lifted_tau = t
                break
        assert lifted_tau == tau


def test_k2_survival_matches_exact_rate():
    from _chains import k2_walk

    problem = k2_walk()
    config = SimConfig(seed=5, trajectories=1_000_000, horizon=10)
    p_hat, se = survival_curve(problem, config)
    for n in (1, 4, 10):
        assert abs(p_hat[n] - 0.5**n) <= 3.0 * max(se[n], 1e-9)


def test_shard_layouts_reproduce_bit_identically():
    problem = n3_walk(0.5)
    f = {"3": 1.0}
    results = []
    for shards in (1, 2, 7):
        config = SimConfig(seed=99, trajectories=40_000, horizon=25, shards=shards)
        est = estimate_conditionals(problem, f, config)
        results.append(est)
    base = results[0]
    for other in results[1:]:
        assert other.mean_ratio == base.mean_ratio
        assert other.law.weights == base.law.weights
        np.testing.assert_array_equal(other.survivor_counts, base.survivor_counts)
        np.testing.assert_array_equal(other.law_counts, base.law_counts)


def reference_paths(problem, config):
    """Paths and tau drawn one trajectory at a time: step t of trajectory i
    reads the uniform keyed by (seed, i, t) and searches a dense row, of
    the initial law at t = 0 and of the kernel after that."""
    P = problem.kernel.normalized
    init = problem.initial.to_array(problem.space)[None, :]
    paths = np.full((config.trajectories, config.horizon + 1), -1)
    tau = np.full(config.trajectories, -1)
    for i in range(config.trajectories):
        state = 0
        for t in range(config.horizon + 1):
            u = _uniforms(config.seed, _path_keys(np.array([i])), t)
            state = int(dense_draw(P if t else init / init.sum(), np.array([state]), u)[0])
            paths[i, t] = state
            if not problem.alive[t % problem.gamma, state]:
                tau[i] = t
                break
    return paths, tau


@pytest.mark.parametrize(
    "problem",
    [
        n3_walk(0.45),
        moving_walk(0.45, 6),
        random_problem(np.random.default_rng(5)),
        random_problem(np.random.default_rng(6)),
    ],
    ids=["n3", "walk", "random-5", "random-6"],
)
def test_seeded_stream_matches_per_path_reference(problem):
    config = SimConfig(seed=17, trajectories=150, horizon=24)
    paths, tau = reference_paths(problem, config)
    alive = np.array([np.sum((tau < 0) | (tau > t)) for t in range(config.horizon + 1)])
    for shards in (1, 3):
        sharded = SimConfig(config.seed, config.trajectories, config.horizon, shards)
        drawn_paths, drawn_tau = simulate_paths(problem, sharded)
        np.testing.assert_array_equal(drawn_paths, paths)
        np.testing.assert_array_equal(drawn_tau, tau)
        p_hat, _ = survival_curve(problem, sharded)
        np.testing.assert_array_equal(p_hat, alive / config.trajectories)


def test_same_seed_same_results_different_seed_differs():
    problem = n3_walk(0.5)
    cfg = SimConfig(seed=123, trajectories=20_000, horizon=20)
    a = estimate_conditionals(problem, {"3": 1.0}, cfg)
    b = estimate_conditionals(problem, {"3": 1.0}, cfg)
    assert a.mean_ratio == b.mean_ratio
    c = estimate_conditionals(
        problem, {"3": 1.0}, SimConfig(seed=124, trajectories=20_000, horizon=20)
    )
    assert c.mean_ratio != a.mean_ratio


def test_constant_function_estimated_exactly():
    problem = n3_walk(0.5)
    est = estimate_conditionals(
        problem,
        {x: 0.5 for x in problem.space.labels},
        SimConfig(seed=2, trajectories=5_000, horizon=8),
    )
    assert est.mean_ratio.value == 0.5
    assert est.mean_ratio.standard_error == 0.0


def test_zero_survivors_raises_helpful_error():
    problem = suicide_chain()
    with pytest.raises(NoSurvivorsError, match="budget"):
        estimate_conditionals(
            problem, {"a": 1.0}, SimConfig(seed=1, trajectories=100, horizon=3)
        )


def test_estimate_conditionals_needs_a_horizon_of_one_step():
    with pytest.raises(ValidationError, match="horizon must be at least 1"):
        estimate_conditionals(n3_walk(0.5), {"3": 1.0}, SimConfig(1, 10, horizon=0))


def test_low_sample_flag():
    problem = n3_walk(0.5)
    est = estimate_conditionals(
        problem, {"3": 1.0}, SimConfig(seed=8, trajectories=3000, horizon=40)
    )
    assert est.mean_ratio.survivors < 100
    assert est.mean_ratio.low_sample


def test_empirical_survival_tracks_decay_prefactor():
    problem = n3_walk(0.5, start="3")
    config = SimConfig(seed=17, trajectories=400_000, horizon=30)
    p_hat, _ = survival_curve(problem, config)
    lifted = lift_chain(problem)
    dec = decompose_classes(lifted.survivor_matrix)
    cls = dec.classes[0]
    pos = lifted.survivor_index[("3", 0)]
    for n in (20, 30):
        predicted = survival_coefficient(cls, pos, n) * cls.rho**n
        assert 0.9 <= p_hat[n] / predicted <= 1.1


def test_conditional_law_parity_matches_cycle_limits():
    problem = n3_walk(0.5, start="3")
    cycle = qld_cycle(problem)
    est = estimate_conditionals(
        problem, {"3": 1.0}, SimConfig(seed=21, trajectories=300_000, horizon=24)
    )
    labels = problem.space.labels
    for n, expected in ((23, cycle.distributions[0]), (24, cycle.distributions[1])):
        counts = est.law_counts[n]
        total = counts.sum()
        emp = {labels[i]: c / total for i, c in enumerate(counts) if c}
        assert set(emp) == set(expected.support())
        tv = 0.5 * sum(
            abs(emp.get(k, 0.0) - expected.weights.get(k, 0.0))
            for k in set(emp) | set(expected.weights)
        )
        assert tv < 0.02


def test_mean_ratio_concordant_with_spectral_limit():
    problem = symmetric_slow_chain()
    result = qed_moving(problem, {"a": 1.0})
    est = estimate_conditionals(
        problem,
        {"a": 1.0},
        SimConfig(seed=2026, trajectories=230_000, horizon=200, shards=4),
    )
    mr = est.mean_ratio
    assert mr.survivors >= 100_000
    assert abs(mr.value - result.phi) <= 3.0 * mr.standard_error


def test_qprocess_simulation_never_absorbed_and_respects_parity():
    problem = n3_walk(0.4, start="3")
    kernel = build_qprocess(problem, "3")
    paths = simulate_qprocess(kernel, "3", steps=1000, seed=31, paths=1000)
    killing = problem.boundary.killing_sets
    for path in paths[:50]:
        for t, label in enumerate(path):
            assert label not in killing[t % 2]
            assert (int(label) + t) % 2 == 1
    total_steps = sum(len(p) - 1 for p in paths)
    assert total_steps == 1_000_000


def reference_qpaths(kernel, x, steps, seed, paths):
    """Label paths drawn one trajectory at a time: step t of trajectory i
    reads the uniform keyed by (seed, i, t) and searches the dense row of
    the current state in the slice for time t."""
    result = []
    for i in range(paths):
        path = [x]
        for t in range(1, steps + 1):
            sl = kernel.slice_for(t)
            u = _uniforms(seed, _path_keys(np.array([i])), t)
            row = np.array([sl.row_states.index(path[-1])])
            path.append(sl.col_states[int(dense_draw(sl.matrix, row, u)[0])])
        result.append(path)
    return result


def shuffled_slices(kernel, rng):
    """The same kernel with the rows and columns of every slice listed in
    independent random orders, so no slice's columns are in the order of
    the next slice's rows."""
    slices = []
    for sl in kernel.slices:
        r = rng.permutation(len(sl.row_states))
        c = rng.permutation(len(sl.col_states))
        slices.append(
            PhaseSlice(
                sl.phase,
                tuple(sl.row_states[i] for i in r),
                tuple(sl.col_states[j] for j in c),
                sl.matrix[np.ix_(r, c)],
            )
        )
    return QProcessKernel(
        kernel.gamma, kernel.rho, kernel.class_states, tuple(slices),
        kernel.row_sum_deviation,
    )


QPROCESS_KERNELS = {
    "closed-3-even": lambda: qprocess_closed_form(0.45, 3, "even"),
    "closed-3-odd": lambda: qprocess_closed_form(0.45, 3, "odd"),
    "closed-20-even": lambda: qprocess_closed_form(0.45, 20, "even"),
    "closed-20-odd": lambda: qprocess_closed_form(0.45, 20, "odd"),
    "walk": lambda: build_qprocess_dominant(moving_walk(0.45, 6)),
    "random-5": lambda: build_qprocess_dominant(random_problem(np.random.default_rng(5))),
    "random-6": lambda: build_qprocess_dominant(random_problem(np.random.default_rng(6))),
    "shuffled": lambda: shuffled_slices(
        build_qprocess_dominant(moving_walk(0.45, 6)), np.random.default_rng(1)
    ),
}


@pytest.mark.parametrize("name", QPROCESS_KERNELS)
def test_qprocess_stream_matches_per_path_reference(name):
    kernel = QPROCESS_KERNELS[name]()
    starts = kernel.slice_for(0).col_states
    x = starts[len(starts) // 2]
    expected = reference_qpaths(kernel, x, steps=25, seed=41, paths=30)
    assert simulate_qprocess(kernel, x, steps=25, seed=41, paths=30) == expected


@pytest.mark.parametrize("steps, paths", [(-1, 5), (10, 0), (2.5, 5), (10, 2.5)])
def test_qprocess_simulation_rejects_empty_runs(steps, paths):
    kernel = qprocess_closed_form(0.45, 3, "odd")
    with pytest.raises(ValidationError):
        simulate_qprocess(kernel, "3", steps=steps, seed=1, paths=paths)


def test_estimate_conditionals_rejects_a_config_that_is_not_integer():
    problem = n3_walk(0.5)
    for args in [(1.5, 10, 5), (1, 10.5, 5), (1, 10, 5.5), (1, 10, 5, 2.5),
                 (True, 10, 5), (1, True, 5), (1, 10, True), (1, 10, 5, True)]:
        with pytest.raises(ValidationError, match=r"must be an integer, got"):
            estimate_conditionals(problem, {"3": 1.0}, SimConfig(*args))
    # numpy integers are integers
    config = SimConfig(np.int64(1), np.int32(400), np.int64(5), np.int64(2))
    want = estimate_conditionals(problem, {"3": 1.0}, SimConfig(1, 400, 5, 2))
    got = estimate_conditionals(problem, {"3": 1.0}, config)
    assert got.mean_ratio == want.mean_ratio


@st.composite
def sparse_rows_and_draws(draw):
    """A random sparse row-stochastic matrix, rows to draw from and their u.

    Each u is 0.0, the largest u below 1, one of its row's running sums
    (a tie, which must move right) or any float in [0, 1).
    """
    n_rows = draw(st.integers(1, 5))
    n_cols = draw(st.integers(1, 8))
    matrix = np.zeros((n_rows, n_cols))
    for i in range(n_rows):
        support = draw(
            st.lists(st.integers(0, n_cols - 1), min_size=1, max_size=n_cols, unique=True)
        )
        weights = draw(
            st.lists(st.floats(1e-3, 1.0), min_size=len(support), max_size=len(support))
        )
        matrix[i, support] = weights
        matrix[i] /= matrix[i].sum()
    states = np.array(
        draw(st.lists(st.integers(0, n_rows - 1), min_size=1, max_size=20))
    )
    u = []
    for row in states:
        sums = np.cumsum(matrix[row])
        ties = [0.0, 1.0 - 2.0**-53, *sums[sums < 1.0]]
        u.append(
            draw(st.one_of(st.sampled_from(ties), st.floats(0.0, 1.0, exclude_max=True)))
        )
    return matrix, states, np.array(u)


@settings(max_examples=200, deadline=None)
@given(sparse_rows_and_draws())
@example(
    (
        # leading and trailing zero columns, a row total rounded below
        # 1 - 2**-53, and a row with one positive entry
        np.array([[0.0, 0.7, 0.0, 0.2, 0.1, 0.0], [0.0, 0.0, 1.0, 0.0, 0.0, 0.0]]),
        np.array([0, 0, 0, 0, 1, 1]),
        np.array([0.0, 0.7, 0.5, 1.0 - 2.0**-53, 0.0, 1.0 - 2.0**-53]),
    )
)
def test_sampler_matches_dense_search(case):
    matrix, states, u = case
    drawn = _RowSampler(matrix).draw(states, u)
    np.testing.assert_array_equal(drawn, dense_draw(matrix, states, u))
    assert np.all(matrix[states, drawn] > 0.0)


def test_sampler_tail_lands_on_last_positive_entry():
    row = np.array([[0.7, 0.2, 0.1, 0.0]])
    u = np.array([1.0 - 2.0**-53])
    # the row's rounded total is not above u, so no running sum exceeds it
    assert np.cumsum(row)[-1] <= u[0]
    assert _RowSampler(row).draw(np.array([0]), u).tolist() == [2]


def test_path_dtype_holds_every_state_index():
    assert _path_dtype(401) == np.int16
    dtype = _path_dtype(40_000)
    assert np.array([-1, 39_999]).astype(dtype).tolist() == [-1, 39_999]
