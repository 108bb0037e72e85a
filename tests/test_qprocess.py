import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qergodic import (
    Hypothesis1Error,
    NullEventError,
    ValidationError,
    build_qprocess,
    build_qprocess_dominant,
    finite_horizon_qlaw,
    lift_chain,
    moving_walk,
    qprocess_closed_form,
)
from _chains import (
    chained_tie,
    dense_sweep,
    feeder_ring_sink,
    homogeneous_kernel,
    k2_walk,
    kernel_by_entry,
    n3_walk,
    random_problem,
    rate_zero_feeder,
    three_cycle,
)


def test_rows_sum_to_one_every_slice():
    for problem, x in ((n3_walk(0.3), "3"), (n3_walk(0.5), "1"), (three_cycle(), "a")):
        kernel = build_qprocess(problem, x)
        assert kernel.row_sum_deviation <= 1e-10
        for sl in kernel.slices:
            np.testing.assert_allclose(sl.matrix.sum(axis=1), 1.0, atol=1e-12)


def test_k2_kernel_is_deterministic_alternation():
    kernel = build_qprocess(k2_walk(), "1")
    sl = kernel.slices[0]
    i = sl.row_states.index("1")
    j = sl.col_states.index("2")
    assert sl.matrix[i, j] == pytest.approx(1.0)


def test_n3_middle_state_splits_evenly():
    kernel = build_qprocess(n3_walk(0.5), "3")
    sl = kernel.slice_for(1)  # arriving at odd times; rows are phase-0 states
    i = sl.row_states.index("3")
    assert sl.matrix[i, sl.col_states.index("2")] == pytest.approx(0.5, abs=1e-12)
    assert sl.matrix[i, sl.col_states.index("4")] == pytest.approx(0.5, abs=1e-12)


def test_kernel_family_is_periodic():
    kernel = build_qprocess(n3_walk(0.4), "3")
    for n in range(6):
        a = kernel.slice_for(n)
        b = kernel.slice_for(n + kernel.gamma)
        assert a is b
        np.testing.assert_array_equal(a.matrix, b.matrix)


def test_kernel_is_p_free_and_matches_closed_form():
    for parity, start in (("odd", "3"), ("even", "2")):
        mats = []
        for p in (0.3, 0.5, 0.7):
            problem = moving_walk(p, 3, initial=start)
            kernel = build_qprocess(problem, start)
            closed = qprocess_closed_form(p, 3, parity)
            for sl, cf in zip(kernel.slices, closed.slices):
                assert sl.row_states == cf.row_states
                assert sl.col_states == cf.col_states
                assert np.max(np.abs(sl.matrix - cf.matrix)) <= 1e-10
            mats.append([sl.matrix for sl in kernel.slices])
        for later in mats[1:]:
            for a, b in zip(mats[0], later):
                assert np.max(np.abs(a - b)) <= 1e-12


def test_closed_form_rows_sum_to_one_many_params():
    for p in (1 / 3, 0.5, 0.8):
        for N in (3, 4, 6):
            for parity in ("odd", "even"):
                kernel = qprocess_closed_form(p, N, parity)
                for sl in kernel.slices:
                    np.testing.assert_allclose(
                        sl.matrix.sum(axis=1), 1.0, atol=1e-12
                    )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_slices_match_entrywise_reference(seed):
    problem = random_problem(np.random.default_rng(seed))
    for x in problem.survivors(0):
        try:
            kernel = build_qprocess(problem, x)
        except NullEventError:
            continue
        slices, deviation = kernel_by_entry(problem, x)
        assert kernel.row_sum_deviation == deviation
        assert len(kernel.slices) == len(slices)
        for sl, (phase, rows, cols, matrix) in zip(kernel.slices, slices):
            assert (sl.phase, sl.row_states, sl.col_states) == (phase, rows, cols)
            assert sl.matrix.tobytes() == matrix.tobytes()


def test_build_qprocess_rejects_absorbed_start():
    with pytest.raises(ValidationError):
        build_qprocess(n3_walk(), "0")


def test_an_unknown_start_label_is_named_as_unknown():
    problem = n3_walk()
    with pytest.raises(ValidationError, match=r"^unknown state label 'zzz'$"):
        build_qprocess(problem, "zzz")
    with pytest.raises(ValidationError, match=r"^unknown state label 'zzz'$"):
        finite_horizon_qlaw(problem, "zzz", ["2"], 10)
    with pytest.raises(ValidationError, match=r"^state '0' is absorbed at phase 0"):
        finite_horizon_qlaw(problem, "0", ["1"], 10)


def test_dominant_kernel_matches_explicit_start():
    problem = n3_walk(0.4, start="3")
    a = build_qprocess(problem, "3")
    b = build_qprocess_dominant(problem)
    for sa, sb in zip(a.slices, b.slices):
        np.testing.assert_array_equal(sa.matrix, sb.matrix)


@pytest.mark.parametrize("ring", [("b", "c"), ("b", "c", "e")], ids=["period2", "period3"])
def test_kernel_lives_on_a_reachable_class_that_outranks_the_start(ring):
    problem = feeder_ring_sink(ring)
    labels = problem.space.labels
    for kernel in (build_qprocess_dominant(problem), build_qprocess(problem, "a")):
        assert kernel.rho == pytest.approx(0.9, abs=1e-12)
        assert {x for x, _ in kernel.class_states} == set(ring)
        for x in ring:
            for cyl in ([y, z] for y in labels for z in labels):
                want = finite_horizon_qlaw(problem, x, cyl, 2000)
                assert abs(kernel.cylinder_probability(x, cyl) - want) <= 1e-6


def test_kernel_from_a_rate_zero_start_that_feeds_a_surviving_class():
    kernel = build_qprocess(rate_zero_feeder(), "a")
    assert kernel.rho == pytest.approx(0.9, abs=1e-12)
    assert kernel.class_states == (("b", 0),)


def test_kernel_rejects_a_tie_with_a_reachable_class():
    for build in (build_qprocess_dominant, lambda problem: build_qprocess(problem, "a")):
        with pytest.raises(Hypothesis1Error):
            build(chained_tie())


def test_finite_horizon_k2_forced():
    for m in (1, 5, 50):
        assert finite_horizon_qlaw(k2_walk(), "1", ["2"], m) == pytest.approx(
            1.0, abs=1e-12
        )


def test_finite_horizon_converges_to_qprocess_cylinders():
    problem = n3_walk(0.45)
    kernel = build_qprocess(problem, "3")
    cylinders = [["2", "1"], ["2", "3"], ["4", "3"], ["4", "5"]]
    sups = []
    for m in (20, 60, 200):
        sup = max(
            abs(
                finite_horizon_qlaw(problem, "3", cyl, m)
                - kernel.cylinder_probability("3", cyl)
            )
            for cyl in cylinders
        )
        sups.append(sup)
    assert sups[-1] <= 1e-6
    assert sups[-1] <= sups[0] + 1e-12


def test_finite_horizon_matches_path_enumeration():
    from _chains import survival_paths

    problem = n3_walk(0.4, start="3")
    space = problem.space
    m = 5
    joint: dict[tuple[int, int], float] = {}
    total = 0.0
    for path, pr in survival_paths(problem, m):
        joint[path[1], path[2]] = joint.get((path[1], path[2]), 0.0) + pr
        total += pr
    for (a, b), pr in joint.items():
        cyl = [space.labels[a], space.labels[b]]
        assert finite_horizon_qlaw(problem, "3", cyl, m) == pytest.approx(
            pr / total, abs=1e-13
        )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_finite_horizon_matches_dense_sweep(seed):
    rng = np.random.default_rng(seed)
    problem = random_problem(rng)
    gamma = problem.gamma
    P = problem.kernel.normalized
    index = lift_chain(problem).survivor_index
    m = int(rng.integers(1, 31))
    path = [str(rng.choice(problem.survivors(0)))]
    for step in range(1, int(rng.integers(0, min(m, 3) + 1)) + 1):
        path.append(str(rng.choice(problem.survivors(step % gamma))))
    n = len(path) - 1
    prefix = np.prod([P[problem.space.index(a), problem.space.index(b)]
                      for a, b in zip(path, path[1:])])
    us, _ = dense_sweep(problem, {}, m)
    denom = us[m, index[(path[0], 0)]]
    if denom == 0.0:
        with pytest.raises(NullEventError):
            finite_horizon_qlaw(problem, path[0], path[1:], m)
        return
    want = prefix * us[m - n, index[(path[-1], n % gamma)]] / denom
    value = finite_horizon_qlaw(problem, path[0], path[1:], m)
    assert value == pytest.approx(want, rel=1e-12, abs=0.0)


def test_finite_horizon_survives_underflow():
    # rho = 0.862, so survival to m = 6000 is below 1e-380 and an unscaled
    # sweep underflows to 0; the approximant has met the closed form
    problem = n3_walk(0.45)
    closed = qprocess_closed_form(0.45, 3, "odd")
    for cyl in (["2", "1"], ["2", "3"], ["4", "3"], ["4", "5"]):
        value = finite_horizon_qlaw(problem, "3", cyl, 6000)
        assert value == pytest.approx(closed.cylinder_probability("3", cyl), abs=1e-12)


def test_finite_horizon_zero_for_absorbed_cylinder():
    assert finite_horizon_qlaw(n3_walk(), "3", ["2", "1", "0"], 10) == 0.0
    # state 1 is alive at even times but dead at odd ones
    assert finite_horizon_qlaw(n3_walk(), "3", ["1"], 10) == 0.0


def test_cylinder_probability_leaving_class_is_zero():
    kernel = build_qprocess(n3_walk(), "3")
    assert kernel.cylinder_probability("3", ["3"]) == 0.0


def test_cylinder_probability_rejects_a_start_upstream_of_the_class():
    kernel = build_qprocess(feeder_ring_sink(("b", "c")), "a")
    with pytest.raises(ValidationError, match=r"state 'a' at phase 0 .*\('b', 0\)"):
        kernel.cylinder_probability("a", ["b"])
    assert kernel.cylinder_probability("b", ["c"]) == 1.0


def test_homogeneous_kernel_is_row_stochastic_product():
    kernel = build_qprocess(n3_walk(0.35), "3")
    states, matrix = homogeneous_kernel(kernel, 0)
    assert states == kernel.slice_for(1).row_states
    np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-12)
    two = kernel.slice_for(1).matrix @ kernel.slice_for(2).matrix
    np.testing.assert_allclose(matrix, two, atol=1e-15)
