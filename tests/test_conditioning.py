import csv
import tracemalloc
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qergodic import (
    AbsorbedChainProblem,
    ConvergenceError,
    Distribution,
    Hypothesis1Error,
    MovingBoundary,
    NullEventError,
    StateSpace,
    TransitionKernel,
    ValidationError,
    collapsed_chain,
    decompose_classes,
    conditional_law,
    conditional_law_sequence,
    conditional_step,
    exact_mean_ratio,
    lift_chain,
    mean_ratio_curve,
    moving_walk,
    moving_walk_qed,
    moving_walk_rho,
    SimConfig,
    estimate_conditionals,
    finite_horizon_qlaw,
    qed_moving,
    qld_cycle,
    qsd_fixed_point_search,
    write_conditional_laws_csv,
    write_mean_ratio_csv,
)
from qergodic import conditioning, qprocess
from _chains import (
    chained_tie,
    conditional_law_brute,
    dense_sweep,
    eig_candidates,
    expander_chain,
    feeder_ring_sink,
    k2_walk,
    k5_walk,
    ladder_chain,
    n3_walk,
    permuted_problem,
    random_problem,
    simplex_grid_recursive,
    sparse_periodic_chain,
    survival_paths,
    survivor_restriction,
    swap_with_killing,
    symmetric_slow_chain,
    three_cycle,
    trap_chain,
    two_copies_tied,
)


def test_conditional_step_n3_example():
    out = conditional_step(n3_walk(), Distribution.point_mass("3"), 1)
    assert out.weights == {"2": 0.5, "4": 0.5}


def test_conditional_step_fixed_point_at_qsd():
    # the left Perron law of the phase survivor matrix is invariant
    from qergodic import decompose_classes

    problem = k2_walk(p=0.35)
    lifted = lift_chain(problem)
    cls = decompose_classes(lifted.survivor_matrix).classes[0]
    qsd = Distribution(
        {lifted.survivors[s][0]: w for s, w in zip(cls.states, cls.nu)}
    )
    moved = conditional_step(problem, qsd, 0)
    assert moved.tv_distance(qsd) < 1e-12


def test_conditional_step_null_event():
    prob = moving_walk(0.5, 2, initial="2")
    with pytest.raises(NullEventError):
        conditional_step(prob, Distribution.point_mass("2"), 1)


def test_conditional_step_scale_invariant():
    prob = n3_walk()
    mu = Distribution({"3": 0.2, "1": 0.1})
    scaled = Distribution({"3": 2.0, "1": 1.0})
    a = conditional_step(prob, mu, 1)
    b = conditional_step(prob, scaled, 1)
    assert a.tv_distance(b) < 1e-15


def test_conditional_law_time_zero_restricts_and_renormalizes():
    prob = n3_walk()
    mu = Distribution({"0": 0.5, "3": 0.5})
    law = conditional_law(prob, 0, mu=mu)
    assert law.weights == {"3": 1.0}


def test_conditional_law_k2_alternates():
    prob = k2_walk()
    for n in range(8):
        law = conditional_law(prob, n)
        assert law.weights == ({"1": 1.0} if n % 2 == 0 else {"2": 1.0})


def test_conditional_law_matches_brute_force_enumeration():
    for problem, n in ((n3_walk(0.4), 4), (n3_walk(0.5, start="3"), 2)):
        law = conditional_law(problem, n)
        brute = conditional_law_brute(problem, n)
        assert set(law.support()) == set(brute)
        for x, w in brute.items():
            assert law.weights[x] == pytest.approx(w, abs=1e-13)


def test_conditional_law_matches_lifted_matrix_powers():
    for p in (0.3, 0.6):
        problem = n3_walk(p)
        lifted = lift_chain(problem)
        vec = lifted.normalized_initial()
        for n in range(1, 51):
            vec = vec @ lifted.survivor_matrix
            law = conditional_law(problem, n)
            marg = {}
            for w, (x, k) in zip(vec, lifted.survivors):
                if k == n % problem.gamma and w != 0.0:
                    marg[x] = marg.get(x, 0.0) + w
            total = sum(marg.values())
            for x, w in marg.items():
                assert law.weights.get(x, 0.0) == pytest.approx(
                    w / total, abs=1e-12
                )


def test_collapsed_chain_n3_row():
    cc = collapsed_chain(n3_walk(), 0)
    idx = {s: i for i, s in enumerate(cc.survivors)}
    row = cc.matrix[idx["3"]]
    expected = {"1": 0.25, "3": 0.5, "5": 0.25}
    for s, i in idx.items():
        assert row[i] == pytest.approx(expected.get(s, 0.0), abs=1e-15)
    assert cc.cemetery[idx["3"]] == pytest.approx(0.0, abs=1e-15)


def test_collapsed_chain_gamma_one_is_survivor_restriction():
    prob = k2_walk(p=0.4)
    cc = collapsed_chain(prob, 0)
    Q, survivors = survivor_restriction(
        prob.space, prob.kernel, prob.boundary.killing_set(0)
    )
    assert cc.survivors == survivors
    np.testing.assert_allclose(cc.matrix, Q, atol=1e-15)
    np.testing.assert_allclose(cc.cemetery, 1.0 - Q.sum(axis=1), atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_collapsed_chain_is_one_period_of_masked_kernels(seed):
    # the dense product of gamma kernels, each masked to the survivors of
    # the phase it lands in, cut to the base phase's survivors
    rng = np.random.default_rng(seed)
    problem = random_problem(rng, gamma=int(rng.integers(1, 5)))
    P, alive, gamma = problem.kernel.normalized, problem.alive, problem.gamma
    for base in range(-1, gamma):
        acc = np.eye(problem.space.size)
        for step in range(1, gamma + 1):
            acc = acc @ (P * alive[(base + step) % gamma])
        idx = np.flatnonzero(alive[base % gamma])
        cc = collapsed_chain(problem, base)
        assert cc.base_phase == base % gamma
        assert cc.survivors == problem.survivors(base)
        kernel = acc[np.ix_(idx, idx)]
        np.testing.assert_allclose(cc.matrix, kernel, rtol=0, atol=1e-15)
        np.testing.assert_allclose(cc.cemetery, 1.0 - kernel.sum(axis=1), rtol=0, atol=1e-15)


def _collapse_cylinders_brute(problem, n_blocks):
    """Joint law of (X_gamma, ..., X_{n_blocks*gamma}) with survival."""
    gamma = problem.gamma
    out = {}
    for path, pr in survival_paths(problem, n_blocks * gamma):
        key = tuple(path[k * gamma] for k in range(1, n_blocks + 1))
        out[key] = out.get(key, 0.0) + pr
    return out


def test_collapse_identity_exact_on_cylinders():
    rng = np.random.default_rng(321)
    for _ in range(6):
        problem = random_problem(rng, n_states=4, gamma=2)
        space = problem.space
        cc = collapsed_chain(problem, 0)
        idx = {space.index(s): i for i, s in enumerate(cc.survivors)}
        brute = _collapse_cylinders_brute(problem, 2)
        init = problem.initial.to_array(space)
        for (a, b), pr in brute.items():
            assert a in idx and b in idx
            two_step = sum(
                init[x0] * cc.matrix[idx[x0], idx[a]] * cc.matrix[idx[a], idx[b]]
                for x0 in range(space.size)
                if x0 in idx
            )
            assert two_step == pytest.approx(pr, abs=1e-14)


def test_collapse_identity_three_blocks():
    rng = np.random.default_rng(77)
    for _ in range(2):
        problem = random_problem(rng, n_states=3, gamma=2)
        space = problem.space
        cc = collapsed_chain(problem, 0)
        idx = {space.index(s): i for i, s in enumerate(cc.survivors)}
        init = problem.initial.to_array(space)
        brute = _collapse_cylinders_brute(problem, 3)
        for (a, b, c), pr in brute.items():
            three_step = sum(
                init[x0]
                * cc.matrix[idx[x0], idx[a]]
                * cc.matrix[idx[a], idx[b]]
                * cc.matrix[idx[b], idx[c]]
                for x0 in range(space.size)
                if x0 in idx
            )
            assert three_step == pytest.approx(pr, abs=1e-14)


def test_qld_cycle_k2_forced_alternation():
    cycle = qld_cycle(k2_walk())
    assert [d.weights for d in cycle.distributions] == [{"2": 1.0}, {"1": 1.0}]
    assert cycle.max_pairwise_tv == pytest.approx(1.0)
    assert not cycle.qld_exists


def test_qld_cycle_aperiodic_collapses_to_qsd():
    # lazy 3-state chain with self-loops: aperiodic, classical limit
    from qergodic import (
        AbsorbedChainProblem,
        MovingBoundary,
        StateSpace,
        TransitionKernel,
        decompose_classes,
    )

    labels = ("a", "b", "t")
    P = np.array([[0.5, 0.4, 0.1], [0.3, 0.5, 0.2], [0.0, 0.0, 1.0]])
    problem = AbsorbedChainProblem(
        StateSpace(labels),
        TransitionKernel(P),
        MovingBoundary(1, (frozenset({"t"}),)),
        Distribution.point_mass("a"),
    )
    cycle = qld_cycle(problem)
    assert cycle.period == 1
    assert cycle.qld_exists
    assert cycle.verdict == "conditioned laws converge to a single limit"
    lifted = lift_chain(problem)
    cls = decompose_classes(lifted.survivor_matrix).classes[0]
    qsd = Distribution(
        {lifted.survivors[s][0]: w for s, w in zip(cls.states, cls.nu)}
    )
    assert cycle.distributions[0].tv_distance(qsd) < 1e-10


def test_qld_cycle_n3_disjoint_parity_supports():
    cycle = qld_cycle(n3_walk())
    assert cycle.period == 2
    supports = [sorted(d.support()) for d in cycle.distributions]
    assert supports == [["2", "4"], ["1", "3", "5"]]
    assert cycle.max_pairwise_tv == pytest.approx(1.0)
    assert not cycle.qld_exists
    assert "no quasi-limiting" in cycle.verdict


def test_qld_cycle_elements_are_fixed_points_of_composed_map():
    for problem in (n3_walk(0.35), k2_walk()):
        cycle = qld_cycle(problem)
        gamma = problem.gamma
        for i, dist in enumerate(cycle.distributions):
            phase = cycle.offsets[i] % gamma
            current = dist
            for step in range(1, cycle.period + 1):
                current = conditional_step(problem, current, (phase + step) % gamma)
            assert current.tv_distance(dist) < 1e-9


def _one_step_residual(problem, cycle):
    """Largest TV miss of a conditioned step from one element to the next."""
    return max(
        conditional_step(problem, dist, (offset + 1) % problem.gamma).tv_distance(
            cycle.distributions[(i + 1) % cycle.period]
        )
        for i, (offset, dist) in enumerate(zip(cycle.offsets, cycle.distributions))
    )


def test_qld_cycle_long_moving_walk():
    # stepping the conditioned law until it repeats takes over 1e5 steps here
    problem = moving_walk(0.45, 200, initial="201")
    cycle = qld_cycle(problem)
    assert cycle.period == 2
    assert cycle.max_pairwise_tv >= 1.0 - 1e-12
    assert _one_step_residual(problem, cycle) < 1e-12


def test_qld_cycle_reports_the_shortest_period():
    problem = random_problem(np.random.default_rng(560))
    cycle = qld_cycle(problem)
    assert cycle.period == 2
    assert _one_step_residual(problem, cycle) < 1e-12
    # a period-4 ring under gamma = 2, charged evenly on opposite states:
    # the laws repeat after 2 steps although the class period is 4
    ring = [[0.0] * 4 + [0.1] for _ in range(4)]
    for i in range(4):
        ring[i][(i + 1) % 4] = 0.9
    problem = trap_chain("abcd", ring, Distribution({"a": 0.5, "c": 0.5}), gamma=2)
    cycle = qld_cycle(problem)
    assert cycle.period == 2
    assert [d.support() for d in cycle.distributions] == [{"b", "d"}, {"a", "c"}]


def test_qld_cycle_rejects_a_tie_between_connected_classes():
    with pytest.raises(Hypothesis1Error) as err:
        qld_cycle(chained_tie())
    assert err.value.tied_classes == (0, 1)


def test_qld_cycle_sums_disconnected_tied_classes():
    cycle = qld_cycle(two_copies_tied())
    assert cycle.period == 2
    assert cycle.max_pairwise_tv == pytest.approx(1.0)
    assert [d.support() for d in cycle.distributions] == [
        {"b1", "b2"},
        {"a1", "a2"},
    ]


@pytest.mark.parametrize("ring", [("b", "c"), ("b", "c", "e")], ids=["period2", "period3"])
def test_qld_cycle_with_upstream_and_downstream_classes(ring):
    problem = feeder_ring_sink(ring)
    cycle = qld_cycle(problem)
    assert cycle.period == len(ring)
    for offset, dist in zip(cycle.offsets, cycle.distributions):
        assert dist.tv_distance(conditional_law(problem, 600 + offset)) < 1e-9
    assert all(d.weights["d"] > 0.0 for d in cycle.distributions)


def test_qld_cycle_extends_only_onto_live_ancestors():
    # z feeds the ring b <-> c at the ring's own rate 0.9, and the start b
    # never reaches z: an extension onto z would be singular
    rows = [
        [0.9, 0.05, 0.0, 0.0, 0.05],
        [0.0, 0.0, 0.9, 0.05, 0.05],
        [0.0, 0.9, 0.0, 0.0, 0.1],
        [0.0, 0.0, 0.0, 0.5, 0.5],
    ]
    problem = trap_chain(("z", "b", "c", "d"), rows, Distribution.point_mass("b"))
    cycle = qld_cycle(problem)
    assert cycle.period == 2
    want = [{"c": 112 / 121, "d": 9 / 121}, {"b": 112 / 117, "d": 5 / 117}]
    for dist, law in zip(cycle.distributions, want, strict=True):
        assert dist.support() == set(law)
        assert {x: dist.weights[x] for x in law} == pytest.approx(law, rel=0.0, abs=1e-12)


def test_qld_cycle_on_a_long_transient_ladder():
    # 139 transient singleton classes feed the ring: the ancestor set of
    # the dominant class spans almost every state
    problem = ladder_chain(150)
    cycle = qld_cycle(problem)
    assert cycle.period == 10
    laws = conditional_law_sequence(problem, 160 + cycle.period)
    for offset, dist in zip(cycle.offsets, cycle.distributions):
        assert dist.tv_distance(laws[160 + offset]) < 1e-9


def _assert_same_cycle_in_any_state_order(problem, rng):
    # the peripheral solves run in the states' own order: another order may
    # move the laws in their last bits only
    want, got = qld_cycle(problem), qld_cycle(permuted_problem(problem, rng))
    assert (got.period, got.offsets) == (want.period, want.offsets)
    for a, b in zip(got.distributions, want.distributions, strict=True):
        diff = a.to_array(problem.space) - b.to_array(problem.space)
        assert np.max(np.abs(diff)) <= 1e-15


def test_qld_cycle_on_a_permuted_ladder():
    _assert_same_cycle_in_any_state_order(ladder_chain(600), np.random.default_rng(1))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(7800)  # a law moved by 3.3e-15 here while the left Perron run started flat
def test_qld_cycle_on_permuted_random_problems(seed):
    rng = np.random.default_rng(seed)
    _assert_same_cycle_in_any_state_order(random_problem(rng), rng)


def test_qld_cycle_certificate_rejects_a_wrong_cycle(monkeypatch):
    exact = conditioning._peripheral_laws

    def perturbed(*args):
        laws = exact(*args)
        laws[0] *= np.linspace(1.0, 1.01, laws.shape[1])
        return laws

    monkeypatch.setattr(conditioning, "_peripheral_laws", perturbed)
    with pytest.raises(ConvergenceError):
        qld_cycle(n3_walk())


def test_qld_cycle_finite_absorption_is_null():
    rows = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    problem = trap_chain(("a", "b"), rows, Distribution.point_mass("a"))
    with pytest.raises(NullEventError):
        qld_cycle(problem)


@pytest.fixture()
def full_sweeps(monkeypatch):
    """Make every product of every survival sweep make all phases, as the
    sweep does when it is asked for every horizon residue."""
    sweep = conditioning._survival_sweep

    def full(lifted, reads, horizons, f=None):
        return sweep(lifted, reads, range(lifted.gamma), f)

    def use(on):
        for module in (conditioning, qprocess):
            monkeypatch.setattr(module, "_survival_sweep", full if on else sweep)

    return use


def _phase_sweep_cases():
    rng = np.random.default_rng(11)
    draws = [random_problem(rng, gamma=int(rng.integers(2, 4))) for _ in range(6)]
    return [moving_walk(0.45, 30), moving_walk(0.3, 25, initial="25"), expander_chain(60),
            moving_walk(0.1, 350), *draws, sparse_periodic_chain(1)]


_PHASE_SWEEP_IDS = ["walk-30", "walk-25", "expander-60", "walk-0.1-350",
                    *(f"random-{i}" for i in range(6)), "sparse-1"]


def _start_and_cylinder(problem):
    """The first phase-0 survivor and a one-step cylinder to its likeliest
    next state."""
    labels = problem.space.labels
    x = next(x for x, k in lift_chain(problem).survivors if k == 0)
    row = problem.kernel.normalized[problem.space.index(x)]
    return x, [labels[int(np.argmax(row))]]


@pytest.mark.parametrize("problem", _phase_sweep_cases(), ids=_PHASE_SWEEP_IDS)
def test_a_sweep_over_the_phases_a_horizon_reads_is_bit_equal_to_the_full_sweep(
    problem, full_sweeps
):
    labels, gamma = problem.space.labels, problem.gamma
    f = {x: float(i % 5) - 1.5 for i, x in enumerate(labels)}
    # one horizon at each residue, mixed horizons (two residues of gamma = 5
    # in [57, 58]), and the first 3 * gamma
    curves = [[n] for n in range(57, 57 + gamma)] + [
        [57, 58], [3, 8, 4 + gamma], list(range(1, 3 * gamma + 1))]
    x, cylinder = _start_and_cylinder(problem)
    got = [mean_ratio_curve(problem, f, ns).tobytes() for ns in curves]
    got += [finite_horizon_qlaw(problem, x, cylinder, m) for m in range(57, 57 + gamma)]
    full_sweeps(True)
    want = [mean_ratio_curve(problem, f, ns).tobytes() for ns in curves]
    want += [finite_horizon_qlaw(problem, x, cylinder, m) for m in range(57, 57 + gamma)]
    assert got == want


@pytest.fixture()
def chosen_strides(monkeypatch):
    """The stride of each survival sweep the test runs, in call order."""
    rule, seen = conditioning._stride, []

    def spy(*args):
        k, block, exponent = rule(*args)
        seen.append(k)
        return k, block, exponent

    monkeypatch.setattr(conditioning, "_stride", spy)
    return seen


@pytest.mark.parametrize("problem", _phase_sweep_cases(), ids=_PHASE_SWEEP_IDS)
def test_a_strided_sweep_agrees_with_unit_steps(problem, monkeypatch):
    f = {x: float(i % 5) - 1.5 for i, x in enumerate(problem.space.labels)}
    # a curve that reads every step takes unit steps
    unit = mean_ratio_curve(problem, f, range(1, 5001))
    for ns in ([2000], [2000, 2001], [5000]):
        got = mean_ratio_curve(problem, f, ns)
        assert np.all(np.isfinite(got)), ns  # walk-0.1-350 falls below 1e-308
        np.testing.assert_allclose(got, unit[np.array(ns) - 1], rtol=1e-12, atol=0)
    x, cylinder = _start_and_cylinder(problem)
    got = [finite_horizon_qlaw(problem, x, cylinder, m) for m in (500, 501)]
    monkeypatch.setattr(conditioning, "_stride", lambda *_: (1, None, 0))  # unit steps
    want = [finite_horizon_qlaw(problem, x, cylinder, m) for m in (500, 501)]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_the_stride_is_one_only_where_squaring_does_not_pay(chosen_strides):
    walk = moving_walk(0.45, 100)
    f = {x: 1.0 for x in walk.space.labels}
    mean_ratio_curve(walk, f, range(1, 2001))
    mean_ratio_curve(sparse_periodic_chain(1), {"s1": 1.0}, [2000])
    assert chosen_strides == [1, 1]
    mean_ratio_curve(walk, f, [2000])
    assert chosen_strides[2] > 1


@pytest.mark.parametrize("stay, ns", [(0.5, [2048]), (0.5, [4096]), (1e-6, [2000]),
                                      (1e-6, [2000, 2001])])
def test_a_strided_sweep_of_a_fast_dying_chain_keeps_its_block_in_range(
    stay, ns, chosen_strides
):
    # a survives a step with probability stay, b with stay / 2: the k-step
    # block falls below the smallest float long before the reads.  With
    # gamma = 2 a product makes only the phase its horizon reads there, so
    # a block that underflowed would leave zeros, not a null event.
    rows = [[stay / 2, stay / 2, 1 - stay], [0.0, stay / 2, 1 - stay / 2]]
    problem = trap_chain(("a", "b"), rows, Distribution.point_mass("a"), gamma=2)
    f = {"a": 1.0, "b": -2.0}
    got = mean_ratio_curve(problem, f, ns)
    unit = mean_ratio_curve(problem, f, range(1, max(ns) + 1))
    np.testing.assert_allclose(got, unit[np.array(ns) - 1], rtol=1e-12, atol=0)
    # survival over m steps from a is (stay / 2)^m (m + 1)
    m = max(ns)
    assert finite_horizon_qlaw(problem, "a", ["a"], m) == pytest.approx(m / (m + 1), rel=1e-12)
    assert chosen_strides[0] > 1 and chosen_strides[1] == 1 and chosen_strides[2] > 1


def test_a_strided_sweep_names_the_first_step_nothing_survives(chosen_strides):
    # a -> b -> c -> trap: nothing survives 3 steps, inside a stride
    rows = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    problem = trap_chain(("a", "b", "c"), rows, Distribution.point_mass("a"))
    message = r"^no state survives 3 steps; the conditioning is null$"
    with pytest.raises(NullEventError, match=message):
        mean_ratio_curve(problem, {"a": 1.0}, [7])
    with pytest.raises(NullEventError, match=message):
        finite_horizon_qlaw(problem, "a", ["b"], 7)
    assert len(chosen_strides) == 2 and min(chosen_strides) > 1


def _phase_zero_dies_first():
    """gamma = 2: from (a, 0) the chain dies after two steps, and every
    phase-0 survivor is dead by then, while (c, 1) lives a step longer."""
    labels = ("a", "b", "c", "d", "e", "x")
    P = np.zeros((6, 6))
    for src, dst in (("a", "b"), ("b", "x"), ("c", "d"), ("d", "e"), ("e", "x"), ("x", "x")):
        P[labels.index(src), labels.index(dst)] = 1.0
    return AbsorbedChainProblem(
        StateSpace(labels),
        TransitionKernel(P),
        MovingBoundary(2, (frozenset({"x", "c"}), frozenset({"x"}))),
        Distribution.point_mass("a"),
    )


def test_a_sweep_whose_phase_zero_survivors_die_first_raises_at_the_horizon():
    problem = _phase_zero_dies_first()
    with pytest.raises(
        NullEventError,
        match=r"^conditioning on a null event: survival probability at horizon 2 "
        r"vanishes from the initial law$",
    ):
        mean_ratio_curve(problem, {"a": 1.0}, [2])
    with pytest.raises(
        NullEventError, match=r"^survival to horizon 2 from 'a' has probability 0$"
    ):
        finite_horizon_qlaw(problem, "a", ["b"], 2)
    # every state is dead after 3 steps; a sweep over every phase says so,
    # one over the phases horizon 4 reads sees only its own rows die
    with pytest.raises(NullEventError, match=r"^no state survives 3 steps"):
        mean_ratio_curve(problem, {"a": 1.0}, [4, 5])
    with pytest.raises(NullEventError, match=r"at horizon 4 vanishes from the initial law$"):
        mean_ratio_curve(problem, {"a": 1.0}, [4])


def test_exact_mean_ratio_constant_function_is_one():
    rng = np.random.default_rng(9)
    for _ in range(5):
        problem = random_problem(rng)
        ones = {x: 1.0 for x in problem.space.labels}
        for n in (1, 3, 7):
            assert exact_mean_ratio(problem, ones, n) == pytest.approx(
                1.0, abs=1e-12
            )


def test_exact_mean_ratio_k2_forced_half():
    value = exact_mean_ratio(k2_walk(), {"1": 1.0}, 10)
    assert value == pytest.approx(0.5, abs=1e-15)


def test_exact_mean_ratio_horizon_one_from_point_mass():
    problem = n3_walk(0.4, start="3")
    assert exact_mean_ratio(problem, {"3": 1.0}, 1) == pytest.approx(1.0)
    assert exact_mean_ratio(problem, {"2": 1.0}, 1) == pytest.approx(0.0)


def test_exact_mean_ratio_matches_brute_force():
    problem = n3_walk(0.4)
    f = {"1": 2.0, "3": -1.0, "4": 0.5}
    fidx = {problem.space.index(k): v for k, v in f.items()}
    for n in (1, 2, 3, 5):
        num = 0.0
        den = 0.0
        for path, pr in survival_paths(problem, n):
            den += pr
            num += pr * sum(fidx.get(x, 0.0) for x in path[:-1])
        assert exact_mean_ratio(problem, f, n) == pytest.approx(
            num / (n * den), abs=1e-13
        )


def test_exact_mean_ratio_converges_to_closed_form():
    problem = n3_walk(0.5, start="3")
    target = moving_walk_qed(3, "odd")
    f = {"3": 1.0}
    value = exact_mean_ratio(problem, f, 2000)
    assert abs(value - target.weights["3"]) < 1e-2


def test_mean_ratio_curve_matches_pointwise():
    problem = n3_walk(0.45)
    f = {"2": 1.0, "3": 0.25}
    curve = mean_ratio_curve(problem, f, [1, 4, 9])
    for n, v in zip([1, 4, 9], curve):
        assert v == pytest.approx(exact_mean_ratio(problem, f, n), abs=1e-14)


def test_mean_ratio_curve_fills_repeated_horizons():
    problem = moving_walk(0.5, 3, initial="3")
    curve = mean_ratio_curve(problem, {"3": 1.0}, [5, 5, 2])
    want = [exact_mean_ratio(problem, {"3": 1.0}, n) for n in (5, 5, 2)]
    np.testing.assert_array_equal(curve, want)


def test_mean_ratio_rejects_an_empty_horizon_list(tmp_path):
    with pytest.raises(ValueError, match="horizon list is empty"):
        mean_ratio_curve(n3_walk(), {"3": 1.0}, [])
    path = tmp_path / "curve.csv"
    with pytest.raises(ValueError, match="horizon list is empty"):
        write_mean_ratio_csv(n3_walk(), {"3": 1.0}, 0, path)
    assert not path.exists()


@pytest.mark.parametrize("n", [2.5, 2.0, "2", True, False])
def test_a_horizon_that_is_not_an_integer_is_rejected(n, tmp_path):
    problem = moving_walk(0.45, 10)
    f = {x: 1.0 for x in problem.space.labels}
    with pytest.raises(ValueError, match=r"^horizons must be integers"):
        mean_ratio_curve(problem, f, [3, n])
    with pytest.raises(ValueError, match=r"^horizons must be integers"):
        exact_mean_ratio(problem, f, n)
    with pytest.raises(ValueError, match=r"^horizons must be integers"):
        finite_horizon_qlaw(problem, "1", ["2"], n)
    with pytest.raises(ValueError, match=r"^horizons must be integers"):
        conditional_law(problem, n)
    with pytest.raises(ValueError, match=r"^horizons must be integers"):
        conditional_law_sequence(problem, n)
    for write in (
        lambda path: write_mean_ratio_csv(problem, f, n, path),
        lambda path: write_conditional_laws_csv(problem, n, path),
    ):
        path = tmp_path / "table.csv"
        with pytest.raises(ValueError, match=r"^horizons must be integers"):
            write(path)
        assert not path.exists()
    # numpy integers are integers
    assert mean_ratio_curve(problem, f, np.array([2, 3])).tolist() == [
        exact_mean_ratio(problem, f, 2), exact_mean_ratio(problem, f, np.int32(3))]


BAD_ARGUMENTS = {
    "law-sequence-negative-horizon": (
        lambda problem, path: conditional_law_sequence(problem, -1),
        ValueError, "horizon must be nonnegative"),
    "law-negative-horizon": (
        lambda problem, path: conditional_law(problem, -1),
        ValueError, "horizon must be nonnegative"),
    "laws-csv-negative-horizon": (
        lambda problem, path: write_conditional_laws_csv(problem, -1, path),
        ValueError, "horizon must be nonnegative"),
    "qlaw-horizon-below-cylinder": (
        lambda problem, path: finite_horizon_qlaw(problem, "1", ["2", "3", "4"], 2),
        ValueError, "horizon must be at least the cylinder length"),
    "step-of-a-law-with-no-mass": (
        lambda problem, path: conditional_step(problem, Distribution({"3": 0.0}), 1),
        NullEventError, "cannot condition a law with no mass"),
}


@pytest.mark.parametrize("case", list(BAD_ARGUMENTS))
def test_a_bad_horizon_or_law_is_rejected(case, tmp_path):
    call, error, message = BAD_ARGUMENTS[case]
    path = tmp_path / "laws.csv"
    with pytest.raises(error, match=f"^{message}"):
        call(moving_walk(0.45, 10), path)
    assert not path.exists()


def test_conditional_law_holds_one_law_at_a_time():
    # the 50,001 laws of 41 states would take 16 MB together
    problem = moving_walk(0.45, 20, initial="21")
    tracemalloc.start()
    try:
        conditional_law(problem, 50_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_mean_ratio_deep_horizon_rescaling():
    # rho ~ 0.69 here: naive powers underflow long before n = 2500
    problem = n3_walk(0.1, start="3")
    value = exact_mean_ratio(problem, {"3": 1.0}, 2500)
    target = moving_walk_qed(3, "odd").weights["3"]
    assert abs(value - target) < 1e-2


def test_mean_ratio_survives_underflow():
    # survival over 4001 steps is below 1e-390, under the smallest double,
    # which an unscaled sweep cannot hold; the alive path is a, b, c, a, ...
    f = {"a": 1.0, "b": 2.0, "c": 4.0}
    value = mean_ratio_curve(three_cycle(), f, [4001])[0]
    assert value == pytest.approx((1333 * 7 + 1 + 2) / 4001, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_mean_ratio_curve_matches_dense_sweep(seed):
    rng = np.random.default_rng(seed)
    problem = random_problem(rng)
    f = dict(zip(problem.space.labels, rng.uniform(0.1, 1.0, problem.space.size)))
    ns = np.arange(1, 41)
    us, ss = dense_sweep(problem, f, 40)
    mu0 = lift_chain(problem).normalized_initial()
    denom = us[1:] @ mu0
    if not np.all(denom > 0.0):
        with pytest.raises(NullEventError):
            mean_ratio_curve(problem, f, ns)
        return
    want = (ss[1:] @ mu0) / (ns * denom)
    np.testing.assert_allclose(mean_ratio_curve(problem, f, ns), want, rtol=1e-12, atol=0)


def test_qsd_fixed_point_search_n3():
    report = qsd_fixed_point_search(n3_walk(), grid_step=1e-2)
    assert not report.has_common_fixed_point
    assert report.common_support == ("2", "3", "4")
    assert report.grid_min_gap > 0.05
    assert report.eigen_candidates
    assert all(g > 0.05 for g in report.eigen_gaps)


@pytest.mark.parametrize("problem", [n3_walk(), k5_walk(0.3)], ids=["moving", "fixed"])
def test_fixed_point_gaps_match_conditional_steps(problem):
    report = qsd_fixed_point_search(problem, grid_step=1e-2)
    assert report.eigen_candidates
    for (_, _, dist), gap in zip(report.eigen_candidates, report.eigen_gaps):
        moves = []
        for m in range(problem.gamma):
            try:
                moves.append(conditional_step(problem, dist, m).tv_distance(dist))
            except NullEventError:
                moves.append(1.0)
        assert gap == pytest.approx(max(moves), abs=1e-15)
    # with a fixed boundary the Perron candidate is the QSD, a common fixed point
    assert report.has_common_fixed_point == (problem.gamma == 1)


def feeding_chain():
    """A loop with rate 0.8 feeding a loop with rate 0.5 and a doomed state.

    ``c`` moves to the trap surely, so its class has rate 0.  The loops
    are both distinguished, and the left Perron vector of ``a`` carries
    onto ``b`` as ``0.1 / (0.8 - 0.5)`` and onto ``c`` as ``0.05 / 0.8``.
    """
    labels = ("a", "b", "c", "trap")
    P = np.array(
        [
            [0.8, 0.1, 0.05, 0.05],
            [0.0, 0.5, 0.0, 0.5],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    return AbsorbedChainProblem(
        StateSpace(labels),
        TransitionKernel(P),
        MovingBoundary(1, (frozenset({"trap"}),)),
        Distribution.point_mass("a"),
    )


def test_fixed_point_candidates_extend_to_descendants():
    report = qsd_fixed_point_search(feeding_chain(), grid_step=0.5)
    (_, lam_a, law_a), (_, lam_b, law_b) = report.eigen_candidates
    assert (lam_a, lam_b) == pytest.approx((0.8, 0.5), rel=1e-12)
    want_a = {"a": 48 / 67, "b": 16 / 67, "c": 3 / 67}
    assert law_a.weights == pytest.approx(want_a, rel=1e-12)
    assert law_b.weights == pytest.approx({"a": 0.0, "b": 1.0, "c": 0.0}, abs=1e-15)
    assert report.has_common_fixed_point


def test_phase_gaps_are_one_where_no_mass_survives():
    problem = feeding_chain()
    laws = np.array([[0.0, 0.0, 1.0, 0.0], [0.5, 0.25, 0.25, 0.0], [0.0, 1.0, 0.0, 0.0]])
    want = []
    for law in laws:
        dist = Distribution.from_array(problem.space, law)
        try:
            want.append(conditional_step(problem, dist, 0).tv_distance(dist))
        except NullEventError:
            want.append(1.0)
    gaps = conditioning._phase_gaps(problem, problem.kernel.normalized, laws)
    assert gaps.tolist() == pytest.approx(want, abs=1e-15)
    assert gaps[0] == 1.0


@pytest.mark.parametrize(
    "problem",
    [
        n3_walk(),
        k5_walk(0.3),
        moving_walk(0.45, 200),
        ladder_chain(40),
        three_cycle(),
        chained_tie(),
        two_copies_tied(),
        swap_with_killing(),
        symmetric_slow_chain(),
        feeding_chain(),
        random_problem(np.random.default_rng(5)),
    ],
)
def test_fixed_point_candidates_are_left_eigenvectors(problem):
    P = problem.kernel.normalized
    report = qsd_fixed_point_search(problem, grid_step=1.0)
    assert report.eigen_candidates
    for m, lam, dist in report.eigen_candidates:
        alive = problem.alive[m]
        nu = dist.to_array(problem.space)
        assert np.all(nu >= 0.0) and nu[~alive].sum() == 0.0
        nu = nu[alive]
        residual = np.max(np.abs(nu @ P[np.ix_(alive, alive)] - lam * nu))
        assert residual <= 1e-10 * np.max(nu)


def test_fixed_point_candidates_on_wide_moving_walk():
    # phase matrices this far from normal defeat a dense eigensolver
    problem = moving_walk(0.45, 250)
    P = problem.kernel.normalized
    report = qsd_fixed_point_search(problem, grid_step=1e-2)
    for m, alive in enumerate(problem.alive):
        (cls,) = decompose_classes(P[np.ix_(alive, alive)]).classes
        lo, hi = cls.rho_bracket
        assert any(lo <= lam <= hi for k, lam, _ in report.eigen_candidates if k == m)
    assert not report.has_common_fixed_point


def test_fixed_point_eigenvalue_matches_closed_form():
    # a dense eigensolver is off by 1.7e-5 relative here; the Perron root is not
    report = qsd_fixed_point_search(moving_walk(0.45, 200), grid_step=1e-2)
    (lam,) = [lam for m, lam, _ in report.eigen_candidates if m == 1]
    assert lam == pytest.approx(moving_walk_rho(0.45, 200, "even"), rel=1e-12)


def _assert_candidates_match_dense_eig(problem):
    report = qsd_fixed_point_search(problem, grid_step=1.0)
    want = eig_candidates(problem)
    got = [(m, lam, d.to_array(problem.space)) for m, lam, d in report.eigen_candidates]
    for phase in range(problem.gamma):
        mine = [c for c in got if c[0] == phase]
        ref = [c for c in want if c[0] == phase]
        assert len(mine) == len(ref)
        for _, lam, law in ref:
            assert any(
                abs(lam - mu) <= 1e-9 and np.max(np.abs(law - v)) <= 1e-9
                for _, mu, v in mine
            )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_fixed_point_candidates_match_dense_eig(seed):
    _assert_candidates_match_dense_eig(random_problem(np.random.default_rng(seed)))


@pytest.mark.parametrize(
    "problem",
    [ladder_chain(30), three_cycle(), chained_tie(), feeding_chain(), n3_walk()],
    ids=["ladder", "three-cycle", "chained-tie", "feeding", "n3"],
)
def test_fixed_point_candidates_match_dense_eig_on_test_chains(problem):
    _assert_candidates_match_dense_eig(problem)


@pytest.mark.parametrize("grid_step", [0.0, -0.1, float("nan"), float("inf"), 5e-324])
def test_fixed_point_search_rejects_bad_grid_step(grid_step):
    with pytest.raises(ValidationError, match="grid_step"):
        qsd_fixed_point_search(n3_walk(), grid_step=grid_step)


@pytest.mark.parametrize("rows", [1, 7, 10**6])
@pytest.mark.parametrize(
    "d, steps", [(1, 1), (1, 5), (2, 4), (3, 1), (6, 7), (4, 20), (5, 9)]
)
def test_simplex_grid_chunks_match_recursion(d, steps, rows):
    chunks = list(conditioning._simplex_grid(d, steps, rows))
    want = simplex_grid_recursive(d, steps)
    got = np.concatenate(chunks)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert all(len(c) == rows for c in chunks[:-1]) and 0 < len(chunks[-1]) <= rows


def test_csv_emitters(tmp_path):
    problem = n3_walk()
    ratio_csv = tmp_path / "ratio.csv"
    laws_csv = tmp_path / "laws.csv"
    write_mean_ratio_csv(problem, {"3": 1.0}, 12, ratio_csv)
    write_conditional_laws_csv(problem, 8, laws_csv)
    ratio_lines = ratio_csv.read_text().strip().splitlines()
    assert ratio_lines[0] == "n,mean_ratio"
    assert len(ratio_lines) == 13
    law_lines = laws_csv.read_text().strip().splitlines()
    assert law_lines[0].split(",") == ["n", *problem.space.labels]
    assert len(law_lines) == 10


# repeats, both zeros, NaNs with two bit patterns, both infinities, two
# subnormals, repr's switch points to exponent form and a float whose repr
# is long
WRITER_FLOATS = [
    0.0, -0.0, float("nan"), np.int64(0x7FF8000000000001).view(np.float64).item(),
    float("inf"), float("-inf"), 5e-324, 2.5e-310, 1e16, 9999999999999998.0,
    1e-5, 0.0001, 0.1 + 0.2, 1.0, -2.5,
]


@st.composite
def writer_tables(draw):
    pool = draw(st.lists(st.sampled_from(WRITER_FLOATS) | st.floats(), min_size=1, max_size=6))
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 5))
    picks = draw(st.lists(st.sampled_from(pool), min_size=rows * cols, max_size=rows * cols))
    values = np.array(picks, dtype=np.float64).reshape(rows, cols)
    counts = draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=rows, max_size=rows))
    index = draw(st.sampled_from([[range(rows)], [range(rows), np.array(counts, dtype=np.int64)]]))
    label = st.text(st.sampled_from('ab ,"\n\r;'), max_size=5)
    header = draw(st.lists(label, min_size=len(index) + cols, max_size=len(index) + cols))
    return header, index, values


@settings(max_examples=200, deadline=None)
@given(writer_tables())
def test_table_writer_writes_the_bytes_of_csv_writer(tmp_path_factory, table):
    header, index, values = table
    folder = tmp_path_factory.getbasetemp()
    conditioning._write_table(folder / "got.csv", header, index, values)
    with open(folder / "want.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [*(int(column[i]) for column in index), *row]
            for i, row in enumerate(values.tolist())
        )
    assert (folder / "got.csv").read_bytes() == (folder / "want.csv").read_bytes()


SIGNED_ZERO_START = AbsorbedChainProblem(
    StateSpace(("a", "b", "c")),
    TransitionKernel(np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.0, 1.0]])),
    MovingBoundary(1, (frozenset({"c"}),)),
    Distribution({"a": 1.0, "b": -0.0}),
)


@pytest.mark.parametrize(
    "problem, n_max",
    [
        (moving_walk(0.45, 20), 60),
        (random_problem(np.random.default_rng(3)), 12),
        (random_problem(np.random.default_rng(11)), 12),
        (SIGNED_ZERO_START, 3),
    ],
    ids=["walk", "random3", "random11", "signed_zero_start"],
)
def test_conditional_laws_csv_reads_back_the_law_sequence(problem, n_max, tmp_path):
    path = tmp_path / "laws.csv"
    write_conditional_laws_csv(problem, n_max, path)
    text = path.read_bytes().decode("utf-8")
    lines = text.split("\r\n")
    assert lines.pop() == ""  # every row ends in \r\n
    labels = problem.space.labels
    assert lines[0] == ",".join(["n", *labels])
    laws = conditional_law_sequence(problem, n_max)
    assert len(lines) == n_max + 2
    for k, (line, law) in enumerate(zip(lines[1:], laws)):
        cells = line.split(",")
        assert cells[0] == str(k)
        assert not any(c.startswith("-") for c in cells)  # no -0.0 weight
        assert [float(c) for c in cells[1:]] == [law.weights.get(x, 0.0) for x in labels]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12))
def test_composition_equals_sequence(seed, n):
    rng = np.random.default_rng(seed)
    problem = random_problem(rng)
    try:
        seq = conditional_law_sequence(problem, n)
    except NullEventError:
        return
    stepped = conditional_law(problem, 0)
    for k in range(1, n + 1):
        stepped = conditional_step(problem, stepped, k % problem.gamma)
    assert stepped.tv_distance(seq[-1]) < 1e-12


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "entry",
    [
        lambda problem, f: qed_moving(problem, f),
        lambda problem, f: mean_ratio_curve(problem, f, [5]),
        lambda problem, f: estimate_conditionals(problem, f, SimConfig(0, 50, 5)),
    ],
    ids=["qed_moving", "mean_ratio_curve", "estimate_conditionals"],
)
def test_state_function_that_is_not_finite_is_rejected(entry, value):
    problem = n3_walk(0.5, start="3")
    mapping = {"4": value, "2": value}
    for f in (mapping, MappingProxyType(mapping), lambda x: value if x in "24" else 1.0):
        with pytest.raises(ValidationError) as info:
            entry(problem, f)
        assert str(info.value) == (
            f"state function is not finite at state '2': {float(value)!r}"
        )


@pytest.mark.parametrize("value", [np.nan, np.inf, -0.5])
@pytest.mark.parametrize(
    "entry",
    [
        lambda problem, mu: conditional_step(problem, mu, 1),
        lambda problem, mu: conditional_law(problem, 3, mu),
    ],
    ids=["conditional_step", "conditional_law"],
)
def test_a_law_with_a_negative_or_non_finite_weight_is_rejected(entry, value):
    # a NaN weight would make every weight of the result NaN
    with pytest.raises(ValidationError, match="negative or not finite"):
        entry(moving_walk(0.45, 5), Distribution({"3": value, "4": 1.0}))


def test_a_read_only_mapping_is_a_state_function():
    # Distribution.weights is a read-only mapping
    problem = moving_walk(0.45, 5, initial="5")
    f = Distribution({"5": 1.0, "3": 0.5}).weights
    assert isinstance(f, MappingProxyType)
    assert qed_moving(problem, f).phi == qed_moving(problem, dict(f)).phi
    assert mean_ratio_curve(problem, f, [4, 7]).tolist() == (
        mean_ratio_curve(problem, dict(f), [4, 7]).tolist())
    with pytest.raises(ValidationError, match="unknown states"):
        mean_ratio_curve(problem, MappingProxyType({"zzz": 1.0}), [4])
