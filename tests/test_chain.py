import copy
import json
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import sparse

import qergodic
from qergodic import (
    AbsorbedChainProblem,
    Distribution,
    MovingBoundary,
    SimConfig,
    StateSpace,
    TransitionKernel,
    ValidationError,
    build_qprocess,
    build_qprocess_dominant,
    collapsed_chain,
    conditional_law,
    decompose_classes,
    estimate_conditionals,
    finite_horizon_qlaw,
    lift_chain,
    load_problem,
    mean_ratio_curve,
    moving_walk,
    problem_from_dict,
    problem_to_dict,
    qed_moving,
    qld_cycle,
    save_problem,
    spectral_radius,
    validate_problem,
)
from qergodic.chain import ABSORPTION_RADIUS_TOL
from qergodic import chain, cli, conditioning, qed, qprocess, spectral
from qergodic.cli import main
from _chains import (
    closed_class_chain,
    expander_chain,
    ladder_chain,
    leaky_walk,
    lift_by_phase,
    n3_walk,
    random_problem,
    survivor_restriction,
    swap_with_killing,
)


@pytest.fixture()
def decompositions(monkeypatch):
    """Arguments of every decompose_classes call, through any module binding."""
    original = spectral.decompose_classes
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (qergodic, chain, spectral, qed, qprocess, conditioning, cli):
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, counting)
    return calls


def test_state_space_rejects_duplicates():
    with pytest.raises(ValidationError):
        StateSpace(("a", "a"))


def test_validate_clean_problem():
    assert validate_problem(n3_walk()) == []


def test_distribution_weights_are_read_only():
    weights = {"3": 1.0}
    dist = Distribution(weights)
    weights["3"] = 0.5
    assert dist.weights == {"3": 1.0}
    with pytest.raises(TypeError):
        dist.weights["3"] = 0.5
    with pytest.raises(TypeError):
        n3_walk().initial.weights["2"] = 0.0


@pytest.mark.parametrize("copy_of", [lambda p: pickle.loads(pickle.dumps(p)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_problem_survives_pickle_and_deepcopy(copy_of):
    problem = n3_walk()
    lift_chain(problem)  # fills the cached alive mask and normalised kernel
    clone = copy_of(problem)
    assert clone.initial.weights == problem.initial.weights
    with pytest.raises(TypeError):
        clone.initial.weights["2"] = 0.0
    assert validate_problem(clone) == []
    np.testing.assert_array_equal(clone.alive, problem.alive)
    np.testing.assert_array_equal(clone.kernel.normalized, problem.kernel.normalized)


def test_validate_reports_non_stochastic_row():
    prob = n3_walk()
    bad = prob.kernel.matrix.copy()
    bad[3, 2] = 0.4  # row now sums to 0.9
    broken = AbsorbedChainProblem(
        prob.space, TransitionKernel(bad), prob.boundary, prob.initial
    )
    report = validate_problem(broken)
    assert any("kernel row not stochastic" in v for v in report)


def test_lift_rejects_non_stochastic_row_before_lifting(decompositions):
    prob = n3_walk()
    bad = prob.kernel.matrix.copy()
    bad[3, 2] = 0.4
    broken = AbsorbedChainProblem(
        prob.space, TransitionKernel(bad), prob.boundary, prob.initial
    )
    with pytest.raises(ValidationError) as info:
        lift_chain(broken)
    assert info.value.violations == validate_problem(broken)
    assert decompositions == []


def test_normalized_kernel_is_one_read_only_array():
    kernel = n3_walk().kernel
    normalized = kernel.normalized
    assert kernel.normalized is normalized
    assert not normalized.flags.writeable
    np.testing.assert_array_equal(normalized.sum(axis=1), 1.0)


def _edited(i, j, value):
    P = np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]])
    P[i, j] = value
    return P


MALFORMED_KERNELS = {
    "nan": _edited(0, 1, np.nan),
    "inf": _edited(1, 1, np.inf),
    "negative": np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [-0.1, 0.6, 0.5]]),
    "row-off-2e-12": _edited(1, 2, 0.25 + 2e-12),
    "entry-above-one": np.array([[1.0 + 2e-12, 0.0, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]]),
}


def _kernel_report(matrix):
    """The kernel and the kernel part of validate_problem's report, on
    labels '0'..'n-1', the names the kernel's own check gives the states."""
    kernel = TransitionKernel(matrix)
    problem = AbsorbedChainProblem(
        StateSpace(("0", "1", "2")),
        kernel,
        MovingBoundary(1, (frozenset({"2"}),)),
        Distribution.point_mass("0"),
    )
    return kernel, [v for v in validate_problem(problem) if v.startswith("kernel")]


@pytest.mark.parametrize("case", MALFORMED_KERNELS)
def test_kernel_check_is_the_one_validate_reports(case):
    kernel, reported = _kernel_report(MALFORMED_KERNELS[case])
    assert reported
    with pytest.raises(ValidationError) as info:
        kernel.normalized
    assert info.value.violations == reported


def test_row_within_tolerance_passes_both_kernel_checks():
    kernel, reported = _kernel_report(_edited(1, 2, 0.25 + 5e-13))
    assert reported == []
    np.testing.assert_allclose(kernel.normalized.sum(axis=1), 1.0, rtol=0, atol=1e-15)


def test_validate_reports_empty_survival_set():
    prob = n3_walk()
    sets = list(prob.boundary.killing_sets)
    sets[1] = frozenset(prob.space.labels)
    broken = AbsorbedChainProblem(
        prob.space, prob.kernel, MovingBoundary(2, tuple(sets)), prob.initial
    )
    assert any("empty survival set" in v for v in validate_problem(broken))


def test_validate_reports_initial_support_violation():
    prob = n3_walk(start="0")
    assert any("phase-0 survival" in v for v in validate_problem(prob))


@pytest.mark.parametrize(
    "weights, report",
    [
        ({"3": 1.0, "zz": 0.0}, "initial distribution names unknown states ['zz']"),
        ({"3": float("nan")}, "initial distribution has non-finite weights"),
        ({"3": 1.5, "2": -0.5}, "initial distribution has negative weights at ['2']"),
        ({"3": 0.5}, "initial distribution does not sum to 1 (sum = 0.5)"),
    ],
    ids=["unknown", "not-finite", "negative", "sum"],
)
def test_validate_reports_each_initial_law_violation(weights, report):
    prob = n3_walk()
    broken = AbsorbedChainProblem(prob.space, prob.kernel, prob.boundary, Distribution(weights))
    assert validate_problem(broken) == [report]


def test_validate_reports_no_absorption():
    labels = ("a", "b")
    P = np.array([[0.0, 1.0], [1.0, 0.0]])
    prob = AbsorbedChainProblem(
        StateSpace(labels),
        TransitionKernel(P),
        MovingBoundary(1, (frozenset(),)),
        Distribution.point_mass("a"),
    )
    assert any("absorption" in v for v in validate_problem(prob))


def _no_absorption(problem) -> str:
    """The violation that validation reports for ``problem``, whose radius
    the class decomposition of its lift reads."""
    dec = lift_chain(problem, validate=False).decomposition
    radius = max(c.rho for c in dec.classes)
    return (
        "absorption is not almost sure: lifted survivor matrix has "
        f"spectral radius {radius!r}"
    )


def _accepts_exactly_below_the_radius_tolerance(problem):
    radius = spectral_radius(lift_chain(problem, validate=False).survivor_csr)
    assert (validate_problem(problem) == []) == (radius < 1.0 - ABSORPTION_RADIUS_TOL)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_validate_verdict_matches_the_spectral_radius_on_random_problems(seed):
    problem = random_problem(np.random.default_rng(seed))
    never_killed = AbsorbedChainProblem(
        problem.space,
        problem.kernel,
        MovingBoundary(problem.gamma, (frozenset(),) * problem.gamma),
        problem.initial,
    )
    for candidate in (problem, never_killed):
        _accepts_exactly_below_the_radius_tolerance(candidate)


@pytest.mark.parametrize(
    "make",
    [
        lambda: ladder_chain(60),
        n3_walk,
        lambda: moving_walk(0.45, 20),
        leaky_walk,
        lambda: swap_with_killing(2e-10),
        lambda: swap_with_killing(1e-11),
        closed_class_chain,
    ],
    ids=["ladder", "n3_walk", "moving_walk", "leaky_walk", "leak-2e-10", "leak-1e-11",
         "closed-class"],
)
def test_validate_verdict_matches_the_spectral_radius(make):
    _accepts_exactly_below_the_radius_tolerance(make())


def test_row_sums_below_the_tolerance_accept_without_decomposing(decompositions):
    problem = swap_with_killing(2e-10)
    # the trap's row, which the lift drops, may keep all of its mass
    returning = problem.kernel.matrix.copy()
    returning[2] = [1.0, 0.0, 0.0]
    trap_returns = AbsorbedChainProblem(
        problem.space, TransitionKernel(returning), problem.boundary, problem.initial
    )
    assert validate_problem(problem) == []
    assert validate_problem(trap_returns) == []
    assert decompositions == []


def test_row_sums_within_the_tolerance_of_one_still_reject():
    # the row-sum bound 1 - 1e-11 proves nothing; the Perron radius rejects
    problem = swap_with_killing(1e-11)
    report = validate_problem(problem)
    assert report == [_no_absorption(problem)]
    assert abs(lift_chain(problem, validate=False).decomposition.classes[0].rho
               - (1.0 - 1e-11)) < 1e-15


def test_validate_rejects_a_closed_class():
    problem = closed_class_chain()
    message = _no_absorption(problem)
    assert message.endswith("spectral radius 1.0")
    assert validate_problem(problem) == [message]


def test_expander_chain_validates_from_its_row_sums(decompositions):
    problem = expander_chain(2000)
    assert validate_problem(problem) == []
    assert decompositions == []
    assert len(lift_chain(problem, validate=False).survivors) == 2 * 2000 - 1


def test_expander_chain_mean_ratio_of_one_is_one(decompositions):
    problem = expander_chain(2000)
    f = dict.fromkeys(problem.space.labels, 1.0)
    np.testing.assert_allclose(mean_ratio_curve(problem, f, [50]), [1.0], rtol=1e-12)
    assert decompositions == []


def test_lifetime_certifies_a_walk_whose_perron_iterate_underflows(decompositions):
    # interior rows sum to 1, and the Perron iterate of moving_walk(0.1, 350)
    # spans more decades than a float holds; the expected lifetime settles it
    problem = moving_walk(0.1, 350)
    assert validate_problem(problem) == []
    assert decompositions == []


def test_lifetime_bound_is_a_radius_bound_that_falls_through_when_singular():
    walk = lift_chain(n3_walk(), validate=False)
    bound = chain._lifetime_bound(walk.survivor_csr)
    assert spectral_radius(walk.survivor_csr) <= bound < 1.0 - ABSORPTION_RADIUS_TOL
    closed = lift_chain(closed_class_chain(), validate=False)
    assert chain._lifetime_bound(closed.survivor_csr) == np.inf


def test_mean_ratio_of_a_walk_whose_perron_iterate_underflows():
    # mean_ratio_curve sweeps the phases its horizons read; the reference
    # asks for every residue, so each of its products makes every row
    problem = moving_walk(0.1, 350)
    f, ns = {str(x): float(x) for x in range(701)}, [1, 50, 200]
    lifted = lift_chain(problem, validate=False)
    mu0 = lifted.normalized_initial()
    fvec = conditioning.state_function(problem, f)[lifted.state]
    want = []
    every = range(lifted.gamma)
    for j, V, _ in conditioning._survival_sweep(lifted, ns, every, fvec):
        denom, total = mu0 @ V
        want.append(total / (j * denom))
    assert mean_ratio_curve(problem, f, ns).tolist() == want


def test_lift_moving_walk_counts():
    lifted = lift_chain(n3_walk())
    pairs = [(x, k) for k in range(2) for x in lifted.problem.space.labels]
    assert len(pairs) == 14
    assert sum(s not in lifted.survivor_index for s in pairs) == 6
    assert len(lifted.survivors) == 8
    expected = {(str(x), 0) for x in range(1, 6)} | {(str(x), 1) for x in (2, 3, 4)}
    assert set(lifted.survivors) == expected


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_lift_arrays_list_survivors_phase_major(seed):
    problem = random_problem(np.random.default_rng(seed))
    labels, gamma = problem.space.labels, problem.gamma
    killing = problem.boundary.killing_set
    pairs = [(x, k) for k in range(gamma) for x in labels if x not in killing(k)]
    lifted = lift_chain(problem, validate=False)
    assert lifted.survivors == tuple(pairs)
    assert lifted.phase.tolist() == [k for _, k in pairs]
    assert [labels[i] for i in lifted.state] == [x for x, _ in pairs]
    for k in range(-1, gamma + 1):
        assert problem.survivors(k) == tuple(x for x in labels if x not in killing(k))
    with pytest.raises(ValueError):
        problem.alive[0, 0] = False


def test_unknown_killing_label_is_rejected_by_every_entry_point():
    walk = n3_walk()
    sets = walk.boundary.killing_sets
    problem = AbsorbedChainProblem(
        walk.space,
        walk.kernel,
        MovingBoundary(2, (sets[0], sets[1] | {"zz"})),
        walk.initial,
    )
    assert validate_problem(problem) == [
        "killing set at phase 1 contains unknown states ['zz']"
    ]
    for run in (
        lambda: problem.alive,
        lambda: conditional_law(problem, 3),
        lambda: estimate_conditionals(problem, {"3": 1.0}, SimConfig(0, 10, 3)),
    ):
        with pytest.raises(ValidationError, match="unknown states \\['zz'\\]"):
            run()


def test_lift_gamma_one_is_isomorphic():
    prob = n3_walk()
    single = AbsorbedChainProblem(
        prob.space,
        prob.kernel,
        MovingBoundary(1, (frozenset({"0", "6"}),)),
        prob.initial,
    )
    lifted = lift_chain(single)
    Q, survivors = survivor_restriction(prob.space, prob.kernel, {"0", "6"})
    assert lifted.survivors == tuple((x, 0) for x in survivors)
    np.testing.assert_array_equal(lifted.survivor_matrix, Q)


def test_lift_same_killing_set_replicates_blocks():
    labels = ("a", "b")
    P = np.array([[0.5, 0.5], [0.7, 0.3]])
    prob = AbsorbedChainProblem(
        StateSpace(labels),
        TransitionKernel(P),
        MovingBoundary(2, (frozenset({"b"}), frozenset({"b"}))),
        Distribution.point_mass("a"),
    )
    lifted = lift_chain(prob)
    Q, _ = survivor_restriction(prob.space, prob.kernel, {"b"})
    expected = np.zeros((2, 2))
    expected[0, 1] = Q[0, 0]
    expected[1, 0] = Q[0, 0]
    np.testing.assert_array_equal(lifted.survivor_matrix, expected)


def test_lift_projects_to_one_step_law():
    # marginalizing the lifted kernel over target states recovers the kernel
    prob = n3_walk()
    lifted = lift_chain(prob)
    size = prob.space.size
    P = prob.kernel.normalized
    for k in range(prob.gamma):
        nxt = (k + 1) % prob.gamma
        block = lifted.matrix[
            k * size:(k + 1) * size, nxt * size:(nxt + 1) * size
        ]
        np.testing.assert_array_equal(block, P)
    sums = lifted.matrix.sum(axis=1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(seed=362881)  # a rank-one T-step block: Noda's shift hits rho exactly
def test_survivor_matrix_matches_per_phase_assembly(seed):
    problem = random_problem(np.random.default_rng(seed))
    lifted = lift_chain(problem)
    survivors, Q = lift_by_phase(problem)
    assert lifted.survivors == survivors
    assert lifted.survivor_matrix.shape == Q.shape
    assert lifted.survivor_matrix.tobytes() == Q.tobytes()
    built, reference = lifted.survivor_csr, sparse.csr_array(Q)
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(built, name), getattr(reference, name))
    dense, compressed = decompose_classes(Q), decompose_classes(built)
    np.testing.assert_array_equal(dense.class_of, compressed.class_of)
    assert (dense.graph != compressed.graph).nnz == 0
    for a, b in zip(dense.classes, compressed.classes, strict=True):
        assert (a.states, a.period, a.rho, a.rho_bracket) == (
            b.states, b.period, b.rho, b.rho_bracket
        )
        for name in ("cyclic", "nu", "xi"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


F = {"3": 1.0}


def cli_oracle(problem, spec):
    f_path = spec.with_name("f.json")
    f_path.write_text(json.dumps(F))
    out = spec.with_name("oracle.json")
    main(["oracle", "--in", str(spec), "--f", str(f_path), "--n", "10", "--out", str(out)])


ENTRY_POINTS = {
    "qed_moving": lambda problem, spec: qed_moving(problem, F),
    "build_qprocess": lambda problem, spec: build_qprocess(problem, "3"),
    "build_qprocess_dominant": lambda problem, spec: build_qprocess_dominant(problem),
    "mean_ratio_curve": lambda problem, spec: mean_ratio_curve(problem, F, [5, 10]),
    "finite_horizon_qlaw": lambda problem, spec: finite_horizon_qlaw(
        problem, "3", ["4", "3"], 10
    ),
    "qld_cycle": lambda problem, spec: qld_cycle(problem),
    "collapsed_chain": lambda problem, spec: collapsed_chain(problem, 1),
    "cli_analyze": lambda problem, spec: main(
        ["analyze", "--in", str(spec), "--out", str(spec.with_name("report.json"))]
    ),
    "cli_oracle": cli_oracle,
}


# n3_walk's interior rows sum to 1, so its row sums prove nothing, but its
# expected lifetime certifies absorption; only the analyses that read
# class data decompose, once.  collapsed_chain does not validate.
DECOMPOSITIONS = {
    "qed_moving": 1,
    "build_qprocess": 1,
    "build_qprocess_dominant": 1,
    "mean_ratio_curve": 0,
    "finite_horizon_qlaw": 0,
    "qld_cycle": 1,
    "collapsed_chain": 0,
    "cli_analyze": 1,
    "cli_oracle": 0,
}


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_each_call_decomposes_once(entry, decompositions, tmp_path):
    problem = n3_walk()
    spec = tmp_path / "walk.json"
    save_problem(problem, spec)
    ENTRY_POINTS[entry](problem, spec)
    assert len(decompositions) == DECOMPOSITIONS[entry]


VALIDATE_ENTRY_POINTS = {
    "validate_problem": lambda problem, spec: validate_problem(problem),
    "cli_validate": lambda problem, spec: main(
        ["validate", "--in", str(spec), "--out", str(spec.with_name("valid.json"))]
    ),
}

# On a chain that leaks from every lifted row, validation reads the row
# sums only; the analyses that need class data decompose once.
LEAKY_DECOMPOSITIONS = {
    "validate_problem": 0,
    "cli_validate": 0,
    "mean_ratio_curve": 0,
    "finite_horizon_qlaw": 0,
    "cli_oracle": 0,
    "qed_moving": 1,
    "build_qprocess": 1,
    "build_qprocess_dominant": 1,
    "qld_cycle": 1,
    "cli_analyze": 1,
}


@pytest.mark.parametrize("entry", list(LEAKY_DECOMPOSITIONS))
def test_leaky_chain_decomposes_only_for_class_data(entry, decompositions, tmp_path):
    problem = leaky_walk()
    spec = tmp_path / "walk.json"
    save_problem(problem, spec)
    result = {**ENTRY_POINTS, **VALIDATE_ENTRY_POINTS}[entry](problem, spec)
    if entry == "validate_problem":
        assert result == []
    assert len(decompositions) == LEAKY_DECOMPOSITIONS[entry]


F_ENTRY_POINTS = {
    "qed_moving": lambda problem, f: qed_moving(problem, f),
    "mean_ratio_curve": lambda problem, f: mean_ratio_curve(problem, f, [5]),
}


@pytest.mark.parametrize(
    "f", [{"3": float("nan")}, {"zz": 1.0}, np.ones(3)], ids=["not-finite", "unknown", "length"]
)
@pytest.mark.parametrize("entry", list(F_ENTRY_POINTS))
def test_a_bad_state_function_is_rejected_before_any_decomposition(
    entry, f, decompositions, monkeypatch
):
    # n3_walk's interior rows sum to 1, so validating its lift solves for
    # the expected lifetime; a bad f is rejected before the lift is validated
    lifetimes = []
    bound = chain._lifetime_bound
    monkeypatch.setattr(chain, "_lifetime_bound", lambda Q: lifetimes.append(Q) or bound(Q))
    with pytest.raises(ValidationError, match="state function"):
        F_ENTRY_POINTS[entry](n3_walk(), f)
    assert decompositions == [] and lifetimes == []


@pytest.mark.parametrize(
    "entry",
    [
        "qed_moving",
        "build_qprocess_dominant",
        "qld_cycle",
        "mean_ratio_curve",
        "finite_horizon_qlaw",
        "collapsed_chain",
        "validate_problem",
        "cli_analyze",
    ],
)
def test_analysis_never_reads_a_dense_lift(entry, monkeypatch, tmp_path):
    def dense(self):
        raise AssertionError("the library read a dense copy of the lift")

    monkeypatch.setattr(chain.LiftedChain, "survivor_matrix", property(dense))
    monkeypatch.setattr(chain.LiftedChain, "matrix", property(dense))
    problem = n3_walk()
    spec = tmp_path / "walk.json"
    save_problem(problem, spec)
    if entry == "validate_problem":
        assert validate_problem(problem) == []
    else:
        ENTRY_POINTS[entry](problem, spec)


def test_survivor_restriction_k2_matrix():
    space = StateSpace(("0", "1", "2", "3"))
    P = np.zeros((4, 4))
    P[0, 0] = 1.0
    P[3, 3] = 1.0
    P[1, 0], P[1, 2] = 0.3, 0.7
    P[2, 1], P[2, 3] = 0.3, 0.7
    Q, survivors = survivor_restriction(space, TransitionKernel(P), {"0", "3"})
    assert survivors == ("1", "2")
    np.testing.assert_allclose(Q, [[0.0, 0.7], [0.3, 0.0]])


def test_survivor_restriction_nothing_killed_is_identity():
    prob = n3_walk()
    Q, survivors = survivor_restriction(prob.space, prob.kernel, set())
    assert survivors == prob.space.labels
    np.testing.assert_allclose(Q.sum(axis=1), 1.0, atol=1e-12)


def test_survivor_restriction_single_self_loop():
    labels = ("a", "b")
    P = np.array([[0.4, 0.6], [0.5, 0.5]])
    Q, survivors = survivor_restriction(StateSpace(labels), TransitionKernel(P), {"b"})
    assert survivors == ("a",)
    np.testing.assert_allclose(Q, [[0.4]])


def test_survivor_restriction_empty_survivors_rejected():
    labels = ("a",)
    P = np.array([[1.0]])
    with pytest.raises(ValidationError):
        survivor_restriction(StateSpace(labels), TransitionKernel(P), {"a"})


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_restriction_never_exceeds_kernel(seed):
    rng = np.random.default_rng(seed)
    problem = random_problem(rng)
    P = problem.kernel.normalized
    killing = problem.boundary.killing_set(0)
    Q, survivors = survivor_restriction(problem.space, problem.kernel, killing)
    embedded = np.zeros_like(P)
    idx = [problem.space.index(x) for x in survivors]
    embedded[np.ix_(idx, idx)] = Q
    assert np.all(embedded <= P + 1e-15)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_lifted_radius_below_one_for_random_problems(seed):
    rng = np.random.default_rng(seed)
    problem = random_problem(rng)
    from qergodic import spectral_radius

    lifted = lift_chain(problem)
    assert spectral_radius(lifted.survivor_matrix) < 1.0


def test_problem_json_round_trip(tmp_path):
    prob = moving_walk(0.4, 3, initial="3")
    data = problem_to_dict(prob)
    again = problem_from_dict(data)
    assert again.space.labels == prob.space.labels
    np.testing.assert_array_equal(again.kernel.matrix, prob.kernel.matrix)
    assert again.boundary.killing_sets == prob.boundary.killing_sets
    assert again.initial.weights == prob.initial.weights


def _load_text(tmp_path, text: str):
    """``load_problem`` on a spec file holding ``text``."""
    spec = tmp_path / "spec.json"
    spec.write_text(text, encoding="utf-8")
    return load_problem(spec)


def test_loader_diagnoses_bad_json(tmp_path):
    with pytest.raises(ValidationError, match="line 1"):
        _load_text(tmp_path, "{not json")


def test_loader_diagnoses_field_errors(tmp_path):
    with pytest.raises(ValidationError, match="killing_sets"):
        _load_text(
            tmp_path,
            '{"states": ["a"], "kernel": [[1.0]], "gamma": 1,'
            ' "killing_sets": [["zz"]], "initial": {"a": 1.0}}',
        )
    with pytest.raises(ValidationError, match="kernel"):
        _load_text(
            tmp_path,
            '{"states": ["a", "b"], "kernel": [[1.0]], "gamma": 1,'
            ' "killing_sets": [[]], "initial": {"a": 1.0}}',
        )


def _spec_with_kernel(kernel) -> dict:
    return {
        "states": ["a", "b"],
        "kernel": kernel,
        "gamma": 1,
        "killing_sets": [["b"]],
        "initial": {"a": 1.0},
    }


@pytest.mark.parametrize("bad", [True, "0.5", None, [0.5]])
@pytest.mark.parametrize("i, j", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_loader_names_the_first_non_numeric_kernel_cell(bad, i, j, tmp_path):
    kernel = [[0.5, 0.5], [0.0, 1.0]]
    kernel[i][j] = bad
    with pytest.raises(ValidationError) as info:
        problem_from_dict(_spec_with_kernel(kernel))
    assert str(info.value) == f"field 'kernel[{i}][{j}]': expected a number"
    # loaded from JSON text the same cell is named
    with pytest.raises(ValidationError) as info:
        _load_text(tmp_path, json.dumps(_spec_with_kernel(kernel)))
    assert str(info.value) == f"field 'kernel[{i}][{j}]': expected a number"


def test_loader_scans_kernel_cells_row_major():
    several = [[0.5, 0.5], [False, "x"]]
    with pytest.raises(ValidationError, match=r"^field 'kernel\[1\]\[0\]': expected"):
        problem_from_dict(_spec_with_kernel(several))
    several = [[0.5, None], [True, 1.0]]
    with pytest.raises(ValidationError, match=r"^field 'kernel\[0\]\[1\]': expected"):
        problem_from_dict(_spec_with_kernel(several))
    # a bad cell above a short row is named before the row
    with pytest.raises(ValidationError, match=r"^field 'kernel\[0\]\[1\]': expected"):
        problem_from_dict(_spec_with_kernel([[0.5, "x"], [1.0]]))
    # a short row is named before a bad cell below it
    with pytest.raises(ValidationError, match=r"^field 'kernel\[0\]': expected 2 entries$"):
        problem_from_dict(_spec_with_kernel([[1.0], [0.5, "x"]]))


@pytest.mark.parametrize(
    "field, kernel, initial",
    [
        ("kernel[1][0]", [[0.5, 0.5], [10**400, 1.0]], {"a": 1.0}),
        ("kernel[0][1]", [[0.5, -(10**309)], [0.0, 1.0]], {"a": 1.0}),
        ("initial['a']", [[0.5, 0.5], [0.0, 1.0]], {"a": 10**400}),
    ],
)
def test_loader_rejects_numbers_past_float_range(field, kernel, initial, tmp_path):
    spec = {**_spec_with_kernel(kernel), "initial": initial}
    expected = f"field '{field}': expected a number"
    with pytest.raises(ValidationError) as info:
        problem_from_dict(spec)
    assert str(info.value) == expected
    with pytest.raises(ValidationError) as info:
        _load_text(tmp_path, json.dumps(spec))
    assert str(info.value) == expected


def test_loader_accepts_int_and_numpy_float_cells():
    ints = problem_from_dict(_spec_with_kernel([[0, 1], [0, 1]]))
    np.testing.assert_array_equal(ints.kernel.matrix, [[0.0, 1.0], [0.0, 1.0]])
    floats = problem_from_dict(
        _spec_with_kernel([[np.float64(0.5), 0.5], [0.25, np.float64(0.75)]])
    )
    np.testing.assert_array_equal(floats.kernel.matrix, [[0.5, 0.5], [0.25, 0.75]])
