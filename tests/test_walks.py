import numpy as np
import pytest

from qergodic import (
    RandomWalkSpec,
    ValidationError,
    build_walk,
    closed_form_spectrum,
    fixed_walk,
    lift_chain,
    moving_walk,
    moving_walk_qed,
    moving_walk_rho,
    qed_moving,
    qprocess_closed_form,
    survivor_matrix_fixed,
    validate_problem,
)
from _chains import char_poly_eval


def test_spec_validation():
    with pytest.raises(ValidationError):
        RandomWalkSpec(0.0, K=2)
    with pytest.raises(ValidationError):
        RandomWalkSpec(0.5)
    with pytest.raises(ValidationError):
        RandomWalkSpec(0.5, K=2, N=3)
    with pytest.raises(ValidationError):
        RandomWalkSpec(0.5, N=1)


def test_fixed_walk_layout():
    problem = fixed_walk(0.3, 2, initial="1")
    assert problem.space.labels == ("0", "1", "2", "3")
    assert problem.boundary.killing_sets == (frozenset({"0", "3"}),)
    assert validate_problem(problem) == []
    Q = survivor_matrix_fixed(0.3, 2)
    np.testing.assert_allclose(Q, [[0.0, 0.7], [0.3, 0.0]])


def test_moving_walk_layout():
    problem = moving_walk(0.5, 3)
    assert problem.boundary.killing_sets[0] == frozenset({"0", "6"})
    assert problem.boundary.killing_sets[1] == frozenset({"0", "1", "5", "6"})
    P = problem.kernel.matrix
    interior = P[1:-1]
    np.testing.assert_allclose(interior.sum(axis=1), 1.0, atol=1e-15)
    assert validate_problem(problem) == []


def test_build_walk_dispatch():
    assert build_walk(RandomWalkSpec(0.5, K=4)).gamma == 1
    assert build_walk(RandomWalkSpec(0.5, N=4)).gamma == 2


def test_closed_form_eigenvalues_k5():
    system = closed_form_spectrum(0.5, 5)
    expected = np.cos(np.arange(1, 6) * np.pi / 6)
    np.testing.assert_allclose(system.eigenvalues, expected, atol=1e-15)


def test_closed_form_k2_perron_pair():
    system = closed_form_spectrum(0.5, 2)
    np.testing.assert_allclose(system.nu, [0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(system.xi, [1.0, 1.0], atol=1e-15)


def test_closed_form_eigenvectors_satisfy_eigen_equations():
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        for K in (1, 2, 7, 23):
            system = closed_form_spectrum(p, K)
            Q = survivor_matrix_fixed(p, K)
            for j in range(K):
                lam = system.eigenvalues[j]
                w = system.right_vectors[j]
                v = system.left_vectors[j]
                assert np.max(np.abs(Q @ w - lam * w)) <= 1e-10 * max(
                    1.0, np.max(np.abs(w))
                )
                assert np.max(np.abs(v @ Q - lam * v)) <= 1e-10 * max(
                    1.0, np.max(np.abs(v))
                )


def test_closed_form_perron_normalization_grid():
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        for K in (1, 5, 20, 50):
            system = closed_form_spectrum(p, K)
            assert np.all(system.nu > 0.0)
            assert np.all(system.xi > 0.0)
            assert system.nu.sum() == pytest.approx(1.0, rel=1e-12)
            assert system.nu @ system.xi == pytest.approx(1.0, rel=1e-12)


def test_closed_form_matches_dense_solver():
    # eigenvalues of the exactly similar symmetric tridiagonal matrix
    from scipy.linalg import eigh_tridiagonal

    for p in (0.2, 0.5, 0.8):
        for K in (10, 50):
            off = np.full(K - 1, np.sqrt(p * (1 - p)))
            numeric = np.sort(eigh_tridiagonal(np.zeros(K), off, eigvals_only=True))
            closed = np.sort(closed_form_spectrum(p, K).eigenvalues)
            assert np.max(np.abs(numeric - closed)) <= 1e-10


def test_characteristic_polynomial_matches_determinant():
    for p, K in ((0.4, 3), (0.7, 5)):
        x = np.linspace(-1, 1, 7)
        Q = survivor_matrix_fixed(p, K)
        dets = [np.linalg.det(Q - xi * np.eye(K)) for xi in x]
        np.testing.assert_allclose(char_poly_eval(p, K, x), dets, atol=1e-12)


def test_recursion_roots_match_closed_form():
    # bisection on the recursion evaluation, bracketed at half the gap
    for p in (0.3, 0.5, 0.9):
        for K in (5, 18, 30):
            closed = np.sort(closed_form_spectrum(p, K).eigenvalues)
            gaps = np.diff(closed)
            worst = 0.0
            for j, lam in enumerate(closed):
                delta = 0.49 * min(
                    gaps[j - 1] if j > 0 else np.inf,
                    gaps[j] if j < K - 1 else np.inf,
                )
                if not np.isfinite(delta):
                    delta = 0.1
                lo, hi = lam - delta, lam + delta
                flo = char_poly_eval(p, K, lo)
                assert flo * char_poly_eval(p, K, hi) < 0
                for _ in range(70):
                    mid = 0.5 * (lo + hi)
                    fmid = char_poly_eval(p, K, mid)
                    if flo * fmid <= 0:
                        hi = mid
                    else:
                        lo, flo = mid, fmid
                worst = max(worst, abs(0.5 * (lo + hi) - lam))
            assert worst <= 1e-9


def test_moving_walk_qed_n3_values():
    odd = moving_walk_qed(3, "odd")
    np.testing.assert_allclose(
        [odd.weights[str(s)] for s in range(1, 6)],
        [1 / 12, 1 / 4, 1 / 3, 1 / 4, 1 / 12],
        atol=1e-15,
    )
    even = moving_walk_qed(3, "even")
    np.testing.assert_allclose(
        [even.weights[str(s)] for s in (2, 3, 4)], [0.25, 0.5, 0.25], atol=1e-15
    )


def test_moving_walk_qed_rejects_degenerate():
    with pytest.raises(ValidationError):
        moving_walk_qed(2, "even")
    moving_walk_qed(2, "odd")  # fine


@pytest.mark.parametrize(
    "p, N, parity, message",
    [
        (0.45, 100, "Odd", "start_parity"),
        (0.45, 100, "bogus", "start_parity"),
        (0.45, 1, "even", "N must be at least 2"),
        (1.5, 100, "odd", "p must lie"),
        (0.45, 2, "even", "absorbed at the first step"),
    ],
    ids=["capitalised", "bogus", "N-1", "p-1.5", "even-N-2"],
)
def test_moving_walk_rho_checks_what_the_closed_forms_check(p, N, parity, message):
    for closed_form in (moving_walk_rho, qprocess_closed_form):
        with pytest.raises(ValidationError, match=message):
            closed_form(p, N, parity)


def test_lifted_class_sizes():
    for N in (3, 4, 5):
        lifted = lift_chain(moving_walk(0.5, N))
        from qergodic import decompose_classes

        dec = decompose_classes(lifted.survivor_matrix)
        sizes = sorted(c.size for c in dec.classes)
        assert sizes == [2 * N - 3, 2 * N - 1]


def test_moving_qed_pipeline_equals_closed_form():
    for N in (3, 4, 5):
        for p in (0.3, 0.5, 0.7):
            odd = qed_moving(moving_walk(p, N, initial="3"))
            assert odd.eta_distribution.tv_distance(
                moving_walk_qed(N, "odd")
            ) <= 1e-9
            even = qed_moving(moving_walk(p, N, initial="2"))
            assert even.eta_distribution.tv_distance(
                moving_walk_qed(N, "even")
            ) <= 1e-9
