"""Nearest-neighbour random walks: closed-form spectral data.

The walk steps down with probability p and up with probability 1-p.  For
a fixed killing boundary the survivor matrix is tridiagonal Toeplitz, so
its characteristic polynomials satisfy a two-term recursion that rescales
to Chebyshev polynomials of the second kind: the spectrum and both Perron
vectors are explicit sine profiles with a geometric tilt.  For the
2-periodic moving boundary (outer band at even times, one state wider on
each side at odd times) the lifted chain splits into two parity classes,
each again a walk, which yields closed forms for the mean-ratio limits
and the conditioned-forever kernel.  These formulas are the analytic
oracle the general pipeline is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import (
    AbsorbedChainProblem,
    Distribution,
    MovingBoundary,
    StateSpace,
    TransitionKernel,
)
from .errors import ValidationError
from .qprocess import PhaseSlice, QProcessKernel

__all__ = [
    "RandomWalkSpec",
    "ChebyshevEigenSystem",
    "build_walk",
    "fixed_walk",
    "moving_walk",
    "closed_form_spectrum",
    "moving_walk_qed",
    "moving_walk_rho",
    "qprocess_closed_form",
    "survivor_matrix_fixed",
]


@dataclass(frozen=True)
class RandomWalkSpec:
    """Down-step probability plus either a fixed interior size K or a
    moving-boundary half-width N."""

    p: float
    K: int | None = None
    N: int | None = None

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValidationError("p must lie strictly between 0 and 1")
        if (self.K is None) == (self.N is None):
            raise ValidationError("exactly one of K and N must be given")
        if self.K is not None and self.K < 1:
            raise ValidationError("K must be at least 1")
        if self.N is not None and self.N < 2:
            raise ValidationError("N must be at least 2")

    @property
    def moving(self) -> bool:
        return self.N is not None


def _walk_kernel(p: float, top: int) -> np.ndarray:
    """Kernel on {0..top}: interior states step +/-1, endpoints hold."""
    size = top + 1
    P = np.zeros((size, size))
    P[0, 0] = 1.0
    P[top, top] = 1.0
    for i in range(1, top):
        P[i, i - 1] = p
        P[i, i + 1] = 1.0 - p
    return P


def _as_initial(labels, initial) -> Distribution:
    if initial is None:
        return Distribution.uniform(labels)
    if isinstance(initial, Distribution):
        return initial
    if isinstance(initial, str):
        return Distribution.point_mass(initial)
    return Distribution(dict(initial))


def fixed_walk(p: float, K: int, initial=None) -> AbsorbedChainProblem:
    """Walk on {0..K+1} killed at the two endpoints, period 1.

    Everything outside the interior dies instantly, so the truncation to
    K+2 states leaves every conditioned law unchanged.
    """
    spec = RandomWalkSpec(p, K=K)
    space = StateSpace(tuple(str(i) for i in range(K + 2)))
    kernel = TransitionKernel(_walk_kernel(spec.p, K + 1))
    boundary = MovingBoundary(1, (frozenset({"0", str(K + 1)}),))
    interior = [str(i) for i in range(1, K + 1)]
    return AbsorbedChainProblem(space, kernel, boundary, _as_initial(interior, initial))


def moving_walk(p: float, N: int, initial=None) -> AbsorbedChainProblem:
    """Walk on {0..2N} with the 2-periodic boundary.

    Even times kill {0, 2N}; odd times kill {0, 1, 2N-1, 2N}.
    """
    spec = RandomWalkSpec(p, N=N)
    space = StateSpace(tuple(str(i) for i in range(2 * N + 1)))
    kernel = TransitionKernel(_walk_kernel(spec.p, 2 * N))
    even = frozenset({"0", str(2 * N)})
    odd = frozenset({"0", "1", str(2 * N - 1), str(2 * N)})
    boundary = MovingBoundary(2, (even, odd))
    interior = [str(i) for i in range(1, 2 * N)]
    return AbsorbedChainProblem(space, kernel, boundary, _as_initial(interior, initial))


def build_walk(spec: RandomWalkSpec, initial=None) -> AbsorbedChainProblem:
    if spec.moving:
        return moving_walk(spec.p, spec.N, initial)
    return fixed_walk(spec.p, spec.K, initial)


@dataclass(frozen=True, eq=False)
class ChebyshevEigenSystem:
    """Closed-form eigensystem of the K-state fixed-walk survivor matrix.

    ``eigenvalues[j-1] = 2 sqrt(p(1-p)) cos(j pi / (K+1))``.  Row j-1 of
    ``left_vectors`` / ``right_vectors`` is the eigenvector pair for that
    eigenvalue: sine profiles tilted by ``sqrt((1-p)/p)`` on the left and
    ``sqrt(p/(1-p))`` on the right.  ``nu`` and ``xi`` are the Perron
    pair normalized to ``sum(nu) = sum(nu * xi) = 1``; their product is
    the p-free profile ``sin^2(j pi/(K+1))``, normalized.
    """

    p: float
    K: int
    eigenvalues: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray
    nu: np.ndarray
    xi: np.ndarray


def survivor_matrix_fixed(p: float, K: int) -> np.ndarray:
    """Tridiagonal survivor matrix of the fixed walk: p below, 1-p above."""
    Q = np.zeros((K, K))
    for i in range(K):
        if i > 0:
            Q[i, i - 1] = p
        if i < K - 1:
            Q[i, i + 1] = 1.0 - p
    return Q


def closed_form_spectrum(p: float, K: int) -> ChebyshevEigenSystem:
    RandomWalkSpec(p, K=K)
    j = np.arange(1, K + 1)
    i = np.arange(1, K + 1)
    amplitude = 2.0 * np.sqrt(p * (1.0 - p))
    eigenvalues = amplitude * np.cos(j * np.pi / (K + 1))

    tilt = np.sqrt(p / (1.0 - p))
    sines = np.sin(np.outer(j, i) * np.pi / (K + 1))  # [j-1, i-1] = sin(ij pi/(K+1))
    left = (tilt ** -(i - 1.0))[None, :] * sines / np.sin(j * np.pi / (K + 1))[:, None]
    right = (tilt ** (i - 1.0))[None, :] * sines / np.sin(j * np.pi / (K + 1))[:, None]

    nu_raw = (tilt ** -(i - 1.0)) * np.sin(i * np.pi / (K + 1))
    nu = nu_raw / nu_raw.sum()
    xi_raw = (tilt ** (i - 1.0)) * np.sin(i * np.pi / (K + 1))
    xi = xi_raw / (nu @ xi_raw)
    return ChebyshevEigenSystem(p, K, eigenvalues, left, right, nu, xi)


def moving_walk_qed(N: int, start_parity: str) -> Distribution:
    """Mean-ratio limit for the 2-periodic moving walk, in closed form.

    A start on the even states can only ever die on the inner boundary,
    giving a limit on states 2..2N-2 with weights proportional to
    ``sin^2((s-1) pi / (2(N-1)))``; any other start leads to the outer
    boundary and weights ``sin^2(s pi / (2N))`` on states 1..2N-1.  The
    result does not depend on the step bias p.
    """
    _check_start(0.5, N, start_parity)  # any p: the limit is p-free
    if start_parity == "even":
        states = np.arange(2, 2 * N - 1)
        weights = np.sin((states - 1) * np.pi / (2.0 * (N - 1))) ** 2
    else:
        states = np.arange(1, 2 * N)
        weights = np.sin(states * np.pi / (2.0 * N)) ** 2
    weights = weights / weights.sum()
    return Distribution({str(s): float(w) for s, w in zip(states, weights)})


def _check_start(p: float, N: int, start_parity: str) -> None:
    """Raise ValidationError unless (p, N) is a moving walk and
    ``start_parity``, "even" or "odd", names a class that survives a step."""
    RandomWalkSpec(p, N=N)
    if start_parity not in ("even", "odd"):
        raise ValidationError("start_parity must be 'even' or 'odd'")
    if start_parity == "even" and N == 2:
        raise ValidationError("even start with N = 2 is absorbed at the first step")


def moving_walk_rho(p: float, N: int, start_parity: str) -> float:
    """Decay rate of the dominant parity class of the moving walk."""
    _check_start(p, N, start_parity)
    if start_parity == "even":
        return 2.0 * np.sqrt(p * (1.0 - p)) * np.cos(np.pi / (2.0 * (N - 1)))
    return 2.0 * np.sqrt(p * (1.0 - p)) * np.cos(np.pi / (2.0 * N))


def qprocess_closed_form(p: float, N: int, start_parity: str) -> QProcessKernel:
    """Conditioned-forever kernel of the moving walk, in closed form.

    On the parity class of the start, a step from y at time n-1 uses the
    band width ``K(y, n) = 2N - 1 + (-1)^(n+y)`` and moves to y +/- 1 with
    probability ``sin((y' - s) pi/K) / (2 sin((y - s) pi/K) cos(pi/K))``
    where ``s`` is 0 on the outer band and 1 on the inner band (the inner
    walk lives on 2..2N-2, one index in).  The tilt of the original walk
    cancels against the Perron reweighting, so the kernel is p-free; rows
    sum to 1 by the sine addition formula.
    """
    rho = moving_walk_rho(p, N, start_parity)  # checks p, N and the parity
    start_par = 0 if start_parity == "even" else 1

    def band_states(phase: int) -> list[int]:
        # class states at this phase: parity start_par + phase, inside the
        # band that survives the phase's killing set
        lo, hi = (1, 2 * N - 1) if phase % 2 == 0 else (2, 2 * N - 2)
        par = (start_par + phase) % 2
        return [y for y in range(lo, hi + 1) if y % 2 == par]

    slices = []
    for phase in range(2):
        rows = band_states(phase - 1)
        cols = band_states(phase)
        matrix = np.zeros((len(rows), len(cols)))
        for i, y in enumerate(rows):
            # n + y even on the outer band (width 2N), odd on the inner one
            width = 2 * N - 1 + (-1) ** (phase + y)
            shift = 0 if width == 2 * N else 1
            for j, z in enumerate(cols):
                if abs(z - y) != 1:
                    continue
                matrix[i, j] = np.sin((z - shift) * np.pi / width) / (
                    2.0 * np.sin((y - shift) * np.pi / width) * np.cos(np.pi / width)
                )
        slices.append(
            PhaseSlice(phase, tuple(str(y) for y in rows), tuple(str(z) for z in cols), matrix)
        )

    class_states = tuple(
        (str(y), phase) for phase in range(2) for y in band_states(phase)
    )
    deviation = max(
        float(np.max(np.abs(sl.matrix.sum(axis=1) - 1.0))) for sl in slices
    )
    return QProcessKernel(
        gamma=2,
        rho=float(rho),
        class_states=class_states,
        slices=tuple(slices),
        row_sum_deviation=deviation,
    )
