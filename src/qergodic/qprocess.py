"""The chain conditioned to survive forever.

Conditioning on surviving up to a horizon and letting the horizon grow
produces a time-inhomogeneous Markov chain on the dominant class: each
transition reweights the original kernel by the ratio of right Perron
values at the target and source lifted states, divided by the decay rate.
With a period-``gamma`` boundary the kernel family is ``gamma``-periodic,
so one slice per phase describes it completely; each slice is cut from
the class's CSR block of the lift and scaled by its right Perron vector.
The finite-horizon approximants divide survival vectors taken from one
sweep of the CSR survivor matrix, the same sweep as the exact oracle in
``conditioning``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import AbsorbedChainProblem, lift_chain
from .conditioning import _horizon, _survival_sweep
from .errors import NullEventError, ValidationError
from .qed import select_dominant

__all__ = [
    "PhaseSlice",
    "QProcessKernel",
    "build_qprocess",
    "build_qprocess_dominant",
    "finite_horizon_qlaw",
]


@dataclass(frozen=True, eq=False)
class PhaseSlice:
    """Transition matrix of the conditioned chain arriving at one phase.

    Rows are the class states alive at the previous phase, columns those
    alive at ``phase``; each row sums to 1.
    """

    phase: int
    row_states: tuple[str, ...]
    col_states: tuple[str, ...]
    matrix: np.ndarray


@dataclass(frozen=True, eq=False)
class QProcessKernel:
    """Periodic family of row-stochastic kernels of the conditioned chain.

    ``slices[n % gamma]`` governs the step arriving at time n.
    ``row_sum_deviation`` records the largest deviation from 1 observed
    before the exact renormalization of each slice.
    """

    gamma: int
    rho: float
    class_states: tuple[tuple[str, int], ...]
    slices: tuple[PhaseSlice, ...]
    row_sum_deviation: float

    def slice_for(self, n: int) -> PhaseSlice:
        return self.slices[n % self.gamma]

    def _check_start(self, x: str) -> None:
        """Raise ValidationError, naming ``x`` and the class, unless
        ``(x, 0)`` is a state of the kernel's class."""
        if (x, 0) not in self.class_states:
            raise ValidationError(
                f"state {x!r} at phase 0 is not in the kernel's class "
                f"{list(self.class_states)}"
            )

    def cylinder_probability(self, x: str, cylinder) -> float:
        """Probability that the conditioned chain follows the given states.

        ``cylinder[k-1]`` is the required state at time k; the product of
        kernel entries along the way, zero as soon as a transition leaves
        the class.  The chain starts at ``(x, 0)``, which must lie in the
        class; from a start upstream of it the conditioned laws need not
        converge and the kernel does not describe them, so such a start
        raises ValidationError naming ``x`` and the class.
        """
        self._check_start(x)
        prob = 1.0
        current = x
        for step, target in enumerate(cylinder, start=1):
            sl = self.slice_for(step)
            if current not in sl.row_states or target not in sl.col_states:
                return 0.0
            i, j = sl.row_states.index(current), sl.col_states.index(target)
            prob *= float(sl.matrix[i, j])
            if prob == 0.0:
                return 0.0
            current = target
        return prob


def _dominant_kernel(problem, lifted, mu) -> QProcessKernel:
    """Kernel on the dominant class that ``select_dominant`` picks for the
    lifted law ``mu``."""
    cls = select_dominant(lifted.decomposition, mu).selected(lifted.decomposition)
    gamma = lifted.gamma
    space = problem.space

    states = tuple(lifted.survivors[s] for s in cls.states)
    pos = list(cls.states)  # sorted, so phase-major like the lift
    phases, index, xi = lifted.phase[pos], lifted.state[pos], np.asarray(cls.xi)

    deviation = 0.0
    slices = []
    for phase in range(gamma):
        r, c = phases == (phase - 1) % gamma, phases == phase
        block = cls.submatrix[np.flatnonzero(r)][:, np.flatnonzero(c)].toarray()
        matrix = xi[c][None, :] * block / (cls.rho * xi[r][:, None])
        sums = matrix.sum(axis=1)
        deviation = max(deviation, float(np.max(np.abs(sums - 1.0))))
        matrix = np.clip(matrix, 0.0, None)
        matrix /= matrix.sum(axis=1)[:, None]
        rows, cols = (tuple(space.labels[i] for i in index[m]) for m in (r, c))
        slices.append(PhaseSlice(phase, rows, cols, matrix))

    return QProcessKernel(
        gamma=gamma,
        rho=float(cls.rho),
        class_states=states,
        slices=tuple(slices),
        row_sum_deviation=deviation,
    )


def build_qprocess(problem: AbsorbedChainProblem, x: str) -> QProcessKernel:
    """Kernel of the chain started at ``x`` and conditioned to live forever.

    ``x`` must survive phase 0; the kernel lives on the dominant class
    among those reachable from ``(x, 0)`` in the lifted chain, and every
    row sums to 1 by the Perron identity of the class (deviations beyond
    round-off are reported on the result before exact renormalization).
    """
    problem.space.index(x)
    lifted = lift_chain(problem)
    if (x, 0) not in lifted.survivor_index:
        raise ValidationError(
            f"state {x!r} is absorbed at phase 0; the conditioned "
            "chain is undefined from it"
        )
    mu = np.zeros(len(lifted.survivors))
    mu[lifted.survivor_index[(x, 0)]] = 1.0
    return _dominant_kernel(problem, lifted, mu)


def build_qprocess_dominant(problem: AbsorbedChainProblem) -> QProcessKernel:
    """Kernel on the dominant class reachable from the problem's initial law."""
    lifted = lift_chain(problem)
    return _dominant_kernel(problem, lifted, lifted.initial_vector)


def finite_horizon_qlaw(
    problem: AbsorbedChainProblem, x: str, cylinder, m: int
) -> float:
    """Exact probability of a state cylinder conditioned on a far horizon.

    Computes ``P_x(X_1 = c_1, ..., X_n = c_n | alive at m)`` from the
    survival vectors at horizons ``m - n`` and ``m`` of one survival sweep
    on the CSR survivor matrix; as the horizon m grows this converges to
    the conditioned-forever cylinder probability.
    """
    cylinder, m = list(cylinder), _horizon(m)
    n = len(cylinder)
    if m < n:
        raise ValueError("horizon must be at least the cylinder length")
    labels = [x, *cylinder]
    for label in labels:
        problem.space.index(label)  # an unknown label raises
    lifted = lift_chain(problem)
    # the lifted path; a step into the killing set has no survivor index
    path = [lifted.survivor_index.get((y, k % lifted.gamma)) for k, y in enumerate(labels)]
    if path[0] is None:
        raise ValidationError(f"state {x!r} is absorbed at phase 0")
    if None in path:
        return 0.0
    states = lifted.state[path]
    # left to right, as the chain takes the steps
    prefix = math.prod(problem.kernel.normalized[states[:-1], states[1:]].tolist())
    if prefix == 0.0:
        return 0.0

    rows = {m - n: path[-1], m: path[0]}
    read = {j: (V[rows[j], 0], e) for j, V, e in _survival_sweep(lifted, rows, [m])}
    (tail_value, tail_exponent), (denom, exponent) = read[m - n], read[m]
    if denom <= 0.0:
        raise NullEventError(
            f"survival to horizon {m} from {x!r} has probability 0"
        )
    return float(np.ldexp(prefix * tail_value / denom, tail_exponent - exponent))
