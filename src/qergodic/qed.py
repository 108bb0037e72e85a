"""Quasi-ergodic (mean-ratio) distributions for fixed and moving boundaries.

Among the communicating classes reachable from the initial law, the one
with the largest decay rate governs the long-run conditioned time
averages, provided it is unique.  Its mean-ratio distribution weights
each state by the product of the left and right Perron vectors; for a
moving boundary the computation runs on the lifted chain and the phase
coordinate is summed out at the end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import AbsorbedChainProblem, Distribution, LiftedChain, _check_weights, lift_chain
from .conditioning import state_function
from .errors import Hypothesis1Error, ValidationError
from .spectral import ClassDecomposition, IrreducibleClass
from .spectral import decompose_classes

__all__ = [
    "ClassSelection",
    "QedResult",
    "select_dominant",
    "qed_fixed",
    "qed_moving",
]


@dataclass(frozen=True, eq=False)
class ClassSelection:
    """Outcome of picking the dominant class for an initial law.

    ``charged`` lists the classes meeting the support of the law and
    ``selected_index`` the class with the largest decay rate ``rho_max``
    among those reachable from the law; a tie for it raises in
    :func:`select_dominant`.  ``warnings`` is kept for its readers and is
    always empty.
    """

    charged: tuple[int, ...]
    rho_max: float
    selected_index: int
    warnings: tuple[str, ...]

    def selected(self, decomposition: ClassDecomposition) -> IrreducibleClass:
        return decomposition.classes[self.selected_index]


def select_dominant(decomposition: ClassDecomposition, mu: np.ndarray) -> ClassSelection:
    """Pick the class with the largest decay rate among those reachable from mu.

    The candidates are the classes mu charges and every class they reach,
    as :meth:`ClassDecomposition.dominant_classes` rules.  A tie within
    ``RHO_TIE_RTOL`` (relative) is an error: the limit theorems do not
    apply and choosing silently would fabricate an answer.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.shape != decomposition.class_of.shape:
        raise ValidationError(
            "initial law must be a vector over the matrix states"
        )
    _check_weights(mu)
    if mu.sum() <= 0.0:
        raise ValidationError("initial law must be nonnegative with positive mass")

    charged = tuple(np.unique(decomposition.class_of[mu > 0.0]).tolist())
    _, tied = decomposition.dominant_classes(charged)
    if len(tied) > 1:
        names = "; ".join(
            f"class {i} with states {decomposition.classes[i].states} "
            f"(rho={decomposition.classes[i].rho:.12g})"
            for i in tied
        )
        raise Hypothesis1Error(
            f"dominant class is not unique, {len(tied)} classes tie for "
            f"the maximal decay rate: {names}",
            tied,
        )
    rho_max = float(decomposition.classes[tied[0]].rho)
    return ClassSelection(charged, rho_max, tied[0], warnings=())


@dataclass(frozen=True, eq=False)
class QedResult:
    """Mean-ratio distribution and the limit value of the time average."""

    decomposition: ClassDecomposition
    selection: ClassSelection
    eta: np.ndarray
    eta_distribution: Distribution
    phi: float | None
    lifted: LiftedChain | None = None

    @property
    def rho(self) -> float:
        return self.selection.rho_max


def _eta_on_class(cls: IrreducibleClass, n_states: int) -> np.ndarray:
    eta = np.zeros(n_states)
    eta[list(cls.states)] = cls.nu * cls.xi
    return eta


def qed_fixed(
    Q,
    mu: np.ndarray,
    f: np.ndarray | None = None,
    labels=None,
) -> QedResult:
    """Mean-ratio distribution of a fixed-boundary survivor matrix ``Q``,
    dense or sparse.

    ``eta`` weights state i of the dominant class by ``nu(i) * xi(i)``
    (zero elsewhere); the conditioned time average of ``f`` converges to
    ``sum(f * eta)``.  ``labels`` name the states of ``eta_distribution``,
    one distinct label each (default ``"0", "1", ...``).
    """
    decomposition = decompose_classes(Q)
    n = decomposition.class_of.size
    labels = tuple(str(i) for i in range(n)) if labels is None else tuple(labels)
    if len(set(labels)) != len(labels) or len(labels) != n:
        raise ValidationError(
            f"labels must name the {n} states once each, got {len(labels)} "
            f"labels of which {len(set(labels))} distinct"
        )
    selection = select_dominant(decomposition, mu)
    cls = selection.selected(decomposition)
    eta = _eta_on_class(cls, n)
    dist = Distribution(
        {lab: float(w) for lab, w in zip(labels, eta) if w != 0.0}
    )
    phi = None
    if f is not None:
        f = np.asarray(f, dtype=float)
        if f.shape != (n,):
            raise ValidationError("f must have one value per matrix state")
        phi = float(f @ eta)
    return QedResult(decomposition, selection, eta, dist, phi)


def qed_moving(problem: AbsorbedChainProblem, f=None) -> QedResult:
    """Mean-ratio distribution of a moving-boundary problem.

    Runs the fixed-boundary analysis on the lifted chain started from the
    initial law at phase 0, then sums the phase coordinate out of the
    lifted mean-ratio weights.  The limit value is the ``eta``-average of
    ``f`` read on the original states.
    """
    fvec = None if f is None else state_function(problem, f)
    lifted = lift_chain(problem)
    decomposition = lifted.decomposition
    selection = select_dominant(decomposition, lifted.initial_vector)
    cls = selection.selected(decomposition)
    eta_lifted = _eta_on_class(cls, len(lifted.survivors))
    marginal = np.bincount(lifted.state, eta_lifted, problem.space.size)
    dist = Distribution.from_array(problem.space, marginal)
    phi = None if fvec is None else float(fvec @ marginal)
    return QedResult(decomposition, selection, eta_lifted, dist, phi, lifted)
