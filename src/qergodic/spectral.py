"""Class structure and Perron theory for substochastic matrices.

Given a nonnegative matrix with row sums at most one, this module finds
the communicating classes, and per class: the period, the cyclic classes,
the decay rate (Perron root) with its positive left/right vectors and a
Collatz-Wielandt bracket that certifies it, the full peripheral
eigensystem and the survival coefficient which prefixes the geometric
decay of the survival probability.

Conventions.  States are integer indices into the parent matrix, which
is read in CSR form (dense input is converted once, on entry).  For a
class of period ``T`` with cyclic classes ``C_0 .. C_{T-1}`` (the anchor,
the smallest state index in the class, sits in ``C_0``), one step of the
chain maps ``C_i`` into ``C_{i+1 mod T}``.  The left Perron vector ``nu``
sums to 1 over the class and the right vector ``xi`` is scaled so that
``sum(nu * xi) = 1``.  Peripheral eigenvectors come from ``nu``/``xi`` by
a phase twist per cyclic class and satisfy ``v_k Q = lambda_k v_k`` and
``Q w_k = lambda_k w_k`` as plain (unconjugated) products.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import ConvergenceError, NullEventError, ValidationError

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "IrreducibleClass",
    "ClassDecomposition",
    "PeripheralSystem",
    "EigenProjectionReport",
    "decompose_classes",
    "perron_data",
    "peripheral_system",
    "survival_coefficient",
    "verify_eigenprojection",
    "spectral_radius",
]

# From a flat start Noda spends a solve per 2.5-3 e-folds of spread in the
# Perron vector before it turns quadratic (64 solves on the moving walk at
# N=800, p=0.45), so 300 cover any spread a float64 vector can hold.
_NODA_MAX_STEPS = 300
_BRACKET_RTOL = 1e-10
RHO_TIE_RTOL = 1e-9  # class decay rates this close, relative, tie for the largest


class _Perron(NamedTuple):
    rho: float
    nu: np.ndarray
    xi: np.ndarray
    nu_residual: float
    xi_residual: float
    rho_bracket: tuple[float, float]


@dataclass(frozen=True, eq=False)
class IrreducibleClass:
    """One communicating class with its Perron data.

    ``states`` are parent-matrix indices in increasing order; ``cyclic``,
    ``nu``, ``xi`` and the CSR ``submatrix`` are indexed by position
    within ``states``, and ``cyclic[p]`` is the cyclic class of position
    p.  A transient singleton without a self-loop gets ``rho = 0``,
    period 1 and trivial vectors.  ``rho_bracket`` holds Collatz-Wielandt
    bounds ``lo <= rho <= hi``, ``(0.0, 0.0)`` for a transient singleton.
    The period and cyclic classes are found on construction; ``rho``,
    ``nu``, ``xi``, their residuals and ``rho_bracket`` are solved
    together the first time one of them is read, and kept, so a class
    that no caller reads costs no Perron solve.
    """

    states: tuple[int, ...]
    period: int
    cyclic: np.ndarray
    submatrix: sparse.csr_array

    @cached_property
    def _perron(self) -> _Perron:
        return _perron_solve(self)

    rho = property(attrgetter("_perron.rho"))
    nu = property(attrgetter("_perron.nu"))
    xi = property(attrgetter("_perron.xi"))
    nu_residual = property(attrgetter("_perron.nu_residual"))
    xi_residual = property(attrgetter("_perron.xi_residual"))
    rho_bracket = property(attrgetter("_perron.rho_bracket"))

    @cached_property
    def _position(self) -> dict[int, int]:
        return {s: i for i, s in enumerate(self.states)}

    @cached_property
    def cyclic_classes(self) -> tuple[tuple[int, ...], ...]:
        """The states of ``C_0 .. C_{T-1}``, each in increasing order."""
        states = np.asarray(self.states)
        return tuple(
            tuple(states[self.cyclic == j].tolist()) for j in range(self.period)
        )

    @property
    def size(self) -> int:
        return len(self.states)

    def position(self, state: int) -> int:
        try:
            return self._position[state]
        except KeyError:
            raise ValidationError(f"state {state} is not in this class") from None

    def cyclic_index(self, state: int) -> int:
        return int(self.cyclic[self.position(state)])

    @cached_property
    def nu_cyclic_mass(self) -> np.ndarray:
        """Total ``nu`` mass per cyclic class."""
        return np.bincount(self.cyclic, self.nu, self.period)


class _Singleton(IrreducibleClass):
    """A class of one state, made from its diagonal entry ``loop`` with no
    scipy object: period 1, the 1 x 1 ``submatrix`` built on first read,
    and the Perron data that Noda's iteration returns on ``[[loop]]``:
    ``rho = loop``, unit vectors, zero residuals and the bracket
    ``(loop, loop)``, which is 0 for a transient state."""

    def __init__(self, state: int, loop: float):
        self.__dict__.update(states=(state,), period=1, cyclic=np.zeros(1, dtype=int), loop=loop)

    @cached_property
    def submatrix(self) -> sparse.csr_array:
        from scipy import sparse

        return sparse.csr_array(np.array([[self.loop]]))

    @cached_property
    def _perron(self) -> _Perron:
        return _Perron(self.loop, np.ones(1), np.ones(1), 0.0, 0.0, (self.loop, self.loop))


@dataclass(frozen=True, eq=False)
class ClassDecomposition:
    """Partition of the states of a substochastic matrix into classes.

    Classes are ordered by their smallest contained state index, and
    ``class_of[s]`` is the class of state s.  ``graph``, the C x C CSR
    condensation, has ``graph[a, b] = 1`` exactly when a state of class a
    moves directly into class b != a; it answers all reachability queries.
    ``matrix``, the decomposed matrix in CSR form, feeds :meth:`extend`.
    """

    classes: tuple[IrreducibleClass, ...]
    class_of: np.ndarray
    graph: sparse.csr_array
    matrix: sparse.csr_array

    def reachable_from(self, class_ids, reverse: bool = False) -> set[int]:
        """Classes reachable from the given ones, or with ``reverse`` those
        that reach them, excluding the given ones: one breadth-first search
        on ``graph`` (``graph.T``) from a virtual source C wired to each."""
        from scipy import sparse
        from scipy.sparse.csgraph import breadth_first_order

        start, C = np.unique(np.fromiter(class_ids, int)), len(self.classes)
        graph = self.graph.T.tocsr() if reverse else self.graph
        nnz = graph.nnz + start.size
        indices, indptr = np.append(graph.indices, start), np.append(graph.indptr, nnz)
        rooted = sparse.csr_array((np.ones(nnz), indices, indptr), shape=(C + 1, C + 1))
        found = breadth_first_order(rooted, C, return_predecessors=False)
        return set(found[1:].tolist()) - set(start.tolist())

    def dominant_classes(self, class_ids) -> tuple[set[int], list[int]]:
        """The one dominant-class rule (Darroch & Seneta, J. Appl. Prob. 2,
        1965): the live classes, ``class_ids`` and every class they reach,
        and, sorted, the live classes whose decay rate ties, within
        ``RHO_TIE_RTOL`` relative, for the largest live one.  Raises
        NullEventError when that largest rate is 0."""
        start = {int(i) for i in class_ids}
        live = start | self.reachable_from(start)
        rho_max = max(self.classes[i].rho for i in live)
        if rho_max <= 0.0:
            raise NullEventError(
                "no class reachable from the initial law survives forever"
            )
        floor = rho_max * (1.0 - RHO_TIE_RTOL)
        return live, [i for i in sorted(live) if self.classes[i].rho >= floor]

    def extend(self, i: int, V: np.ndarray, ancestors=None) -> None:
        """Extend class i's cyclic rows ``V`` (rows j mod ``len(V)``) in
        place: left laws onto every class i reaches, ``rho V_{j+1} = V_j Q``,
        or right vectors, zero on the ``ancestors`` given, onto those, ``rho
        V_j = Q V_{j+1}``; nonsingular when they decay faster than class i."""
        from scipy import sparse
        from scipy.sparse.linalg import spsolve

        Q, left = self.matrix, ancestors is None
        targets = self.reachable_from({i}) if left else ancestors
        S = np.flatnonzero(np.isin(self.class_of, list(targets)))
        if S.size:  # X_j = V_j on S: rho X_j - A X_{j-1} (left), A X_{j+1} (right) = B_j
            A = Q[S][:, S].T if left else Q[S][:, S]
            B = np.roll(V, 1, axis=0) @ Q[:, S] if left else np.roll(V, -1, axis=0) @ Q[S].T
            cyclic = sparse.kron(np.roll(np.eye(len(V)), -1 if left else 1, axis=1), A)
            M = sparse.csc_matrix(self.classes[i].rho * sparse.identity(B.size) - cyclic)
            # SuperLU's COLAMD order took 13 s, natural 0.5 s, on qld_cycle(ladder_chain(2000))
            V[:, S] = spsolve(M, B.ravel(), permc_spec="NATURAL").reshape(B.shape)


@dataclass(frozen=True, eq=False)
class PeripheralSystem:
    """Eigenpairs of maximal modulus for a periodic class.

    ``lambdas[k] = rho * exp(2i pi k / T)``; row ``k`` of ``left_vectors``
    (resp. ``right_vectors``) is the left (right) eigenvector for
    ``lambdas[k]`` over the class states.
    """

    lambdas: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray
    left_residual: float
    right_residual: float


@dataclass(frozen=True, eq=False)
class EigenProjectionReport:
    """Coefficients of a point mass on the peripheral left-eigenspace.

    ``alpha`` solves the Gram system of the peripheral left eigenvectors;
    ``gram_residual`` is ``max_k |alpha_k - w_k(x)|``.  The Gram solve
    agrees with the spectral coefficients only when the orthogonal
    complement of the peripheral span is invariant (e.g. symmetric class
    matrices); ``projection_residual`` checks the invariant-complement
    property directly and is small for every class: it is
    ``max_l |(delta_x - sum_k w_k(x) v_k) . w_l|``.
    """

    state: int
    alpha: np.ndarray
    w_values: np.ndarray
    gram_residual: float
    projection_residual: float


def _noda(A: np.ndarray, x: np.ndarray | None = None) -> tuple[np.ndarray, float, float]:
    """Perron vector of an irreducible nonnegative matrix, with its bracket.

    Noda's iteration ``x <- (theta I - A)^{-1} x`` with the upper bound
    ``theta = max(Ax/x)`` of the Perron root keeps ``x`` positive and
    converges quadratically (Elsner, LAA 15, 1976).  It works on
    ``D^{-1} A D`` with ``D = diag(x)``, whose row sums are ``Ax/x``, so
    entries of ``x`` far apart in magnitude keep their relative accuracy.
    Returns the iterate with the narrowest Collatz-Wielandt bracket
    ``min(Ax/x) <= rho <= max(Ax/x)``, once that closes to a few ulps or
    stops narrowing below ``_BRACKET_RTOL`` relative width.  It starts
    from ``x`` when that is finite and positive, else flat; a start whose
    bracket is open and whose first solve is singular (its ``max(Ax/x)``
    is rho to working precision) was never polished by a solve, and the
    run starts again flat.
    """
    n = A.shape[0]
    warm = x is not None and bool(np.isfinite(x).all() and (x > 0.0).all())
    x = x / x.max() if warm else np.ones(n)
    x /= x.sum()
    best = (x, -np.inf, np.inf)
    for solves in range(_NODA_MAX_STEPS + 1):
        # an entry that under- or overflowed makes Ax/x 0/0: stop before it
        if solves == _NODA_MAX_STEPS or not (x.all() and np.isfinite(x).all()):
            break
        B = A * x / x[:, None]
        ratio = B.sum(axis=1)
        lo, hi = float(ratio.min()), float(ratio.max())
        if hi - lo < best[2] - best[1]:
            best = (x, lo, hi)
        elif best[2] - best[1] <= _BRACKET_RTOL * best[2]:
            break
        if hi - lo <= 4.0 * np.spacing(hi):
            break
        try:
            x = x * np.linalg.solve(hi * np.eye(n) - B, np.ones(n))
        except np.linalg.LinAlgError:  # hi is rho to working precision
            if warm and solves == 0:
                return _noda(A)
            break
        x /= x.sum()
    x, lo, hi = best
    if not hi - lo <= _BRACKET_RTOL * hi:
        raise ConvergenceError(
            f"Noda iteration left the Perron bracket [{lo:.17g}, {hi:.17g}] "
            f"wider than {_BRACKET_RTOL:g} relative after {solves} solves",
            residual=(hi - lo) / hi,
        )
    return x, lo, hi


def _left_start(A: np.ndarray, right: np.ndarray, hi: float) -> np.ndarray | None:
    """A start for Noda's run on ``A.T``: one step of inverse iteration
    on the right run's last system, ``(hi I - D^{-1} A D)^T z = 1`` with
    ``D = diag(right)``.  With ``hi`` a few ulps above rho it converges in
    that step (Peters & Wilkinson, SIAM Rev. 21, 1979), and ``z / right``
    is then the left Perron vector of ``A``; None when the system is
    singular, and :func:`_noda` starts flat from a start that is not
    finite and positive."""
    n = A.shape[0]
    try:
        z = np.linalg.solve((hi * np.eye(n) - A * right / right[:, None]).T, np.ones(n))
    except np.linalg.LinAlgError:
        return None
    return z / right


def _relative_residual(vec: np.ndarray, image: np.ndarray, lam) -> float:
    scale = max(np.max(np.abs(vec)), 1e-300)
    return float(np.max(np.abs(image - lam * vec)) / scale)


def _as_csr(Q) -> sparse.csr_array:
    from scipy import sparse

    Q = sparse.csr_array(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {Q.shape}")
    return Q


def _class_data(sub: sparse.csr_array, states: tuple[int, ...]) -> IrreducibleClass:
    """Period and cyclic classes of the class ``states`` with one-step CSR
    block ``sub``, whose positive pattern the callers have found strongly
    connected.  Its Perron data is left to :func:`_perron_solve`."""
    from scipy.sparse.csgraph import shortest_path

    if len(states) == 1:
        return _Singleton(states[0], float(sub.sum()))

    graph = sub > 0.0
    # Phase BFS from the anchor; each edge u -> v closes a cycle of length
    # dist(u) + 1 - dist(v) through the anchor, and the period divides all
    # of them.
    dist = shortest_path(graph, unweighted=True, indices=0).astype(int)
    rows, cols = graph.nonzero()
    period = int(np.gcd.reduce(dist[rows] + 1 - dist[cols]))
    return IrreducibleClass(states, period, dist % period, sub)


def _perron_solve(cls: IrreducibleClass) -> _Perron:
    """Perron data of a class of two or more states, as :func:`perron_data`
    describes it: the T-step block is formed from the CSR one-step blocks,
    which also carry ``nu`` and ``xi`` around the cyclic classes, and the
    left Noda run starts from :func:`_left_start`."""
    sub, period, cyclic = cls.submatrix, cls.period, cls.cyclic
    n = cls.size
    cyclic_local = [np.flatnonzero(cyclic == j) for j in range(period)]

    # T-step matrix on C_0, primitive, made from the right: B_0 @ (B_1 @ ...
    # B_{T-1}) with CSR blocks and one dense factor.  Dense solves on it beat
    # a sparse LU of the one-step class matrix, which fills in (250k L+U
    # nonzeros from 3,962 on 1,102 states, T=5).
    blocks = [
        sub[cyclic_local[j]][:, cyclic_local[(j + 1) % period]]
        for j in range(period)
    ]
    t_step = blocks[-1].toarray()
    for b in blocks[-2::-1]:
        t_step = b @ t_step
    right0, lo_r, hi_r = _noda(t_step)
    left0, lo_l, hi_l = _noda(t_step.T, _left_start(t_step, right0, hi_r))
    theta = (left0 @ t_step @ right0) / (left0 @ right0)
    root = 1.0 / period
    rho = float(theta) ** root
    rho_bracket = (min(lo_r, lo_l) ** root, max(hi_r, hi_l) ** root)

    nu = np.zeros(n)
    xi = np.zeros(n)
    nu[cyclic_local[0]] = left0
    for j in range(period - 1):
        nu[cyclic_local[j + 1]] = nu[cyclic_local[j]] @ blocks[j] / rho
    xi[cyclic_local[0]] = right0
    for j in range(period - 1, 0, -1):
        xi[cyclic_local[j]] = blocks[j] @ xi[cyclic_local[(j + 1) % period]] / rho

    nu /= nu.sum()
    xi /= nu @ xi

    nu_res = _relative_residual(nu, nu @ sub, rho)
    xi_res = _relative_residual(xi, sub @ xi, rho)
    return _Perron(rho, nu, xi, nu_res, xi_res, rho_bracket)


def perron_data(Q, states) -> IrreducibleClass:
    """Period, cyclic classes and Perron data for one communicating class.

    ``Q``, dense or sparse, is converted to CSR once.  The period is the
    gcd of directed cycle lengths through the anchor (the smallest state
    index), obtained from a BFS phase labelling.  The T-step matrix
    restricted to ``C_0`` is primitive; Noda's iteration gives its right
    Perron vector and, run again on the transpose from one step of inverse
    iteration on the right run's last system, its left one, each with a
    Collatz-Wielandt bracket of its Perron root.  ``rho`` is the T-th
    root of their Rayleigh quotient, ``rho_bracket`` the T-th roots of the
    hull of both brackets, and the one-step blocks carry both vectors
    around the other cyclic classes.  This is where states from outside
    meet the class code: raises ValidationError unless the positive pattern
    on ``states`` is strongly connected, and ConvergenceError if a bracket
    cannot be narrowed to ``_BRACKET_RTOL``.  Unlike the classes of
    :func:`decompose_classes`, the returned class has its Perron data
    solved before it is returned.
    """
    from scipy.sparse.csgraph import connected_components

    Q = _as_csr(Q)
    states = tuple(sorted(int(s) for s in states))
    idx = np.array(states, dtype=int)
    sub = Q[idx][:, idx]
    if connected_components(sub > 0.0, directed=True, connection="strong")[0] != 1:
        raise ValidationError("the given states do not form an irreducible class")
    cls = _class_data(sub, states)
    cls._perron  # solved here, not on first read
    return cls


def decompose_classes(Q) -> ClassDecomposition:
    """Strongly-connected-component partition of the positive pattern.

    ``Q``, dense or sparse, is converted to CSR once.  Classes come back
    ordered by smallest contained state index, each with its period and
    cyclic classes; the blocks of classes of two or more states are cut
    from one class-ordered permutation of ``Q``, and the one-state classes
    are made in bulk from its diagonal, with no block cut (a 1 x 1 CSR
    slice costs tens of microseconds, and a long transient chain has
    thousands of them).  ``graph`` joins the classes; ``matrix`` keeps ``Q``.
    Each class solves its Perron data the first time it is read, so a
    caller pays only for the classes it reads: the dominant-class rule
    reads ``rho`` on the classes the start reaches, and QED and the
    q-process read ``nu`` and ``xi`` on the selected class alone.
    """
    from scipy import sparse
    from scipy.sparse.csgraph import connected_components

    Q = _as_csr(Q)
    positive = Q > 0.0
    C, raw = connected_components(positive, directed=True, connection="strong")
    _, first = np.unique(raw, return_index=True)
    class_of = np.argsort(np.argsort(first))[raw]  # numbered by smallest state

    order = np.argsort(class_of, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(class_of))))
    permuted = Q[order][:, order]
    states, loops = order.tolist(), permuted.diagonal().tolist()
    classes = tuple(
        _Singleton(states[lo], loops[lo]) if hi - lo == 1
        else _class_data(permuted[lo:hi, lo:hi], tuple(states[lo:hi]))
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())
    )

    rows, cols = positive.nonzero()
    pairs = np.unique(class_of[rows] * C + class_of[cols])  # a -> b as a * C + b
    pairs = pairs[pairs // C != pairs % C]
    graph = sparse.csr_array((np.ones(pairs.size), divmod(pairs, C)), shape=(C, C))
    return ClassDecomposition(classes, class_of, graph, Q)


def peripheral_system(cls: IrreducibleClass) -> PeripheralSystem:
    """All eigenpairs of modulus ``rho`` of a periodic class.

    For ``k = 0 .. T-1`` the eigenvalue is ``rho e^{2i pi k/T}`` and the
    eigenvectors are the Perron pair twisted by the cyclic-class phase:
    on ``C_j`` the left vector picks the factor ``e^{-2i pi jk/T}`` and
    the right vector the conjugate factor.
    """
    T = cls.period
    lambdas = cls.rho * np.exp(2j * np.pi * np.arange(T) / T)
    phase = 2.0 * np.pi * cls.cyclic * np.arange(T)[:, None] / T  # row k
    left = np.exp(-1j * phase) * cls.nu
    right = np.exp(1j * phase) * cls.xi
    sub = cls.submatrix
    left_res = max(
        (_relative_residual(left[k], left[k] @ sub, lambdas[k]) for k in range(T)),
        default=0.0,
    )
    right_res = max(
        (_relative_residual(right[k], sub @ right[k], lambdas[k]) for k in range(T)),
        default=0.0,
    )
    return PeripheralSystem(lambdas, left, right, left_res, right_res)


def survival_coefficient(cls: IrreducibleClass, state: int, n: int) -> float:
    """Prefactor of ``rho^n`` in the survival probability from ``state``.

    With ``state`` in cyclic class ``C_k``, the probability of surviving
    ``n`` steps is ``c_n(state) * rho^n + o(rho^n)`` where
    ``c_n(state) = T * xi(state) * nu(C_{(n+k) mod T})``; the coefficient
    is strictly positive for every ``n``.
    """
    pos = cls.position(state)
    k = cls.cyclic_index(state)
    T = cls.period
    return float(T * cls.xi[pos] * cls.nu_cyclic_mass[(n + k) % T])


def verify_eigenprojection(cls: IrreducibleClass, state: int) -> EigenProjectionReport:
    """Expand a point mass over the peripheral left eigenvectors.

    Solves the Gram system of the peripheral left eigenvectors for the
    orthogonal-projection coefficients of ``delta_state`` and compares
    them with the right-eigenvector values ``w_k(state)``; also reports
    how far the remainder is from being annihilated by the right
    eigenvectors (the projection identity the decay expansion rests on).
    """
    system = peripheral_system(cls)
    V = system.left_vectors
    W = system.right_vectors
    T = cls.period
    pos = cls.position(state)

    # Gram system: b_m = <delta_x, v_m> = sum_l conj(alpha_l) <v_l, v_m>,
    # with <u, v> = sum conj(u_i) v_i.
    H = V.conj() @ V.T  # H[a, b] = <v_a, v_b>
    b = V[:, pos].copy()
    alpha = np.conj(np.linalg.solve(H.T, b))
    w_values = W[:, pos].copy()
    gram_residual = float(np.max(np.abs(alpha - w_values)))

    delta = np.zeros(cls.size, dtype=complex)
    delta[pos] = 1.0
    remainder = delta - w_values @ V
    projection_residual = float(
        max(abs(complex(remainder @ W[l])) for l in range(T))
    )
    return EigenProjectionReport(
        state=state,
        alpha=alpha,
        w_values=w_values,
        gram_residual=gram_residual,
        projection_residual=projection_residual,
    )


def spectral_radius(Q) -> float:
    """Spectral radius of a nonnegative matrix via its class structure.

    Equals the largest class Perron root, so a reducible matrix, which
    may have no positive Perron vector, is handled class by class.
    """
    decomposition = decompose_classes(Q)
    return max((c.rho for c in decomposition.classes), default=0.0)
