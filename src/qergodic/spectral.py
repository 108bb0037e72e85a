"""Class structure and Perron theory for substochastic matrices.

Given a nonnegative matrix with row sums at most one, this module finds
the communicating classes, and per class: the period, the cyclic classes,
the decay rate (Perron root) with its positive left/right vectors and a
Collatz-Wielandt bracket that certifies it, the full peripheral
eigensystem and the survival coefficient which prefixes the geometric
decay of the survival probability.

The Perron data come from Noda's iteration on each class's T-step block.
A log potential taken along a spanning tree of the class's two-way edges
scales the block when that narrows the first Collatz-Wielandt bracket;
it makes the block of a reversible class symmetric.  Each step is solved
by a sparse LU when the factor's fill, bounded by the block's envelope,
stays within n^2 / 8, else by a dense one.

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
# N=800, p=0.45), so 300 cover any spread a float64 vector can hold.  The
# tree potential of _perron_solve leaves the walk little spread to cover
# (5 solves at N=800), but a block it does not fit starts flat.
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

    def _class_ids(self, class_ids) -> np.ndarray:
        """The distinct ids, sorted; raises ValidationError unless each is
        an integer in ``range(len(classes))``."""
        C = len(self.classes)
        ids = np.asarray(class_ids if isinstance(class_ids, np.ndarray) else list(class_ids))
        if ids.size and (ids.dtype.kind not in "iu" or ids.min() < 0 or ids.max() >= C):
            raise ValidationError(f"class ids must be integers in range({C}), got {ids.tolist()}")
        return np.unique(ids.astype(int))

    def reachable_from(self, class_ids, reverse: bool = False) -> set[int]:
        """Classes reachable from the given ones, or with ``reverse`` those
        that reach them, excluding the given ones: one breadth-first search
        on ``graph`` (``graph.T``) from a virtual source C wired to each.
        Raises ValidationError for an id that names no class."""
        from scipy import sparse
        from scipy.sparse.csgraph import breadth_first_order

        start, C = self._class_ids(class_ids), len(self.classes)
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
        NullEventError when that largest rate is 0, and ValidationError
        for an id that names no class."""
        start = self._class_ids(class_ids)
        live = set(start.tolist()) | self.reachable_from(start)
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
        V_j = Q V_{j+1}``, by one :func:`_solve`; nonsingular when they
        decay faster than class i.  Raises ValidationError for an id that
        names no class."""
        from scipy import sparse

        Q, left = self.matrix, ancestors is None
        (i,) = self._class_ids([i]).tolist()
        targets = list(self.reachable_from({i})) if left else self._class_ids(ancestors)
        S = np.flatnonzero(np.isin(self.class_of, targets))
        if S.size:  # X_j = V_j on S: rho X_j - A X_{j-1} (left), A X_{j+1} (right) = B_j
            A = Q[S][:, S].T if left else Q[S][:, S]
            B = np.roll(V, 1, axis=0) @ Q[:, S] if left else np.roll(V, -1, axis=0) @ Q[S].T
            cyclic = sparse.kron(np.roll(np.eye(len(V)), -1 if left else 1, axis=1), A)
            M = sparse.csc_array(self.classes[i].rho * sparse.identity(B.size) - cyclic)
            V[:, S] = _solve(M, rhs=B.ravel()).reshape(B.shape)


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


def _major(A: sparse.csr_array | sparse.csc_array) -> np.ndarray:
    """The row (CSR) or column (CSC) of each stored entry."""
    return np.repeat(np.arange(A.indptr.size - 1), np.diff(A.indptr))


def _shifted(A, x: np.ndarray, hi: float | None = None):
    """``(lo, hi, M)`` for a block ``A`` at a positive ``x``: the
    Collatz-Wielandt bounds ``lo = min(Ax/x)`` and ``hi = max(Ax/x)``
    (``hi`` as given, when it is), and ``M = hi I - D^{-1} A D`` with
    ``D = diag(x)``, whose row sums are ``hi - Ax/x``.  ``A`` is dense, or
    CSC with every diagonal entry stored (see :func:`_t_step`), and ``M``
    takes its form: in CSC only ``A``'s entries are scaled."""
    n = A.shape[0]
    if isinstance(A, np.ndarray):
        B = A * x / x[:, None]
        ratio = B.sum(axis=1)
        hi = float(ratio.max()) if hi is None else hi
        return float(ratio.min()), hi, hi * np.eye(n) - B
    from scipy import sparse

    ratio = A @ x / x
    hi = float(ratio.max()) if hi is None else hi
    cols = _major(A)
    data = -A.data * x[cols] / x[A.indices]
    data[A.indices == cols] += hi
    return float(ratio.min()), hi, sparse.csc_array((data, A.indices, A.indptr), A.shape)


def _solve(M, transpose: bool = False, rhs: np.ndarray | None = None) -> np.ndarray:
    """``M^{-1} b``, or with ``transpose`` ``M^{-T} b``, for ``b = rhs``
    (all ones when not given): the library's one linear solve.  Every
    ``M`` it is given is an M-matrix: Noda's ``hi I - B`` and
    :func:`_left_start`'s transpose, the lifetime certificate's ``I - Q``
    and :meth:`ClassDecomposition.extend`'s ``rho I - shift (x) A``.  A
    dense ``M`` takes LAPACK's LU.  A CSC ``M`` takes SuperLU in the
    natural order, pivoting on the diagonal only: a nonsingular M-matrix
    needs no pivoting for its LU to stay stable (Funderlic & Plemmons, LAA
    41, 1981), and the factor then fills only inside the envelope that
    :func:`_t_step` bounds.  COLAMD's order took 13 s, natural 0.5 s, on
    ``qld_cycle(ladder_chain(2000))``, and the lifetime factor of the
    4,000-state ladder holds 20k L+U entries in natural order, 66k in
    COLAMD's.  Raises LinAlgError when the factor is exactly singular."""
    b = np.ones(M.shape[0]) if rhs is None else rhs
    if isinstance(M, np.ndarray):
        return np.linalg.solve(M.T if transpose else M, b)
    from scipy.sparse.linalg import splu

    try:
        lu = splu(M, permc_spec="NATURAL", diag_pivot_thresh=0.0)
    except RuntimeError as exc:  # "Factor is exactly singular"
        raise np.linalg.LinAlgError(str(exc)) from None
    return lu.solve(b, trans="T" if transpose else "N")


def _noda(A, x: np.ndarray | None = None) -> tuple[np.ndarray, float, float]:
    """Perron vector of an irreducible nonnegative matrix, with its bracket.

    Noda's iteration ``x <- (theta I - A)^{-1} x`` with the upper bound
    ``theta = max(Ax/x)`` of the Perron root keeps ``x`` positive and
    converges quadratically (Elsner, LAA 15, 1976).  It works on
    ``D^{-1} A D`` with ``D = diag(x)``, whose row sums are ``Ax/x``, so
    entries of ``x`` far apart in magnitude keep their relative accuracy;
    ``A`` is dense or sparse, and :func:`_shifted` and :func:`_solve`
    form and solve each step in that form.  Returns the iterate with the
    narrowest Collatz-Wielandt bracket ``min(Ax/x) <= rho <= max(Ax/x)``,
    once that closes to a few ulps or stops narrowing below
    ``_BRACKET_RTOL`` relative width.  It starts from ``x`` when that is
    finite and positive, else flat; a start whose bracket is open and
    whose first solve is singular (its ``max(Ax/x)`` is rho to working
    precision) was never polished by a solve, and the run starts again
    flat.
    """
    n = A.shape[0]
    if not isinstance(A, np.ndarray):
        A = A.tocsc()  # the left run gets the CSR transpose
    warm = x is not None and bool(np.isfinite(x).all() and (x > 0.0).all())
    x = x / x.max() if warm else np.ones(n)
    x /= x.sum()
    best = (x, -np.inf, np.inf)
    for solves in range(_NODA_MAX_STEPS + 1):
        # an entry that under- or overflowed makes Ax/x 0/0: stop before it
        if solves == _NODA_MAX_STEPS or not (x.all() and np.isfinite(x).all()):
            break
        lo, hi, M = _shifted(A, x)
        if hi - lo < best[2] - best[1]:
            best = (x, lo, hi)
        elif best[2] - best[1] <= _BRACKET_RTOL * best[2]:
            break
        if hi - lo <= 4.0 * np.spacing(hi):
            break
        try:
            x = x * _solve(M)
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


def _left_start(A, right: np.ndarray, hi: float) -> np.ndarray | None:
    """A start for Noda's run on ``A.T``: one step of inverse iteration
    on the right run's last system, ``(hi I - D^{-1} A D)^T z = 1`` with
    ``D = diag(right)``.  With ``hi`` a few ulps above rho it converges in
    that step (Peters & Wilkinson, SIAM Rev. 21, 1979), and ``z / right``
    is then the left Perron vector of ``A``; None when the system is
    singular, and :func:`_noda` starts flat from a start that is not
    finite and positive."""
    try:
        z = _solve(_shifted(A, right, hi)[2], transpose=True)
    except np.linalg.LinAlgError:
        return None
    return z / right


def _tree_potential(sub: sparse.csr_array) -> np.ndarray:
    """A log potential ``L`` of the one-step class block ``sub`` along a
    breadth-first spanning tree of its two-way edges (``sub[u, v]`` and
    ``sub[v, u]`` both positive) from state 0: the root gets 0, and a child
    ``v`` of ``u`` gets ``L_u + (log sub[v, u] - log sub[u, v]) / 2``,
    summed down the tree by pointer jumping in ``log2 n`` vector steps.
    States the tree does not reach get 0, as does a block with no two-way
    edge.

    When ``sub`` is reversible, ``pi_u sub[u, v] = pi_v sub[v, u]``,
    Kolmogorov's criterion makes this ``L = -log(pi) / 2`` up to a constant,
    and ``exp(-L_u) sub[u, v] exp(L_v)`` is symmetric (Kelly,
    Reversibility and Stochastic Networks, 1979); so are its powers, the
    T-step block of the moving walk among them.
    """
    from scipy import sparse
    from scipy.sparse.csgraph import breadth_first_order

    n = sub.shape[0]
    rows, cols = _major(sub), sub.indices.astype(np.int64)  # keys up to n^2
    order = np.argsort(rows * n + cols)
    keys = (rows * n + cols)[order]
    # the stored entry (v, u) of each stored (u, v), where there is one
    back = order[np.searchsorted(keys, cols * n + rows).clip(max=keys.size - 1)]
    two_way = (rows[back] == cols) & (cols[back] == rows) & (rows != cols)
    two_way &= (sub.data > 0.0) & (sub.data[back] > 0.0)
    indptr = np.append(0, np.cumsum(np.bincount(rows[two_way], minlength=n)))
    graph = sparse.csr_array((np.ones(indptr[-1]), cols[two_way], indptr), (n, n))
    up = breadth_first_order(graph, 0, return_predecessors=True)[1].astype(np.int64)
    child = np.flatnonzero(up >= 0)
    edge = order[np.searchsorted(keys, up[child] * n + child)]  # (up[v], v)
    step = np.zeros(n)  # L_v - L_{up[v]}
    step[child] = 0.5 * (np.log(sub.data[back[edge]]) - np.log(sub.data[edge]))
    return _root_sums(up, step)


def _root_sums(up: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Sums of ``step`` from each vertex up to its root along a
    breadth-first predecessor array ``up``, which is negative at the root
    and at the vertices the search did not reach, by pointer jumping in
    ``log2 n`` vector steps."""
    n = up.size
    stays = up < 0
    up, step = np.where(stays, np.arange(n), up), np.where(stays, 0, step)
    for _ in range(n.bit_length()):  # a search tree is less than n deep
        step, up = step + step[up], up[up]
    return step


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
    from scipy.sparse.csgraph import breadth_first_order

    if len(states) == 1:
        return _Singleton(states[0], float(sub.sum()))

    graph = sub > 0.0
    # Phase BFS from the anchor; each edge u -> v closes a cycle of length
    # dist(u) + 1 - dist(v) through the anchor, and the period divides all
    # of them.
    up = breadth_first_order(graph, 0, return_predecessors=True)[1]
    dist = _root_sums(up, np.ones(len(states), dtype=int))
    rows, cols = _major(graph), graph.indices  # a comparison stores no False
    period = int(np.gcd.reduce(dist[rows] + 1 - dist[cols]))
    return IrreducibleClass(states, period, dist % period, sub)


def _t_step(blocks: list[sparse.csr_array]):
    """The T-step block ``B_0 B_1 ... B_{T-1}`` on ``C_0``, made from the
    right in the form of its Noda solves, chosen by their fill.

    A sparse LU of ``hi I - B`` beats LAPACK's dense one while its L+U
    hold a small fraction of the n^2 entries, here at most n^2 / 8 (one
    BLAS thread, 2-vCPU VM): SuperLU took 0.1-1.1 ms a factor on the
    moving walk's banded blocks at N = 100-2000 (L+U at 4-0.2 % of n^2),
    where LAPACK took 0.4-160 ms, and 350 ms on ``expander_chain(2000)``'s
    block (60 %), where LAPACK took 90.  The fill is read without
    factoring: with no pivoting (see :func:`_solve`) L+U hold the block's
    own entries and fill only inside its envelope, the entries between
    each row's first stored column and the diagonal and between each
    column's first stored row and the diagonal (George & Liu, Computer
    Solution of Large Sparse Positive Definite Systems, 1981).  So a
    product that holds more than n^2 / 8 entries is finished dense
    (sparse-oracle's period-5 blocks reach 85 %), and a sparse one stays
    sparse, in CSC with its whole diagonal stored, when its envelope is
    within n^2 / 8: the expander's block holds 0.5 % of n^2, but its
    envelope 79 %.
    """
    from scipy import sparse

    n = blocks[0].shape[0]
    t = blocks[-1]
    for b in blocks[-2::-1]:
        if not isinstance(t, np.ndarray) and 8 * t.nnz > n * n:
            t = t.toarray()
        t = b @ t
    if isinstance(t, np.ndarray):
        return t
    rows, diagonal = _major(t), np.arange(n)
    first_col, first_row = np.arange(n), np.arange(n)
    np.minimum.at(first_col, rows, t.indices)
    np.minimum.at(first_row, t.indices, rows)
    if 8 * (n + 2 * diagonal.sum() - first_col.sum() - first_row.sum()) > n * n:
        return t.toarray()
    if np.count_nonzero(t.indices == rows) < n:  # adding a stored 0 keeps a value
        data = np.r_[t.data, np.zeros(n)]
        t = sparse.csr_array((data, (np.r_[rows, diagonal], np.r_[t.indices, diagonal])), (n, n))
    return t.tocsc()


def _perron_solve(cls: IrreducibleClass) -> _Perron:
    """Perron data of a class of two or more states, as :func:`perron_data`
    describes it.  The one-step block is scaled by the tree potential ``L``
    of :func:`_tree_potential`, ``exp(-L_u) Q_uv exp(L_v)``, when that
    narrows the first Collatz-Wielandt bracket of the T-step block (its
    row sums) over a flat start, and is left as it is when not; the T-step
    block is formed once from the chosen blocks by :func:`_t_step`, which
    also carry ``nu`` and ``xi`` around the cyclic classes, and the left
    Noda run starts from :func:`_left_start`.  The vectors are unscaled at
    the end, ``xi = exp(L) x_r`` and ``nu = exp(-L) x_l``; raises
    ConvergenceError when they do not fit in float64, as on the moving
    walk at p = 0.1, N = 350, whose ``nu`` and ``xi`` span 333 decades.
    """
    from scipy import sparse

    sub, period, cyclic = cls.submatrix, cls.period, cls.cyclic
    n = cls.size
    cyclic_local = [np.flatnonzero(cyclic == j) for j in range(period)]
    C_0 = cyclic_local[0]

    def first_width(Q):  # of the bracket: the T-step block's row sums, T products with 1
        r = np.ones(n)
        for _ in range(period):
            r = Q @ r
        return np.ptp(r[C_0])

    # one step moves C_j to C_{j+1}, so a class of period 3 or more has no
    # two-way edge, and its potential is 0
    potential = _tree_potential(sub) if period <= 2 else np.zeros(n)
    if potential.any():
        with np.errstate(over="ignore", invalid="ignore"):
            scale = np.exp(potential[sub.indices] - potential[_major(sub)])
            scaled = sparse.csr_array((sub.data * scale, sub.indices, sub.indptr), sub.shape)
            if first_width(scaled) < first_width(sub):
                sub = scaled
            else:
                potential[:] = 0.0

    # one step maps C_j into C_{j+1}, so the rows of C_j, their columns
    # renumbered within C_{j+1}, are the block B_j
    within = np.empty(n, dtype=sub.indices.dtype)
    for states in cyclic_local:
        within[states] = np.arange(states.size)
    blocks = []
    for j, states in enumerate(cyclic_local):
        start, count = sub.indptr[states], np.diff(sub.indptr)[states]
        indptr = np.append(0, np.cumsum(count))
        at = np.repeat(start - indptr[:-1], count) + np.arange(indptr[-1])
        shape = (states.size, cyclic_local[(j + 1) % period].size)
        blocks.append(sparse.csr_array((sub.data[at], within[sub.indices[at]], indptr), shape))
    t_step = _t_step(blocks)
    right0, lo_r, hi_r = _noda(t_step)
    left0, lo_l, hi_l = _noda(t_step.T, _left_start(t_step, right0, hi_r))
    theta = (left0 @ (t_step @ right0)) / (left0 @ right0)
    root = 1.0 / period
    rho = float(theta) ** root
    rho_bracket = (min(lo_r, lo_l) ** root, max(hi_r, hi_l) ** root)

    nu = np.zeros(n)
    xi = np.zeros(n)
    nu[C_0] = left0
    for j in range(period - 1):
        nu[cyclic_local[j + 1]] = nu[cyclic_local[j]] @ blocks[j] / rho
    xi[C_0] = right0
    for j in range(period - 1, 0, -1):
        xi[cyclic_local[j]] = blocks[j] @ xi[cyclic_local[(j + 1) % period]] / rho

    # unscaled about the middle of L's range, so that neither vector leaves
    # float64 before it is normalised unless it must
    middle = (potential.max() + potential.min()) / 2.0
    with np.errstate(all="ignore"):
        nu_raw, xi_raw = nu * np.exp(middle - potential), xi * np.exp(potential - middle)
        nu_raw /= nu_raw.sum()
        xi_raw /= nu_raw @ xi_raw
        if not (np.isfinite(nu_raw).all() and np.isfinite(xi_raw).all()
                and min(nu_raw.min(), xi_raw.min()) >= np.finfo(float).tiny):
            span = max(np.ptp(np.log(nu) - potential), np.ptp(np.log(xi) + potential))
            raise ConvergenceError(
                f"the Perron bracket [{rho_bracket[0]:.17g}, {rho_bracket[1]:.17g}] "
                f"closed, but nu and xi span {span / np.log(10.0):.0f} decades, "
                f"more than float64 holds"
            )
    nu, xi = nu_raw, xi_raw

    nu_res = _relative_residual(nu, cls.submatrix.T @ nu, rho)
    xi_res = _relative_residual(xi, cls.submatrix @ xi, rho)
    return _Perron(rho, nu, xi, nu_res, xi_res, rho_bracket)


def perron_data(Q, states) -> IrreducibleClass:
    """Period, cyclic classes and Perron data for one communicating class.

    ``Q``, dense or sparse, is converted to CSR once.  The period is the
    gcd of directed cycle lengths through the anchor (the smallest state
    index), obtained from a BFS phase labelling.  The T-step matrix
    restricted to ``C_0`` is primitive.  It is formed once, sparse or
    dense by the fill rule of :func:`_t_step`, from the one-step blocks,
    scaled by the tree potential ``L`` of :func:`_tree_potential` when
    that narrows the first Collatz-Wielandt bracket over a flat start.
    Noda's iteration gives its right Perron vector and, run again on the
    transpose from one step of inverse iteration on the right run's last
    system, its left one, each with a Collatz-Wielandt bracket of its
    Perron root.  ``rho`` is the T-th root of their Rayleigh quotient,
    ``rho_bracket`` the T-th roots of the hull of both brackets, and the
    one-step blocks carry both vectors around the other cyclic classes
    before ``exp(L)`` unscales them.  This is where states from outside
    meet the class code: raises ValidationError unless the positive pattern
    on ``states`` is strongly connected, and ConvergenceError if a bracket
    cannot be narrowed to ``_BRACKET_RTOL`` or if ``nu`` or ``xi`` under-
    or overflows float64 once unscaled.  Unlike the classes of
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
    T = cls.period
    return float(T * cls.xi[pos] * cls.nu_cyclic_mass[(n + cls.cyclic[pos]) % T])


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
