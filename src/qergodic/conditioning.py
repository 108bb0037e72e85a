"""Conditional evolution of laws given survival, and exact oracles.

The one-step map pushes a law through the kernel and conditions on
landing outside the killing set of the target phase.  Composing it
reproduces the law of the chain at time n conditioned to be alive, which
is cross-checked against lifted matrix powers.  The module also builds
the homogeneous chain observed every ``gamma`` steps, reads the limit
cycle of conditioned laws off the peripheral eigensystem (certifying
when no single limit exists), and provides an exact, eigenvalue-free
recursion for conditioned time-average expectations used as ground truth
throughout the test suite.  That recursion is one survival sweep over
the CSR survivor matrix Q.  It advances k steps per product by the k-th
power of the one-step map, built by repeated squaring, with k the power
of two that counting multiply-adds picks for the steps the caller reads;
each product makes only the rows of the phases that the requested
horizons read there.  The sweep costs O((reads-chain length) ·
nnz(Q^k)) plus the squarings, the chain being its products from step 0
through the last read: about n/k of them to horizon n, each over
(phases read) / gamma of the block.  A curve that reads every step gets
k = 1.  The finite-horizon q-law in ``qprocess`` runs the same sweep.
"""

from __future__ import annotations

import csv
import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain, combinations, islice
from math import comb, lcm

import numpy as np

from .chain import AbsorbedChainProblem, Distribution, _check_weights, lift_chain
from .errors import ConvergenceError, Hypothesis1Error, NullEventError, ValidationError
from .spectral import decompose_classes

__all__ = [
    "CollapsedChain",
    "QldCycle",
    "FixedPointSearch",
    "conditional_step",
    "conditional_law",
    "conditional_law_sequence",
    "collapsed_chain",
    "qld_cycle",
    "exact_mean_ratio",
    "mean_ratio_curve",
    "qsd_fixed_point_search",
    "state_function",
    "write_mean_ratio_csv",
    "write_conditional_laws_csv",
]

_SAME_LAW_TV = 1e-9  # laws this close in TV are equal (cycle period, certificates)
_GRID_BUDGET = 2_500_000  # most simplex points the fixed-point search scans
_CHUNK_BYTES = 1 << 24  # one float array of grid points scored at a time


def state_function(problem: AbsorbedChainProblem, f) -> np.ndarray:
    """Coerce a state functional to a vector over the state space.

    Accepts a mapping label -> value (missing labels read 0), a callable
    on labels, or an array in state-space order.  A value that is not
    finite raises ValidationError naming the first such state.
    """
    labels = problem.space.labels
    if callable(f):
        arr = np.array([float(f(x)) for x in labels])
    elif isinstance(f, Mapping):
        unknown = sorted(k for k in f if k not in problem.space)
        if unknown:
            raise ValidationError(f"state function names unknown states {unknown}")
        arr = np.array([float(f.get(x, 0.0)) for x in labels])
    else:
        arr = np.asarray(f, dtype=float)
        if arr.shape != (len(labels),):
            raise ValidationError(
                f"state function must have one value per state ({len(labels)}), "
                f"got shape {arr.shape}"
            )
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        i = bad[0]
        raise ValidationError(
            f"state function is not finite at state {labels[i]!r}: {float(arr[i])!r}"
        )
    return arr


def _step_vector(problem, P, vec, phase) -> np.ndarray:
    out = (vec @ P) * problem.alive[phase % problem.gamma]
    total = out.sum()
    if total <= 0.0:
        raise NullEventError(
            f"conditioning on a null event: no mass survives the step into "
            f"phase {phase % problem.gamma}"
        )
    return out / total


def _initial_vector(problem, mu: Distribution | None) -> np.ndarray:
    initial = problem.initial if mu is None else mu
    vec = initial.to_array(problem.space)
    _check_weights(vec)
    vec = vec * problem.alive[0]
    total = vec.sum()
    if total <= 0.0:
        raise NullEventError("law places no mass on the phase-0 survival set")
    return vec / total


def conditional_step(
    problem: AbsorbedChainProblem, mu: Distribution, phase: int
) -> Distribution:
    """One step of the chain conditioned on surviving into ``phase``.

    Pushes ``mu`` (of any positive total mass) through the kernel and
    keeps the survivors of ``phase``; the result is a probability law.
    """
    vec = mu.to_array(problem.space)
    _check_weights(vec)
    if vec.sum() <= 0.0:
        raise NullEventError("cannot condition a law with no mass")
    P = problem.kernel.normalized
    return Distribution.from_array(
        problem.space, _step_vector(problem, P, vec, phase)
    )


def conditional_law(
    problem: AbsorbedChainProblem, n: int, mu: Distribution | None = None
) -> Distribution:
    """Law of the chain at time ``n`` conditioned on survival up to ``n``."""
    return Distribution.from_array(problem.space, _law_vectors(problem, n, mu)[-1])


def conditional_law_sequence(
    problem: AbsorbedChainProblem, n_max: int, mu: Distribution | None = None
) -> list[Distribution]:
    """Conditioned laws at times ``0 .. n_max``.

    Time 0 is the initial law restricted to the phase-0 survival set and
    renormalized; each later time applies one conditioned step at the
    phase of the landing time.
    """
    return [
        Distribution.from_array(problem.space, vec)
        for vec in _law_vectors(problem, n_max, mu)
    ]


def _law_vectors(problem, n_max: int, mu=None) -> list[np.ndarray]:
    """The laws of :func:`conditional_law_sequence` as state-space vectors."""
    n_max = _horizon(n_max)
    if n_max < 0:
        raise ValueError("horizon must be nonnegative")
    P = problem.kernel.normalized
    vec = _initial_vector(problem, mu)
    laws = [vec]
    for n in range(1, n_max + 1):
        vec = _step_vector(problem, P, vec, n % problem.gamma)
        laws.append(vec)
    return laws


@dataclass(frozen=True, eq=False)
class CollapsedChain:
    """The chain observed every ``gamma`` steps from a base phase.

    ``matrix[i, j]`` is the probability of moving from survivor i to
    survivor j over one period while staying alive throughout; the
    missing row mass ``cemetery`` is absorbed.  Conditioned cylinder laws
    of this homogeneous chain coincide with those of the original chain
    along times ``base_phase + k*gamma``.
    """

    base_phase: int
    survivors: tuple[str, ...]
    matrix: np.ndarray
    cemetery: np.ndarray


def collapsed_chain(
    problem: AbsorbedChainProblem, base_phase: int = 0
) -> CollapsedChain:
    """Kernel of the gamma-step chain: one period of masked transitions."""
    gamma = problem.gamma
    P = problem.kernel.normalized
    acc = np.eye(problem.space.size)
    for step in range(1, gamma + 1):
        acc = acc @ (P * problem.alive[(base_phase + step) % gamma])
    idx = np.flatnonzero(problem.alive[base_phase % gamma])
    kernel = acc[np.ix_(idx, idx)]
    return CollapsedChain(
        base_phase=base_phase % gamma,
        survivors=problem.survivors(base_phase),
        matrix=kernel,
        cemetery=1.0 - kernel.sum(axis=1),
    )


@dataclass(frozen=True, eq=False)
class QldCycle:
    """Limit cycle of the conditioned laws, with its certificate.

    ``distributions[i]`` is the limit of the conditioned laws along times
    congruent to ``offsets[i]`` modulo the cycle length; the last element
    sits at a multiple of the period.  ``iterations`` counts the certifying
    conditioned steps, one per element.  A single limiting law exists only
    when all cycle elements coincide, which ``qld_exists`` reports.
    """

    distributions: tuple[Distribution, ...]
    offsets: tuple[int, ...]
    period: int
    iterations: int
    consecutive_tv: tuple[float, ...]
    max_pairwise_tv: float
    qld_exists: bool

    @property
    def verdict(self) -> str:
        if self.qld_exists:
            return "conditioned laws converge to a single limit"
        return "no quasi-limiting distribution: conditioned laws cycle"


def _peripheral_laws(lifted, i: int, live: set[int], T: int) -> np.ndarray:
    """Lifted laws ``mu Pi_r``, r < T, of the peripheral projector of class i.

    ``Pi_r = sum_k omega_k^r r_k l_k``, with ``r_k = (lambda_k - Q_UU)^{-1}
    Q_UD w_k`` on the ancestors U and ``l_k = v_k Q_DW (lambda_k - Q_WW)^{-1}``
    on the descendants W, sums over k to ``T_i sum_j R_j L_{j+r}``: ``xi``
    and ``nu`` on the cyclic class C_j, which ``ClassDecomposition.extend``
    extends by ``rho R_j = Q R_{j+1}`` onto U and ``rho L_{j+1} = L_j Q``
    onto W.  The terms are nonnegative, so no rounding lands on uncharged
    states.
    """
    dec, mu = lifted.decomposition, lifted.normalized_initial()
    cls = dec.classes[i]
    R, L = np.zeros((2, cls.period, len(mu)))
    R[cls.cyclic, list(cls.states)], L[cls.cyclic, list(cls.states)] = cls.xi, cls.nu
    # only live ancestors: one the start never reaches may tie class i's rate
    dec.extend(i, R, dec.reachable_from({i}, reverse=True) & live)
    dec.extend(i, L)
    weights = cls.period * (R @ mu)
    return np.array([weights @ np.roll(L, -r, axis=0) for r in range(T)])


def qld_cycle(problem: AbsorbedChainProblem) -> QldCycle:
    """Limit cycle of the conditioned laws, read off the peripheral eigensystem.

    The classes reachable from the initial law that tie for the largest
    decay rate set the asymptotics (Darroch & Seneta, J. Appl. Prob. 2,
    1965): with ``T`` the lcm of their periods, the law at times ``r mod T``
    sums their ``mu Pi_r``, phase summed out.  The period is the shortest
    multiple of ``gamma`` dividing ``T`` whose shift leaves every law alone.
    Raises NullEventError when the largest rate is 0, Hypothesis1Error
    when one tied class reaches another, and ConvergenceError when a
    conditioned step from a cycle element misses the next one.
    """
    lifted = lift_chain(problem)
    dec = lifted.decomposition
    live, tied = dec.dominant_classes(dec.class_of[lifted.initial_vector > 0.0])
    if any(dec.reachable_from({i}) & set(tied) for i in tied):
        rho_max = max(dec.classes[i].rho for i in tied)
        msg = f"classes {tied} tie for the largest decay rate {rho_max:.12g}"
        raise Hypothesis1Error(f"{msg} and one of them reaches another", tied)
    T = lcm(*(dec.classes[i].period for i in tied))
    gamma = problem.gamma
    lifted_laws = sum(_peripheral_laws(lifted, i, live, T) for i in tied)
    lifted_laws *= lifted.phase == np.arange(T)[:, None] % gamma
    laws = np.zeros((T, problem.space.size))
    np.add.at(laws, (slice(None), lifted.state), np.maximum(lifted_laws, 0.0))
    laws /= laws.sum(axis=1, keepdims=True)

    def repeats(p):  # every law equals the one p steps later
        return np.abs(laws - np.roll(laws, p, 0)).sum(1).max() / 2 <= _SAME_LAW_TV

    period = next(p for p in range(gamma, T + 1, gamma) if T % p == 0 and repeats(p))
    cycle = tuple(
        Distribution.from_array(problem.space, v) for v in np.roll(laws[:period], -1, 0)
    )
    following = cycle[1:] + cycle[:1]
    residual = max(
        conditional_step(problem, a, (i + 2) % gamma).tv_distance(b)
        for i, (a, b) in enumerate(zip(cycle, following))
    )
    if not residual <= _SAME_LAW_TV:
        raise ConvergenceError(
            f"a conditioned step moves the cycle by {residual:.3g} in TV", residual
        )
    pairwise = max((a.tv_distance(b) for a, b in combinations(cycle, 2)), default=0.0)
    return QldCycle(
        distributions=cycle,
        offsets=tuple((i + 1) % period for i in range(period)),
        period=period,
        iterations=period,
        consecutive_tv=tuple(a.tv_distance(b) for a, b in zip(cycle, following)),
        max_pairwise_tv=pairwise,
        qld_exists=pairwise <= _SAME_LAW_TV,
    )


def _stride(lifted, f, reads):
    """The stride k of a survival sweep that takes the sorted ``reads``, the
    k-step block divided by ``2**e``, and e.

    k steps map u and s by ``[[Q^k, 0], [S_k, Q^k]]``, with ``S_1 =
    diag(f) Q`` and ``S_2k = S_k Q^k + Q^k S_k`` (by ``Q^k`` alone
    without ``f``); the block is that map on the flat ``V`` of
    ``_survival_sweep``, None when k is 1.  The sweep goes from each read
    to the next by strides of k steps, then by unit steps; the product
    that ends at step j makes the rows of the phases ``(n - j) mod
    gamma``, n in ``reads``.  A unit step costs ``width`` multiply-adds
    per stored entry of those rows of Q, and with ``f`` one more per row
    for ``f * u``; a stride costs one per stored entry of those rows of
    the block.  Squaring costs, for each stored entry (i, l) of a left
    factor, the stored entries of row l of the right one.  k starts at 1
    and doubles while one squaring costs fewer multiply-adds than it
    saves over the products that take the reads.  ``Q^2k`` is formed only
    when the squares might pay with each row of a product as long as the
    longest row it sums, and ``S_2k`` only when ``Q^2k`` leaves it room to
    pay.  Each square is divided by the power of two at its peak, which is
    exact and keeps a fast-dying block from underflowing.  The rows are
    counted as if each read were a horizon, so k depends on the lift, f
    and the reads alone: a sweep that makes more phases takes the same
    products, with the same values on the rows both make.
    """
    from scipy import sparse

    Q, phase, gamma = lifted.survivor_csr, lifted.phase, lifted.gamma
    width = 1 if f is None else 2
    residues = np.array(sorted({n % gamma for n in reads}))
    reads = np.asarray(reads)
    gaps = np.diff(reads, prepend=0)

    def ends(step, count, last):
        """How many of ``count[i]`` products by ``step`` steps, the last
        ending at step ``last[i]``, end at each step mod gamma: the t-th
        product back from the last ends where the (t + period)-th does."""
        period = gamma // math.gcd(step, gamma)
        back = np.arange(period)
        times = count[:, None] // period + (back < count[:, None] % period)
        return np.bincount(((last[:, None] - step * back) % gamma).ravel(),
                           weights=times.ravel(), minlength=gamma)

    def per_product(entries):
        """Multiply-adds of the product that ends at each step mod gamma,
        where making survivor l's rows costs ``entries[l]``."""
        per_phase = np.bincount(phase, weights=entries, minlength=gamma)
        return per_phase[(residues - np.arange(gamma)[:, None]) % gamma].sum(axis=1)

    def stored(M):
        return np.diff(M.indptr)

    def multiplies(A, B):
        """Multiply-adds of ``A @ B``."""
        return stored(B)[A.indices].sum()

    def longest(A, B):
        """For each row i of ``A @ B``, the longest row l of B that it
        sums, which it is at least as long as."""
        out, live = np.zeros(A.shape[0]), stored(A) > 0
        if live.any():
            out[live] = np.maximum.reduceat(stored(B)[A.indices], A.indptr[:-1][live])
        return out

    unit = per_product(width * stored(Q) + width - 1)
    k, Qk, Sk, exponent = 1, Q, None, 0
    if f is not None:  # diag(f) Q, on copies of Q's index arrays
        Sk = sparse.csr_array((np.repeat(f, stored(Q)) * Q.data, Q.indices, Q.indptr),
                              shape=Q.shape, copy=True)
        Sk.eliminate_zeros()
    work = ends(1, gaps, reads) @ unit
    while True:
        units = ends(1, gaps % (2 * k), reads) @ unit
        strides = ends(2 * k, gaps // (2 * k), reads - gaps % (2 * k))
        squaring, fewest = multiplies(Qk, Qk), 0.0
        if Sk is not None:
            squaring += multiplies(Sk, Qk) + multiplies(Qk, Sk)
            fewest = np.maximum(longest(Sk, Qk), longest(Qk, Sk))
        if squaring >= work - units - strides @ per_product(width * longest(Qk, Qk) + fewest):
            break
        square = [Qk @ Qk]
        doubled = units + strides @ per_product(width * stored(square[0]) + fewest)
        if squaring >= work - doubled:
            break
        if Sk is not None:
            square.append(Sk @ Qk + Qk @ Sk)
            doubled = units + strides @ per_product(width * stored(square[0]) + stored(square[1]))
            if squaring >= work - doubled:
                break
        shift = math.frexp(max(np.abs(M.data).max(initial=0.0) for M in square))[1]
        for M in square:
            M.data = np.ldexp(M.data, -shift)
        Qk, Sk = square if Sk is not None else (square[0], None)
        k, exponent, work = 2 * k, 2 * exponent + shift, doubled
    if k == 1 or f is None:
        return k, None if k == 1 else Qk, exponent
    # row i of Q^k on the u columns makes row 2i; beside S_k's row i, on the
    # s columns, row 2i + 1
    Qk, S = Qk.tocoo(), Sk.tocoo()
    rows = np.concatenate([2 * Qk.row, 2 * S.row + 1, 2 * Qk.row + 1])
    cols = np.concatenate([2 * Qk.col, 2 * S.col, 2 * Qk.col + 1])
    data = np.concatenate([Qk.data, S.data, Qk.data])
    return k, sparse.csr_array((data, (rows, cols)), shape=(2 * Q.shape[0],) * 2), exponent


def _survival_sweep(lifted, reads, horizons, f=None):
    """Survival vectors ``u_j = Q^j 1`` at the steps j in ``reads``.

    ``Q`` is ``lifted.survivor_csr``.  Yields ``(j, V, exponent)`` once
    per distinct read, in increasing order: column 0 of ``V`` holds
    ``u_j``, and column 1, when ``f`` is given, ``s_j = f * u_j + Q
    s_{j-1}`` (``s_0 = 0``), both divided by ``2**exponent``; the next
    step overwrites ``V``.  A unit step makes rows of ``V`` from rows of
    ``Q``.  The sweep goes from each read to the next by strides of k
    steps, then by unit steps, with k and the k-step block on the
    flattened ``V`` from ``_stride``: k depends on the lift, f and the
    reads alone, and a curve that reads every step gets k = 1.  The
    sweep costs O((reads-chain length) * nnz(Q^k)) plus the squarings,
    the chain being its products from step 0 through the last read:
    about n/k of them to horizon n.

    A horizon n reads ``u_n`` and ``s_n`` at phase 0, and these read step
    j only at phase ``(n - j) mod gamma``.  So the product that ends at
    step j makes only the rows of those phases, n in ``horizons``, from
    their rows of ``Q`` or the block, cut once per distinct phase set and
    stride; it reads only the rows made by the product before, and the
    other rows are stale.  Each product divides the rows it made by the
    power of two at their peak of u, which is exact and keeps u from
    underflowing, so the values equal those of the full product and two
    reads compare through their exponents.  A product that makes every
    row raises NullEventError when none survives, naming the first step
    that none does: a stride finds it by unit steps.
    """
    Q, gamma = lifted.survivor_csr, lifted.gamma
    width = 1 if f is None else 2
    reads = sorted(set(reads))
    k, block, scale = _stride(lifted, f, reads)
    residues = {n % gamma for n in horizons}
    # the product ending at step j makes the same rows as that ending at j + d
    d = next(d for d in range(1, gamma + 1) if {(r + d) % gamma for r in residues} == residues)
    V = np.zeros((Q.shape[0], width))
    V[:, 0] = 1.0

    def cut(s, end):
        """What the product of ``s`` steps that ends at step ``end`` needs:
        the rows it makes, their part of its map, the array it reads and
        writes, where u sits in what it makes, the f of unit steps, the
        exponent of the map, and whether it makes every row."""
        phases = [(r - end) % gamma for r in residues]
        rows = np.flatnonzero(np.isin(lifted.phase, phases))
        every = len(phases) == gamma
        if s == 1:
            how = Q[rows], V, (slice(None), 0), None if f is None else f[rows], 0
        else:  # survivor i holds entries width * i onwards of the flattened V
            rows = (width * rows[:, None] + np.arange(width)).ravel()
            how = block[rows], V.reshape(-1), slice(None, None, width), None, scale
        if rows[-1] - rows[0] + 1 == rows.size:  # one run: write back through a slice
            rows = slice(rows[0], rows[-1] + 1)
        return rows, *how, every

    units = [cut(1, end) for end in range(d)]
    strides = [cut(k, end) for end in range(d)] if k > 1 else units

    def advance(j, s):
        """Take ``V`` from step j to step j + s in place; return the
        exponent of the power of two it divided by."""
        rows, part, x, u, f_made, scaled, every = (units if s == 1 else strides)[(j + s) % d]
        made = part @ x
        if f_made is not None:
            made[:, 1] += f_made * made[:, 0]
        peak = made[u].max()
        if peak <= 0.0 and every:
            if s == 1:
                raise NullEventError(f"no state survives {j + 1} steps; the conditioning is null")
            return sum(advance(j + t, 1) for t in range(s))
        shift = math.frexp(peak)[1]  # 0 when the rows made all died
        x[rows] = np.ldexp(made, -shift, out=made)
        return scaled + shift

    exponent = j = 0
    for n in reads:
        while j + k <= n:
            exponent += advance(j, k)
            j += k
        while j < n:
            exponent += advance(j, 1)
            j += 1
        yield n, V, exponent


def _horizon(n) -> int:
    """``n`` as an int; a value that is not an integer, or is a bool,
    raises ValueError."""
    try:
        if isinstance(n, bool):  # operator.index(True) is 1
            raise TypeError
        return operator.index(n)
    except TypeError:
        raise ValueError(f"horizons must be integers, got {n!r}") from None


def exact_mean_ratio(problem: AbsorbedChainProblem, f, n: int) -> float:
    """Conditioned time-average of ``f`` over ``n`` steps, computed exactly.

    Evaluates ``E[(1/n) sum_{k<n} f(X_k) | alive at n]`` through a linear
    recursion on the lifted survivor matrix: with ``u_j`` the survival
    probabilities over ``j`` steps and ``s_j`` the f-weighted survival
    sums, ``u_j = Q u_{j-1}`` and ``s_j = f * u_j + Q s_{j-1}``.  Exact up
    to float round-off.  The sweep advances k steps per product, so it
    costs O((reads-chain length) * nnz(Q^k)) plus the squarings that
    build the k-step block: about n/k products of the CSR survivor
    matrix's k-th power to horizon n, each making one phase of gamma.
    """
    return float(mean_ratio_curve(problem, f, [n])[0])


def mean_ratio_curve(problem: AbsorbedChainProblem, f, ns) -> np.ndarray:
    """Exact conditioned time-averages at several horizons in one sweep."""
    ns = [_horizon(n) for n in ns]
    if not ns or min(ns) < 1:
        raise ValueError("horizons must be positive" if ns else "the horizon list is empty")
    fvec = state_function(problem, f)
    lifted = lift_chain(problem)
    fvec = fvec[lifted.state]
    mu0 = lifted.normalized_initial()
    positions: dict[int, list[int]] = {}
    for i, n in enumerate(ns):
        positions.setdefault(n, []).append(i)
    out = np.empty(len(ns))
    for step, V, _ in _survival_sweep(lifted, positions, ns, fvec):
        denom, total = mu0 @ V
        if denom <= 0.0:
            raise NullEventError(
                f"conditioning on a null event: survival probability at "
                f"horizon {step} vanishes from the initial law"
            )
        out[positions[step]] = total / (step * denom)
    return out


# ---------------------------------------------------------------------------
# Nonexistence certificate for a law invariant under every phase map
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FixedPointSearch:
    """Search for a law fixed by the conditioned step of every phase.

    ``grid_min_gap`` is the smallest, over a simplex grid on the common
    survival support, of the worst total-variation displacement under the
    phase maps; ``eigen_candidates`` are the per-phase invariant laws
    ``(phase, rho, law)``, one per distinguished class of the phase
    survivor matrix, with their worst displacement in ``eigen_gaps``.
    """

    common_support: tuple[str, ...]
    grid_step: float
    grid_points: int
    grid_min_gap: float
    grid_argmin: Distribution | None
    eigen_candidates: tuple[tuple[int, float, Distribution], ...]
    eigen_gaps: tuple[float, ...]
    has_common_fixed_point: bool


def _simplex_grid(d: int, steps: int, rows: int):
    """Nonnegative integer vectors of length d summing to steps, ``rows``
    at a time, in lexicographic order: the gaps between d - 1 bars in
    ``steps + d - 1`` slots, bar positions taken in lexicographic order."""
    slots = steps + d - 1
    bars = combinations(range(slots), d - 1)
    total = comb(slots, d - 1)
    for lo in range(0, total, rows):
        n = min(rows, total - lo)
        flat = np.fromiter(chain.from_iterable(islice(bars, n)), int, n * (d - 1))
        edges = np.pad(flat.reshape(n, d - 1), ((0, 0), (1, 1)), constant_values=(-1, slots))
        yield np.diff(edges, axis=1) - 1


def _phase_gaps(problem, P, laws: np.ndarray) -> np.ndarray:
    """Worst TV displacement of each row of ``laws`` under the conditioned
    step into every phase; 1 where a phase leaves the row no mass."""
    pushed = laws @ P
    gap = np.zeros(laws.shape[0])
    for alive in problem.alive:
        out = pushed * alive
        totals = out.sum(axis=1)
        ok = totals > 0.0
        out /= np.where(ok, totals, 1.0)[:, None]
        out -= laws
        tvs = np.where(ok, 0.5 * np.abs(out, out=out).sum(axis=1), 1.0)
        gap = np.maximum(gap, tvs)
    return gap


def qsd_fixed_point_search(
    problem: AbsorbedChainProblem, grid_step: float = 1e-3
) -> FixedPointSearch:
    """Certify that no law is invariant under every phase's conditioning.

    A common fixed point would have to live on the intersection of all
    survival sets, so the grid scans that simplex (coarsened until it has
    at most ``_GRID_BUDGET`` points) in chunks of about ``_CHUNK_BYTES``
    per float array.  The eigen candidates are the nonnegative left
    eigenvectors of each phase survivor matrix, one per distinguished
    class C: ``rho_C > 0`` and the dominant-class rule from C alone picks
    C, that is C beats every class it reaches beyond the decay-rate tie
    (Schneider, LAA 84, 1986), and ``nu_C`` extends by
    ``nu_C Q_CW (rho_C - Q_WW)^{-1}`` onto those classes W.  A positive
    ``grid_min_gap`` with positive ``eigen_gaps`` certifies nonexistence
    at the grid resolution.
    """
    if not 0.0 < grid_step < np.inf or not 1.0 / grid_step < np.inf:
        raise ValidationError(f"grid_step and 1/grid_step must be finite and > 0: {grid_step!r}")
    space = problem.space
    P = problem.kernel.normalized
    common_idx = np.flatnonzero(problem.alive.all(axis=0))
    common = tuple(space.labels[i] for i in common_idx)

    grid_min_gap = np.inf
    grid_argmin = None
    points = 0
    if common:
        d = len(common)
        steps = max(1, round(1.0 / grid_step))
        while (points := comb(steps + d - 1, d - 1)) > _GRID_BUDGET:
            steps //= 2
        grid_step = 1.0 / steps
        for counts in _simplex_grid(d, steps, max(1, _CHUNK_BYTES // (8 * space.size))):
            block = counts / steps
            embedded = np.zeros((block.shape[0], space.size))
            embedded[:, common_idx] = block
            gap = _phase_gaps(problem, P, embedded)
            best = int(np.argmin(gap))
            if gap[best] < grid_min_gap:
                grid_min_gap = float(gap[best])
                grid_argmin = Distribution(
                    {x: float(v) for x, v in zip(common, block[best]) if v > 0.0}
                )

    candidates: list[tuple[int, float, Distribution]] = []
    for m, alive in enumerate(problem.alive):
        dec = decompose_classes(P[np.ix_(alive, alive)])
        for i, cls in enumerate(dec.classes):
            if cls.rho <= 0.0:
                continue
            _, tied = dec.dominant_classes({i})
            if tied != [i]:
                continue  # not distinguished: no nonnegative eigenvector starts here
            law = np.zeros((1, dec.class_of.size))
            law[0, list(cls.states)] = cls.nu
            dec.extend(i, law)
            dist = Distribution(dict(zip(problem.survivors(m), law[0] / law.sum())))
            if all(dist.tv_distance(c[2]) > _SAME_LAW_TV for c in candidates):
                candidates.append((m, cls.rho, dist))
    laws = np.array([c[2].to_array(space) for c in candidates]).reshape(-1, space.size)
    eigen_gaps = _phase_gaps(problem, P, laws)

    return FixedPointSearch(
        common_support=common,
        grid_step=grid_step,
        grid_points=points,
        grid_min_gap=float(grid_min_gap),
        grid_argmin=grid_argmin,
        eigen_candidates=tuple(candidates),
        eigen_gaps=tuple(eigen_gaps.tolist()),
        has_common_fixed_point=bool(
            grid_min_gap <= _SAME_LAW_TV or np.any(eigen_gaps <= _SAME_LAW_TV)
        ),
    )


# ---------------------------------------------------------------------------
# CSV emitters for convergence plots
# ---------------------------------------------------------------------------


def _write_table(path, header, index, values: np.ndarray) -> None:
    """Write a CSV table byte for byte as ``csv.writer`` writes it.

    Each row holds the integer columns ``index`` (one sequence per column)
    and then one row of the float block ``values``; every row ends in
    ``\r\n``.  A float cell is its ``repr``, as in the csv module, formatted
    once per distinct bit pattern, so -0.0 stays apart from 0.0.  Neither
    an integer nor a float repr needs quoting; the header does go through
    ``csv.writer``, which quotes labels as needed.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    text = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
    table = np.empty((values.shape[0], len(index) + values.shape[1]), dtype=object)
    for j, column in enumerate(index):
        table[:, j] = list(map(str, np.asarray(column).tolist()))
    table[:, len(index):] = text[inverse.reshape(values.shape)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        fh.write("".join(",".join(row) + "\r\n" for row in table.tolist()))


def write_mean_ratio_csv(problem: AbsorbedChainProblem, f, n_max: int, path) -> np.ndarray:
    """Exact conditioned time-averages for horizons 1..n_max, one row each.

    Columns ``n, mean_ratio``; the table is written as ``_write_table``
    writes it.  Returns the curve it wrote, entry ``n - 1`` for horizon
    ``n``.
    """
    n_max = _horizon(n_max)
    values = mean_ratio_curve(problem, f, range(1, n_max + 1))
    _write_table(path, ["n", "mean_ratio"], [range(1, n_max + 1)], values[:, None])
    return values


def write_conditional_laws_csv(problem: AbsorbedChainProblem, n_max: int, path):
    """Conditioned laws for times 0..n_max, one column per state.

    The table is written as ``_write_table`` writes it, so each weight
    reads back as the exact float ``conditional_law_sequence`` reports.
    """
    laws = np.array(_law_vectors(problem, n_max))
    # a float cell is its repr; adding 0.0 turns a -0.0 weight of the
    # initial law into the 0.0 that conditional_law_sequence reports
    _write_table(path, ["n", *problem.space.labels], [range(n_max + 1)], laws + 0.0)
