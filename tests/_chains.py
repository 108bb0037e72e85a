"""Shared test chains and independent brute-force oracles.

The oracles here deliberately avoid the library's computational paths:
conditional laws and cylinder probabilities come from pruned enumeration
of full trajectories, survival probabilities from lifted matrix powers
done inline.  Tests compare library output against these.
"""

from __future__ import annotations

import numpy as np

from qergodic import (
    AbsorbedChainProblem,
    Distribution,
    MovingBoundary,
    QProcessKernel,
    RandomWalkSpec,
    StateSpace,
    TransitionKernel,
    ValidationError,
    fixed_walk,
    lift_chain,
    moving_walk,
    validate_problem,
)


def k2_walk(p=0.5, start="1"):
    return fixed_walk(p, 2, initial=start)


def k5_walk(p=0.5, start="1"):
    return fixed_walk(p, 5, initial=start)


def n3_walk(p=0.5, start="3"):
    return moving_walk(p, 3, initial=start)


def swap_with_killing(leak=0.1):
    """Two states exchanging deterministically up to a leak to a trap.

    The lifted survivor matrix has spectral radius exactly ``1 - leak``,
    and that is also its largest row sum.
    """
    labels = ("a", "b", "trap")
    P = np.array(
        [
            [0.0, 1.0 - leak, leak],
            [1.0 - leak, 0.0, leak],
            [0.0, 0.0, 1.0],
        ]
    )
    return AbsorbedChainProblem(
        StateSpace(labels),
        TransitionKernel(P),
        MovingBoundary(1, (frozenset({"trap"}),)),
        Distribution.uniform(["a", "b"]),
    )


def leaky_walk(leak=0.01):
    """``n3_walk`` with every row sending ``leak`` to the state ``'0'``.

    ``'0'`` is killed at both phases, so every lifted row sums to at most
    ``1 - leak`` and the row sums alone prove absorption; the classes are
    those of ``n3_walk``.
    """
    walk = n3_walk()
    P = (1.0 - leak) * walk.kernel.matrix
    P[:, 0] += leak
    return AbsorbedChainProblem(walk.space, TransitionKernel(P), walk.boundary, walk.initial)


def closed_class_chain():
    """A leaking state feeding a 3-cycle that the moving boundary misses.

    The cycle ``b -> c -> d -> b`` sits at ``b`` at phase 0, ``c`` at
    phase 1 and ``d`` at phase 2, and each phase kills the other two, so
    it is a closed class of the lifted chain (spectral radius 1) and
    absorption is not almost sure.  Read at any phase but the next, the
    cycle's rows would seem to leak everything.
    """
    labels = ("a", "b", "c", "d", "trap")
    P = np.zeros((5, 5))
    P[0, 1] = P[0, 4] = 0.5
    P[1, 2] = P[2, 3] = P[3, 1] = P[4, 4] = 1.0
    return AbsorbedChainProblem(
        StateSpace(labels),
        TransitionKernel(P),
        MovingBoundary(
            3,
            (
                frozenset({"c", "d", "trap"}),
                frozenset({"b", "d", "trap"}),
                frozenset({"b", "c", "trap"}),
            ),
        ),
        Distribution.point_mass("a"),
    )


def three_cycle():
    """Deterministic 3-cycle with uneven per-step survival (0.9, 0.8, 0.7).

    Survival probabilities have a single path, so the decay prefactor can
    be checked exactly; the uneven leak makes the cyclic-class masses of
    the left Perron vector unequal, which pins down phase conventions.
    """
    labels = ("a", "b", "c", "trap")
    P = np.array(
        [
            [0.0, 0.9, 0.0, 0.1],
            [0.0, 0.0, 0.8, 0.2],
            [0.7, 0.0, 0.0, 0.3],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    return AbsorbedChainProblem(
        StateSpace(labels),
        TransitionKernel(P),
        MovingBoundary(1, (frozenset({"trap"}),)),
        Distribution.point_mass("a"),
    )


def symmetric_slow_chain(eps=0.002):
    """Uniformly mixing 3-state core with rare leaks, 2-periodic boundary.

    The core states are exchangeable and, conditioned on survival, the
    walk sits in the core at every time before the horizon, so the
    conditioned time average of any core indicator equals 1/3 exactly at
    every horizon.  Absorption is slow (rate 2*eps per step), which makes
    large surviving samples affordable.
    """
    labels = ("a", "b", "c", "d", "e")
    P = np.zeros((5, 5))
    for i in range(3):
        P[i, :3] = (1.0 - 2.0 * eps) / 3.0
        P[i, 3] = eps
        P[i, 4] = eps
    P[3, 3] = 1.0
    P[4, 4] = 1.0
    return AbsorbedChainProblem(
        StateSpace(labels),
        TransitionKernel(P),
        MovingBoundary(2, (frozenset({"d"}), frozenset({"e"}))),
        Distribution.uniform(["a", "b", "c"]),
    )


def two_copies_tied():
    """Two disconnected copies of the same two-state loop: a perfect tie."""
    labels = ("a1", "b1", "a2", "b2", "trap")
    P = np.zeros((5, 5))
    for a, b in ((0, 1), (2, 3)):
        P[a, b] = 0.5
        P[a, 4] = 0.5
        P[b, a] = 0.5
        P[b, 4] = 0.5
    P[4, 4] = 1.0
    return AbsorbedChainProblem(
        StateSpace(labels),
        TransitionKernel(P),
        MovingBoundary(1, (frozenset({"trap"}),)),
        Distribution({"a1": 0.5, "a2": 0.5}),
    )


def chained_tie():
    """A loop with rate 0.5 feeding another loop with rate 0.5.

    Both classes tie for the largest decay rate and the first reaches the
    second, so the conditioned laws have no peripheral limit cycle.
    """
    labels = ("a", "b", "trap")
    P = np.array(
        [
            [0.5, 0.25, 0.25],
            [0.0, 0.5, 0.5],
            [0.0, 0.0, 1.0],
        ]
    )
    return AbsorbedChainProblem(
        StateSpace(labels),
        TransitionKernel(P),
        MovingBoundary(1, (frozenset({"trap"}),)),
        Distribution.point_mass("a"),
    )


def trap_chain(labels, rows, initial, gamma=1):
    """Problem on ``labels`` plus an absorbing ``trap`` killed at every phase.

    ``rows`` fills the first rows of the kernel, the trap column last.
    """
    P = np.zeros((len(labels) + 1, len(labels) + 1))
    P[: len(rows), :] = rows
    P[-1, -1] = 1.0
    return AbsorbedChainProblem(
        StateSpace((*labels, "trap")),
        TransitionKernel(P),
        MovingBoundary(gamma, (frozenset({"trap"}),) * gamma),
        initial,
    )


def feeder_ring_sink(ring):
    """Transient start a (self-loop 0.3) -> ring surviving 0.9 a step -> sink d.

    The start class has rate 0.3, the ring 0.9 and the sink 0.5, so the
    ring, which the start reaches but does not charge, is the dominant
    class.
    """
    labels = ("a", *ring, "d")
    idx = {x: i for i, x in enumerate(labels)}
    P = np.zeros((len(labels), len(labels) + 1))
    P[0, 0], P[0, idx[ring[0]]] = 0.3, 0.4
    for x, y in zip(ring, ring[1:] + ring[:1]):
        P[idx[x], idx[y]] = 0.9
    P[idx[ring[0]], idx["d"]] = 0.05
    P[idx["d"], idx["d"]] = 0.5
    P[:, -1] = 1.0 - P.sum(axis=1)
    return trap_chain(labels, P, Distribution.point_mass("a"))


def rate_zero_feeder():
    """A start with decay rate 0 feeding a loop that survives 0.9 a step.

    ``a`` has no self-loop, so its class alone would make survival
    impossible; the dominant class is the loop at ``b``.
    """
    rows = [[0.0, 0.6, 0.4], [0.0, 0.9, 0.1]]
    return trap_chain(("a", "b"), rows, Distribution.point_mass("a"))


def ladder_chain(S: int) -> AbsorbedChainProblem:
    """A long transient ladder feeding a 10-cycle, killed at an absorbing sink.

    States ``s0 .. s{S-1}`` with gamma = 1; ``s{S-1}`` is the sink and the
    killing set.  Each of the first S - 11 states sends 0.98 evenly to 3
    distinct later non-sink states, drawn by ``default_rng(0)``, and 0.02
    to the sink, so each is a transient singleton class; the last 10
    non-sink states form a 10-cycle that moves forward with probability
    0.9 and leaks 0.1 to the sink.  The start is uniform on the non-sink
    states.
    """
    rng = np.random.default_rng(0)
    sink = S - 1
    labels = tuple(f"s{i}" for i in range(S))
    P = np.zeros((S, S))
    for i in range(sink - 10):
        P[i, rng.choice(np.arange(i + 1, sink), 3, replace=False)] = 0.98 / 3
        P[i, sink] = 0.02
    ring = np.arange(sink - 10, sink)
    P[ring, np.roll(ring, -1)] = 0.9
    P[ring, sink] = 0.1
    P[sink, sink] = 1.0
    return AbsorbedChainProblem(
        StateSpace(labels),
        TransitionKernel(P),
        MovingBoundary(1, (frozenset({labels[sink]}),)),
        Distribution.uniform(labels[:sink]),
    )


def expander_chain(n: int) -> AbsorbedChainProblem:
    """A random sparse chain on n states, killed at a sink, with period 2.

    States ``s0 .. s{n-1}`` and the sink ``s{n}``; gamma = 2.  Each
    non-sink state i sends 0.97 evenly to 3 distinct other non-sink
    states, drawn for i = 0, 1, ... from one ``default_rng(0)``, and 0.03
    to the sink.  The sink is killed at both phases and ``s0`` also at
    phase 1.  The start is uniform on the non-sink states.  Its random
    pattern makes a sparse LU of a class fill in, unlike the banded walks
    and the ladder.
    """
    rng = np.random.default_rng(0)
    labels = tuple(f"s{i}" for i in range(n + 1))
    P = np.zeros((n + 1, n + 1))
    for i in range(n):
        P[i, rng.choice(np.delete(np.arange(n), i), 3, replace=False)] = 0.97 / 3
        P[i, n] = 0.03
    P[n, n] = 1.0
    sink = frozenset({labels[n]})
    return AbsorbedChainProblem(
        StateSpace(labels),
        TransitionKernel(P),
        MovingBoundary(2, (sink, sink | {labels[0]})),
        Distribution.uniform(labels[:n]),
    )


def sparse_periodic_chain(seed: int, size: int = 60, gamma: int = 5) -> AbsorbedChainProblem:
    """A seeded sparse chain with a period-``gamma`` boundary.

    States ``s0 .. s{size-1}``, the last a sink killed at every phase.
    Every other state sends 0.01 to the sink and the rest to 4 distinct
    non-sink states with random weights; each phase also kills a tenth
    of the non-sink states.  The start is uniform on the phase-0
    survivors.  Its lift has several classes of period up to ``gamma``.
    """
    rng = np.random.default_rng(seed)
    sink = size - 1
    labels = tuple(f"s{i}" for i in range(size))
    P = np.zeros((size, size))
    for i in range(sink):
        weights = rng.random(4) + 0.1
        P[i, rng.choice(sink, size=4, replace=False)] = 0.99 * weights / weights.sum()
        P[i, sink] += 0.01
    P[sink, sink] = 1.0
    sets = tuple(
        frozenset(labels[i] for i in rng.choice(sink, size=round(sink / 10), replace=False))
        | {labels[sink]}
        for _ in range(gamma)
    )
    return AbsorbedChainProblem(
        StateSpace(labels),
        TransitionKernel(P),
        MovingBoundary(gamma, sets),
        Distribution.uniform(x for x in labels if x not in sets[0]),
    )


def random_problem(rng, n_states=None, gamma=None) -> AbsorbedChainProblem:
    """A random valid problem with surviving mass for at least 2 periods."""
    while True:
        k = int(n_states or rng.integers(2, 6))
        g = int(gamma or rng.integers(2, 4))
        labels = tuple(f"s{i}" for i in range(k))
        P = rng.dirichlet(np.full(k, float(rng.uniform(0.3, 2.0))), size=k)
        sets = []
        for _ in range(g):
            kill = [x for x in labels if rng.random() < 0.35]
            if len(kill) >= k:
                kill = kill[: k - 1]
            sets.append(frozenset(kill))
        if all(not s for s in sets):
            continue
        space = StateSpace(labels)
        boundary = MovingBoundary(g, tuple(sets))
        problem = AbsorbedChainProblem(
            space,
            TransitionKernel(P),
            boundary,
            Distribution.uniform(x for x in labels if x not in sets[0]),
        )
        if validate_problem(problem):
            continue
        lifted = lift_chain(problem, validate=False)
        Q = lifted.survivor_matrix
        u = np.ones(len(lifted.survivors))
        for _ in range(2 * g + 2):
            u = Q @ u
        if float(lifted.normalized_initial() @ u) <= 1e-9:
            continue
        return problem


def thinned_random_lift(rng):
    """The lift of a random problem with about 60 % of its kernel entries
    zeroed: random_problem's kernels are dense and lift to one class, and
    thinning splits the lift into several."""
    problem = random_problem(rng, n_states=int(rng.integers(3, 9)))
    n = problem.space.size
    thin = problem.kernel.matrix * (rng.random((n, n)) < 0.4) + 0.05 * np.eye(n)
    kernel = TransitionKernel(thin / thin.sum(axis=1, keepdims=True))
    problem = AbsorbedChainProblem(problem.space, kernel, problem.boundary, problem.initial)
    return lift_chain(problem, validate=False)


def permuted_problem(problem: AbsorbedChainProblem, rng) -> AbsorbedChainProblem:
    """The same chain with its states listed in a random order.

    Labels, killing sets and the initial law are unchanged, so a result
    read by label must not depend on the order.
    """
    perm = rng.permutation(problem.space.size)
    labels = tuple(problem.space.labels[i] for i in perm)
    return AbsorbedChainProblem(
        StateSpace(labels),
        TransitionKernel(problem.kernel.matrix[np.ix_(perm, perm)]),
        problem.boundary,
        problem.initial,
    )


def class_edges(Q, class_of) -> set[tuple[int, int]]:
    """Pairs of distinct classes (a, b) with a positive entry from a into b."""
    rows, cols = np.nonzero(np.asarray(Q) > 0.0)
    pairs = zip(class_of[rows].tolist(), class_of[cols].tolist())
    return {(a, b) for a, b in pairs if a != b}


def reachable_dfs(edges, class_ids, reverse=False) -> set[int]:
    """Classes reachable from ``class_ids`` along ``edges``, excluding
    themselves, by a depth-first stack search over an adjacency dict; with
    ``reverse`` the edges are walked backwards."""
    start = set(class_ids)
    adjacency: dict[int, set[int]] = {}
    for a, b in edges:
        if reverse:
            a, b = b, a
        adjacency.setdefault(a, set()).add(b)
    seen = set(start)
    stack = list(start)
    while stack:
        for nxt in adjacency.get(stack.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen - start


def survivor_restriction(space: StateSpace, kernel, killing_set):
    """Restrict a kernel to the complement of a killing set.

    Reference for the lift with one phase: returns the substochastic
    matrix on survivors together with the surviving labels (in
    state-space order).  Row deficits are the one-step killing
    probabilities.
    """
    killed = frozenset(killing_set)
    unknown = sorted(x for x in killed if x not in space)
    if unknown:
        raise ValidationError(f"killing set contains unknown states {unknown}")
    survivors = tuple(x for x in space.labels if x not in killed)
    if not survivors:
        raise ValidationError("empty survivor set")
    if isinstance(kernel, TransitionKernel):
        P = kernel.normalized
    else:
        P = np.asarray(kernel, dtype=float)
    idx = [space.index(x) for x in survivors]
    return P[np.ix_(idx, idx)].copy(), survivors


def lift_by_phase(problem: AbsorbedChainProblem):
    """Lifted survivors and survivor matrix, assembled one phase block at a time.

    Reference for the library's lift: the full (state, phase) space in
    phase-major order minus the lifted killing set, and for each phase k
    the kernel block from the phase-k survivors to the phase-(k+1)
    survivors, located label by label.
    """
    space = problem.space
    gamma = problem.gamma
    P = problem.kernel.normalized
    states = [(x, k) for k in range(gamma) for x in space.labels]
    killed = {(x, k) for k in range(gamma) for x in problem.boundary.killing_set(k)}
    survivors = tuple(s for s in states if s not in killed)
    Q = np.zeros((len(survivors), len(survivors)))
    by_phase: dict[int, list[int]] = {}
    for i, (_, k) in enumerate(survivors):
        by_phase.setdefault(k, []).append(i)
    for k in range(gamma):
        rows = by_phase.get(k, [])
        cols = by_phase.get((k + 1) % gamma, [])
        if rows and cols:
            src = [space.index(survivors[i][0]) for i in rows]
            dst = [space.index(survivors[j][0]) for j in cols]
            Q[np.ix_(rows, cols)] = P[np.ix_(src, dst)]
    return survivors, Q


def kernel_by_entry(problem: AbsorbedChainProblem, x: str):
    """Q-process slices of the class of ``(x, 0)``, filled entry by entry.

    Reference for the library's array assembly: for each phase, the class
    states of the previous and of this phase in state-space order, each
    entry ``xi(z) * P(y, z) / (rho * xi(y))``, then clipped at 0 and
    renormalized by row.  Returns ``(phase, rows, cols, matrix)`` per
    phase and the largest row-sum deviation before renormalization.
    """
    space = problem.space
    gamma = problem.gamma
    P = problem.kernel.normalized
    lifted = lift_chain(problem)
    dec = lifted.decomposition
    cls = dec.classes[int(dec.class_of[lifted.survivor_index[(x, 0)]])]
    xi_by_state = {lifted.survivors[s]: cls.xi[i] for i, s in enumerate(cls.states)}
    by_phase: dict[int, list[str]] = {k: [] for k in range(gamma)}
    for y, k in xi_by_state:
        by_phase[k].append(y)
    for k in range(gamma):
        by_phase[k].sort(key=space.index)
    deviation = 0.0
    slices = []
    for phase in range(gamma):
        prev = (phase - 1) % gamma
        rows = tuple(by_phase[prev])
        cols = tuple(by_phase[phase])
        matrix = np.zeros((len(rows), len(cols)))
        for i, y in enumerate(rows):
            xi_y = xi_by_state[(y, prev)]
            for j, z in enumerate(cols):
                matrix[i, j] = (
                    xi_by_state[(z, phase)]
                    * P[space.index(y), space.index(z)]
                    / (cls.rho * xi_y)
                )
        sums = matrix.sum(axis=1)
        deviation = max(deviation, float(np.max(np.abs(sums - 1.0))))
        matrix = np.clip(matrix, 0.0, None)
        matrix /= matrix.sum(axis=1)[:, None]
        slices.append((phase, rows, cols, matrix))
    return slices, deviation


def dense_sweep(problem: AbsorbedChainProblem, f: dict[str, float], n_max: int):
    """Survival vectors ``u_j`` and f-weighted sums ``s_j``, j = 0..n_max.

    Reference for the library's CSR sweep: ``u_j = Q u_{j-1}`` and
    ``s_j = f * u_j + Q s_{j-1}`` from ``u_0 = 1``, ``s_0 = 0``, by dense
    matrix-vector products on the lifted survivor matrix, never rescaled.
    Rows of the returned arrays are indexed by j.
    """
    lifted = lift_chain(problem, validate=False)
    Q = lifted.survivor_matrix
    fvec = np.array([f.get(x, 0.0) for x, _ in lifted.survivors])
    us = np.zeros((n_max + 1, Q.shape[0]))
    ss = np.zeros_like(us)
    us[0] = 1.0
    for j in range(1, n_max + 1):
        us[j] = Q @ us[j - 1]
        ss[j] = fvec * us[j] + Q @ ss[j - 1]
    return us, ss


def dense_draw(matrix: np.ndarray, states: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws by a search over full dense rows.

    Reference for the library's sparse sampler: the running sum of each
    whole row, with 1.0 forced at the row's last positive entry, and the
    first column whose running sum is strictly greater than u.
    """
    cumulative = np.cumsum(matrix, axis=1)
    for i, row in enumerate(matrix):
        cumulative[i, np.flatnonzero(row > 0.0)[-1]] = 1.0
    return np.argmax(cumulative[states] > u[:, None], axis=1)


def simplex_grid_recursive(d: int, steps: int) -> np.ndarray:
    """All nonnegative integer vectors of length d summing to steps.

    Reference for the library's chunked stars-and-bars grid: the first
    entry runs over 0..steps and the rest recurses, so rows come in
    lexicographic order, all at once.
    """
    if d == 1:
        return np.array([[steps]])
    rows = []
    for first in range(steps + 1):
        rest = simplex_grid_recursive(d - 1, steps - first)
        block = np.empty((rest.shape[0], d), dtype=int)
        block[:, 0] = first
        block[:, 1:] = rest
        rows.append(block)
    return np.vstack(rows)


def eig_candidates(problem: AbsorbedChainProblem):
    """Per-phase invariant laws read off a dense eigendecomposition.

    Reference for the library's class-decomposition candidates: for each
    phase, every left eigenvector of the phase survivor matrix whose
    eigenvalue is real and above 1e-9 and which, scaled by its largest
    entry, is real and nonnegative to 1e-9; laws within 1e-9 in TV of an
    earlier one are dropped.  Returns ``(phase, eigenvalue, law)`` with
    the law as a state-space vector.
    """
    P = problem.kernel.normalized
    found = []
    for m, alive in enumerate(problem.alive):
        eigvals, eigvecs = np.linalg.eig(P[np.ix_(alive, alive)].T)
        for lam, v in zip(eigvals, eigvecs.T):
            v = v / v[np.argmax(np.abs(v))]
            if abs(lam.imag) > 1e-9 or lam.real <= 1e-9:
                continue
            if np.max(np.abs(v.imag)) > 1e-9 or np.min(v.real) < -1e-9:
                continue
            law = np.zeros(problem.space.size)
            law[alive] = np.clip(v.real, 0.0, None)
            law /= law.sum()
            if all(0.5 * np.abs(law - c[2]).sum() > 1e-9 for c in found):
                found.append((m, float(lam.real), law))
    return found


# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------


def survival_paths(problem: AbsorbedChainProblem, n: int):
    """Yield every surviving trajectory (index tuple, probability).

    Pruned depth-first enumeration over the kernel support; independent
    of the lifted-matrix machinery.
    """
    space = problem.space
    P = problem.kernel.normalized
    gamma = problem.gamma
    killed = [
        frozenset(space.index(x) for x in problem.boundary.killing_set(k))
        for k in range(gamma)
    ]
    init = problem.initial.to_array(space)

    def rec(path, pr, t):
        if t == n:
            yield tuple(path), pr
            return
        x = path[-1]
        for y in range(space.size):
            q = P[x, y]
            if q > 0.0 and y not in killed[(t + 1) % gamma]:
                path.append(y)
                yield from rec(path, pr * q, t + 1)
                path.pop()

    for x0 in range(space.size):
        if init[x0] > 0.0 and x0 not in killed[0]:
            yield from rec([x0], init[x0], 0)


def conditional_law_brute(problem: AbsorbedChainProblem, n: int) -> dict[str, float]:
    """Conditioned law at time n from full path enumeration."""
    mass: dict[int, float] = {}
    total = 0.0
    for path, pr in survival_paths(problem, n):
        mass[path[-1]] = mass.get(path[-1], 0.0) + pr
        total += pr
    return {problem.space.labels[i]: m / total for i, m in mass.items()}


def survival_probability_exact(problem: AbsorbedChainProblem, n: int) -> float:
    """P(alive at n) from lifted matrix powers, inline."""
    lifted = lift_chain(problem, validate=False)
    Q = lifted.survivor_matrix
    u = np.ones(len(lifted.survivors))
    for _ in range(n):
        u = Q @ u
    return float(lifted.normalized_initial() @ u)


def survival_probability_from_state(
    problem: AbsorbedChainProblem, label: str, phase: int, n: int
) -> float:
    lifted = lift_chain(problem, validate=False)
    Q = lifted.survivor_matrix
    u = np.ones(len(lifted.survivors))
    for _ in range(n):
        u = Q @ u
    return float(u[lifted.survivor_index[(label, phase)]])


def char_poly_eval(p: float, K: int, x) -> np.ndarray:
    """Evaluate det(Q_K - x I) through the recursion itself.

    The recursion is P_{K+2} = -x P_{K+1} - p(1-p) P_K with P_0 = 1 and
    P_1 = -x; rescaling by powers of the off-diagonal product turns it
    into the Chebyshev recursion of the second kind, which is where the
    cosine spectrum comes from.  Running it at the point is numerically
    stable (Clenshaw style), unlike expanding to monomial coefficients.
    """
    RandomWalkSpec(p, K=K)
    x = np.asarray(x, dtype=float)
    pq = p * (1.0 - p)
    prev = np.ones_like(x)
    cur = -x
    for _ in range(K - 1):
        prev, cur = cur, -x * cur - pq * prev
    return cur if K >= 1 else prev


def homogeneous_kernel(
    kernel: QProcessKernel, base_phase: int = 0
) -> tuple[tuple[str, ...], np.ndarray]:
    """One-period product of the slices: a stationary gamma-step kernel."""
    first = kernel.slice_for(base_phase + 1)
    states = first.row_states
    acc = np.eye(len(states))
    for step in range(1, kernel.gamma + 1):
        acc = acc @ kernel.slice_for(base_phase + step).matrix
    return states, acc
