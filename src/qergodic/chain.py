"""Absorbed Markov chains with periodically moving killing boundaries.

The data model is deliberately small: a finite state space with string
labels, a row-stochastic transition kernel, a periodic family of killing
sets (one per phase) and an initial law supported on the phase-0
survivors.  Killing is by position in time: the walk dies the first time
it sits inside the killing set of the current phase.

Attaching the phase (time modulo the period ``gamma``) to every state
produces the *lifted* chain, whose killing set no longer moves.  All
spectral analysis downstream runs on the lifted survivor matrix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from .errors import ValidationError
from .spectral import ClassDecomposition, decompose_classes

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "ROW_SUM_TOL",
    "ABSORPTION_RADIUS_TOL",
    "StateSpace",
    "TransitionKernel",
    "MovingBoundary",
    "Distribution",
    "AbsorbedChainProblem",
    "LiftedChain",
    "validate_problem",
    "lift_chain",
    "problem_from_dict",
    "problem_to_dict",
    "load_problem",
    "save_problem",
]

# Rows are renormalized when within this absolute deficit, rejected beyond it.
ROW_SUM_TOL = 1e-12
# Almost-sure absorption requires the lifted survivor spectral radius below 1.
ABSORPTION_RADIUS_TOL = 1e-10


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class StateSpace:
    """Ordered finite set of distinct state labels."""

    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) == 0:
            raise ValidationError("state space must contain at least one state")
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError("state labels must be distinct")

    @cached_property
    def _index(self) -> dict[str, int]:
        return {x: i for i, x in enumerate(self.labels)}

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValidationError(f"unknown state label {label!r}") from None

    def __contains__(self, label) -> bool:
        return label in self._index


def _kernel_violations(kernel: "TransitionKernel", labels) -> list[str]:
    """Why the kernel is not row-stochastic within ``ROW_SUM_TOL``, naming
    rows and entries by ``labels``; empty when it is.  Reads the kernel's
    one scan, so each kernel is checked once whoever asks."""
    finite, bad, sums = kernel._scan
    violations: list[str] = []
    if not finite:
        violations.append("kernel contains non-finite entries")
    if bad is not None:
        i, j = bad
        violations.append(
            f"kernel entry out of [0, 1] at ({labels[i]!r}, {labels[j]!r}): "
            f"{float(kernel.matrix[i, j])!r}"
        )
    for i in np.flatnonzero(np.abs(sums - 1.0) > ROW_SUM_TOL):
        violations.append(
            f"kernel row not stochastic: row {i} ({labels[i]!r}) sums to {float(sums[i])!r}"
        )
    return violations


@dataclass(frozen=True, eq=False)
class TransitionKernel:
    """Row-stochastic transition matrix, rows indexed by source state.

    ``matrix`` holds the entries as given.  ``normalized``, the one form
    that arithmetic reads, is checked and built once, on first read; the
    check's scan of the entries is made once and also serves
    :func:`validate_problem`.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"kernel must be a square matrix, got shape {m.shape}")
        object.__setattr__(self, "matrix", _frozen_array(m))

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def _scan(self) -> tuple[bool, tuple[int, int] | None, np.ndarray]:
        """Whether every entry is finite, the first entry outside [0, 1]
        (None if there is none) and the row sums."""
        m = self.matrix
        sums = m.sum(axis=1)
        first_bad = None
        # min and max are NaN, so the search runs, when an entry is NaN
        if m.size and not (m.min() >= 0.0 and m.max() <= 1.0 + ROW_SUM_TOL):
            bad = np.argwhere((m < 0.0) | (m > 1.0 + ROW_SUM_TOL))
            first_bad = tuple(bad[0]) if bad.size else None
        # a row with an entry that is not finite does not sum to a finite value
        finite = bool(np.isfinite(sums).all() or np.isfinite(m).all())
        return finite, first_bad, sums

    @cached_property
    def normalized(self) -> np.ndarray:
        """Read-only copy with each row divided by its sum.

        Raises ValidationError, listing the violations of
        :func:`validate_problem` with states labelled ``'0'..'n-1'``, when
        the matrix is not row-stochastic within ``ROW_SUM_TOL``.
        """
        violations = _kernel_violations(self, [str(i) for i in range(self.size)])
        if violations:
            raise ValidationError(
                "kernel is not row-stochastic within tolerance: " + "; ".join(violations),
                violations,
            )
        normalized = self.matrix / self._scan[2][:, None]
        normalized.setflags(write=False)
        return normalized


@dataclass(frozen=True)
class MovingBoundary:
    """Periodic family of killing sets ``A_0 .. A_{gamma-1}``.

    Phase arithmetic is modulo ``gamma``; the killing set active at time n
    is ``killing_sets[n % gamma]``.
    """

    gamma: int
    killing_sets: tuple[frozenset[str], ...]

    def __post_init__(self):
        sets = tuple(frozenset(s) for s in self.killing_sets)
        object.__setattr__(self, "killing_sets", sets)
        if self.gamma < 1:
            raise ValidationError("period gamma must be a positive integer")
        if len(sets) != self.gamma:
            raise ValidationError(
                f"expected {self.gamma} killing sets, got {len(sets)}"
            )

    def killing_set(self, phase: int) -> frozenset[str]:
        return self.killing_sets[phase % self.gamma]


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probability weights over a labelled state set, held in a read-only
    mapping."""

    weights: Mapping[str, float]

    def __post_init__(self):
        weights = {k: float(v) for k, v in dict(self.weights).items()}
        object.__setattr__(self, "weights", MappingProxyType(weights))

    def __reduce__(self):
        # A mapping proxy cannot be pickled or copied; its dict can.
        return Distribution, (dict(self.weights),)

    @classmethod
    def point_mass(cls, label: str) -> "Distribution":
        return cls({label: 1.0})

    @classmethod
    def uniform(cls, labels: Iterable[str]) -> "Distribution":
        labels = list(labels)
        return cls({x: 1.0 / len(labels) for x in labels})

    @classmethod
    def from_array(cls, space: StateSpace, vec: np.ndarray) -> "Distribution":
        vec = np.asarray(vec, dtype=float)
        return cls({x: float(v) for x, v in zip(space.labels, vec) if v != 0.0})

    def to_array(self, space: StateSpace) -> np.ndarray:
        vec = np.zeros(space.size)
        for label, w in self.weights.items():
            vec[space.index(label)] = w
        return vec

    def total(self) -> float:
        return float(sum(self.weights.values()))

    def support(self) -> frozenset[str]:
        return frozenset(x for x, w in self.weights.items() if w > 0.0)

    def tv_distance(self, other: "Distribution") -> float:
        keys = {**self.weights, **other.weights}  # a fixed summation order
        return 0.5 * sum(
            abs(self.weights.get(k, 0.0) - other.weights.get(k, 0.0)) for k in keys
        )


def _check_weights(vec: np.ndarray) -> None:
    """The one check on the weights of a law given to an analysis: raises
    ValidationError unless each is finite and nonnegative."""
    if not (np.isfinite(vec) & (vec >= 0.0)).all():
        raise ValidationError("law has weights that are negative or not finite")


@dataclass(frozen=True, eq=False)
class AbsorbedChainProblem:
    """A chain, its moving boundary and the initial law.

    Valid problems additionally satisfy: the initial law is supported on
    the phase-0 survival set, and absorption is almost sure from every
    survivor (the lifted survivor matrix has spectral radius below 1).
    Run :func:`validate_problem` to obtain a report of violations.
    ``alive[k, i]`` says whether state i survives phase k; every module
    reads the boundary through this one array.  Every part of a problem
    is immutable, so ``alive`` and the kernel's ``normalized``, built on
    first use and kept, cannot go stale.
    """

    space: StateSpace
    kernel: TransitionKernel
    boundary: MovingBoundary
    initial: Distribution

    def __post_init__(self):
        if self.kernel.size != self.space.size:
            raise ValidationError(
                f"kernel size {self.kernel.size} does not match state space "
                f"size {self.space.size}"
            )

    @property
    def gamma(self) -> int:
        return self.boundary.gamma

    @cached_property
    def alive(self) -> np.ndarray:
        """Read-only ``(gamma, S)`` mask of the states outside each killing set."""
        alive = np.ones((self.gamma, self.space.size), dtype=bool)
        for k, killed in enumerate(self.boundary.killing_sets):
            unknown = sorted(x for x in killed if x not in self.space)
            if unknown:
                raise ValidationError(
                    f"killing set at phase {k} contains unknown states {unknown}"
                )
            alive[k, [self.space.index(x) for x in killed]] = False
        alive.setflags(write=False)
        return alive

    def survivors(self, phase: int) -> tuple[str, ...]:
        alive = self.alive[phase % self.gamma]
        return tuple(x for x, a in zip(self.space.labels, alive) if a)


@dataclass(frozen=True, eq=False)
class LiftedChain:
    """The chain on (state, phase) pairs with a static killing set.

    One lift serves one analysis call: every array below is built on
    first read and kept.  Lifted survivor i is state ``state[i]`` at phase
    ``phase[i]``, the positions of ``np.nonzero(problem.alive)``, so the
    order is phase-major with state-space order within a phase;
    ``survivors`` lists the same pairs by label; ``survivor_csr`` is the
    substochastic one-step matrix on them, cut from the problem's one
    ``kernel.normalized``, and the one form of the lift that the library
    reads; ``initial_vector`` carries the problem's initial
    mass placed at phase 0 (unnormalized); ``decomposition`` is the class
    decomposition of ``survivor_csr``, shared by every analysis run on
    this lift and by validation when neither the row-sum nor the lifetime
    bound settles absorption (its classes solve their Perron data on
    first read).  ``survivor_matrix`` and ``matrix`` are
    dense views for inspection, built on each read.
    """

    problem: AbsorbedChainProblem

    @property
    def gamma(self) -> int:
        return self.problem.gamma

    @cached_property
    def phase(self) -> np.ndarray:
        return _frozen_array(np.nonzero(self.problem.alive)[0], int)

    @cached_property
    def state(self) -> np.ndarray:
        return _frozen_array(np.nonzero(self.problem.alive)[1], int)

    @cached_property
    def survivors(self) -> tuple[tuple[str, int], ...]:
        labels = self.problem.space.labels
        return tuple(
            (labels[i], k) for i, k in zip(self.state.tolist(), self.phase.tolist())
        )

    @cached_property
    def survivor_index(self) -> dict[tuple[str, int], int]:
        return {s: i for i, s in enumerate(self.survivors)}

    @cached_property
    def survivor_csr(self) -> sparse.csr_array:
        from scipy import sparse

        # (x, k) -> (y, k') carries P(x, y) exactly when k' = k + 1 mod gamma;
        # the flat positions of alive are k * S + x, the order of the kron
        shift = sparse.csr_array(np.roll(np.eye(self.gamma), 1, axis=1))
        P = sparse.csr_array(self.problem.kernel.normalized)
        keep = np.flatnonzero(self.problem.alive)
        return sparse.kron(shift, P, format="csr")[keep][:, keep]

    @property
    def survivor_matrix(self) -> np.ndarray:
        """Dense copy of ``survivor_csr``, built on each read."""
        return self.survivor_csr.toarray()

    @cached_property
    def initial_vector(self) -> np.ndarray:
        weights = self.problem.initial.weights
        return _frozen_array(
            [weights.get(x, 0.0) if k == 0 else 0.0 for x, k in self.survivors]
        )

    @cached_property
    def decomposition(self) -> ClassDecomposition:
        return decompose_classes(self.survivor_csr)

    @property
    def matrix(self) -> np.ndarray:
        """The dense kernel on all (state, phase) pairs, built on each read."""
        shift = np.roll(np.eye(self.gamma), 1, axis=1)
        return np.kron(shift, self.problem.kernel.normalized)

    def normalized_initial(self) -> np.ndarray:
        total = self.initial_vector.sum()
        if total <= 0.0:
            raise ValidationError("initial law places no mass on phase-0 survivors")
        return self.initial_vector / total


def _structural_violations(problem: AbsorbedChainProblem) -> list[str]:
    """The checks of :func:`validate_problem` that need numpy only: the
    kernel, the killing sets and the initial law."""
    space = problem.space
    violations = _kernel_violations(problem.kernel, space.labels)

    for k, killed in enumerate(problem.boundary.killing_sets):
        unknown = sorted(x for x in killed if x not in space)
        if unknown:
            violations.append(
                f"killing set at phase {k} contains unknown states {unknown}"
            )
        elif len(killed) >= space.size:
            violations.append(f"empty survival set at phase {k}")

    weights = problem.initial.weights
    unknown = sorted(x for x in weights if x not in space)
    if unknown:
        violations.append(f"initial distribution names unknown states {unknown}")
    if not all(np.isfinite(w) for w in weights.values()):
        violations.append("initial distribution has non-finite weights")
    negative = sorted(x for x, w in weights.items() if w < 0.0)
    if negative:
        violations.append(f"initial distribution has negative weights at {negative}")
    total = problem.initial.total()
    if abs(total - 1.0) > ROW_SUM_TOL:
        violations.append(f"initial distribution does not sum to 1 (sum = {total!r})")
    if not unknown:
        killed0 = problem.boundary.killing_set(0)
        on_boundary = sorted(
            x for x, w in weights.items() if w > 0.0 and x in killed0
        )
        if on_boundary:
            violations.append(
                "initial distribution not supported on the phase-0 survival "
                f"set (mass on {on_boundary})"
            )
    return violations


def _lifetime_bound(Q: sparse.csr_array) -> float:
    """Collatz-Wielandt bound ``max((Q y) / y)`` on the spectral radius of
    ``Q`` at its expected lifetime y, the solution of ``(I - Q) y = 1`` by
    :func:`~qergodic.spectral._solve`; inf when the factor is singular or y
    is not finite and positive."""
    from scipy import sparse

    from .spectral import _solve  # resolved per call, so a patched _solve sees it

    try:
        y = _solve(sparse.csc_array(sparse.identity(Q.shape[0]) - Q))
    except np.linalg.LinAlgError:  # exactly singular: some survivor never dies
        return np.inf
    if not (np.isfinite(y).all() and (y > 0.0).all()):
        return np.inf
    return float(np.max((Q @ y) / y))


def validate_problem(
    problem: AbsorbedChainProblem, lifted: LiftedChain | None = None
) -> list[str]:
    """Check every invariant of a problem and report the violations.

    Returns an empty list exactly when the problem is valid.  Almost-sure
    absorption is checked only when the structural checks pass, by three
    certificates in turn.  Any positive vector y bounds the spectral
    radius by ``max((Q y) / y)`` (Collatz-Wielandt), and a bound below
    ``1 - ABSORPTION_RADIUS_TOL`` accepts:

    1. row sums: y the all-ones vector, with numpy alone;
    2. lifetime: y the expected lifetime, ``(I - Q) y = 1``, from one
       sparse LU of the survivor matrix of ``lifted`` by the library's one
       solve;
    3. Perron: the radius itself, read from the class decomposition of
       ``lifted``, which alone rejects.

    ``lifted``, the lift of ``problem``, is created when not given and
    needed.  The first two can accept a problem but never reject one.
    """
    violations = _structural_violations(problem)
    if not violations:
        alive = problem.alive
        # column k holds the mass each state keeps alive at phase k + 1
        kept = problem.kernel.normalized @ np.roll(alive, -1, axis=0).T
        if kept.T[alive].max() < 1.0 - ABSORPTION_RADIUS_TOL:
            return violations
        if lifted is None:
            lifted = LiftedChain(problem)
        if _lifetime_bound(lifted.survivor_csr) < 1.0 - ABSORPTION_RADIUS_TOL:
            return violations
        radius = max((c.rho for c in lifted.decomposition.classes), default=0.0)
        if radius >= 1.0 - ABSORPTION_RADIUS_TOL:
            violations.append(
                "absorption is not almost sure: lifted survivor matrix has "
                f"spectral radius {radius!r}"
            )
    return violations


def _raise_violations(violations: list[str]) -> None:
    if violations:
        raise ValidationError("invalid problem: " + "; ".join(violations), violations)


def lift_chain(problem: AbsorbedChainProblem, validate: bool = True) -> LiftedChain:
    """Lift the chain to (state, phase) pairs, validating the problem first.

    The lifted kernel moves ``(x, k)`` to ``(y, k+1 mod gamma)`` with the
    original probability ``P(x, y)``; the lifted killing set collects all
    ``(x, k)`` with ``x`` killed at phase ``k`` and no longer moves.
    Validation tries the certificates of :func:`validate_problem` in turn
    (row sums, lifetime, Perron) on the returned lift; only the Perron
    check decomposes it, and callers then reuse that work.
    """
    lifted = LiftedChain(problem)
    if validate:
        _raise_violations(validate_problem(problem, lifted))
    return lifted


# ---------------------------------------------------------------------------
# Problem-spec files
#
# JSON layout:
#   {"states": [...], "kernel": [[...]], "gamma": g,
#    "killing_sets": [[...], ...], "initial": {label: weight}}
# ---------------------------------------------------------------------------


def _expect(condition: bool, message: str):
    if not condition:
        raise ValidationError(message)


def _number(value, message: str) -> float:
    """``value`` as a float under the one rule for numbers read from an
    input file (kernel cells, initial weights, state-function values): a
    JSON number, not a bool, in float range.  Any other value raises
    ``ValidationError(message)``."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an integer past the largest float
            pass
    raise ValidationError(message)


def _kernel_cells(i: int, row: list) -> None:
    for j, v in enumerate(row):
        _number(v, f"field 'kernel[{i}][{j}]': expected a number")


def problem_from_dict(data: Mapping) -> AbsorbedChainProblem:
    """Build a problem from a parsed problem-spec mapping.

    Rejects malformed input with a diagnostic naming the offending field.
    """
    _expect(isinstance(data, Mapping), "problem spec must be a JSON object")
    for key in ("states", "kernel", "gamma", "killing_sets", "initial"):
        _expect(key in data, f"missing field '{key}'")

    states = data["states"]
    _expect(
        isinstance(states, list) and states,
        "field 'states': expected a nonempty list of labels",
    )
    for i, s in enumerate(states):
        _expect(isinstance(s, str), f"field 'states[{i}]': labels must be strings")
    space = StateSpace(tuple(states))

    kernel_rows = data["kernel"]
    _expect(
        isinstance(kernel_rows, list) and len(kernel_rows) == space.size,
        f"field 'kernel': expected {space.size} rows",
    )
    for i, row in enumerate(kernel_rows):
        _expect(
            isinstance(row, list) and len(row) == space.size,
            f"field 'kernel[{i}]': expected {space.size} entries",
        )
        if not set(map(type, row)) <= {int, float}:  # checked in bulk; scan to name a cell
            _kernel_cells(i, row)
    try:
        matrix = np.array(kernel_rows, dtype=float)
    except OverflowError:  # an integer cell past float range: name the first
        for i, row in enumerate(kernel_rows):
            _kernel_cells(i, row)
        raise
    kernel = TransitionKernel(matrix)

    gamma = data["gamma"]
    _expect(
        isinstance(gamma, int) and not isinstance(gamma, bool) and gamma >= 1,
        "field 'gamma': expected a positive integer",
    )
    killing = data["killing_sets"]
    _expect(
        isinstance(killing, list) and len(killing) == gamma,
        f"field 'killing_sets': expected {gamma} sets",
    )
    sets = []
    for k, entry in enumerate(killing):
        _expect(
            isinstance(entry, list),
            f"field 'killing_sets[{k}]': expected a list of labels",
        )
        for j, s in enumerate(entry):
            _expect(
                isinstance(s, str),
                f"field 'killing_sets[{k}][{j}]': labels must be strings",
            )
            _expect(
                s in space,
                f"field 'killing_sets[{k}][{j}]': unknown state {s!r}",
            )
        sets.append(frozenset(entry))
    boundary = MovingBoundary(gamma, tuple(sets))

    initial = data["initial"]
    _expect(isinstance(initial, Mapping), "field 'initial': expected an object")
    weights = {}
    for key, v in initial.items():
        _expect(isinstance(key, str), "field 'initial': keys must be state labels")
        _expect(key in space, f"field 'initial': unknown state {key!r}")
        weights[key] = _number(v, f"field 'initial[{key!r}]': expected a number")
    return AbsorbedChainProblem(space, kernel, boundary, Distribution(weights))


def problem_to_dict(problem: AbsorbedChainProblem) -> dict:
    return {
        "states": list(problem.space.labels),
        "kernel": problem.kernel.matrix.tolist(),
        "gamma": problem.gamma,
        "killing_sets": [
            sorted(s, key=problem.space.index) for s in problem.boundary.killing_sets
        ],
        "initial": {k: v for k, v in problem.initial.weights.items() if v != 0.0},
    }


def _read_json(path):
    """The JSON value in the input file at ``path``, UTF-8 text: the one
    reader of problem specs and state-function files.  Any failure to
    decode or parse raises ValidationError naming the file."""
    try:
        return json.loads(Path(path).read_bytes().decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"invalid JSON in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except (ValueError, RecursionError) as exc:
        # not UTF-8, nested too deep, or an integer longer than int() converts
        raise ValidationError(f"invalid JSON in {path}: {exc}") from None


def load_problem(path) -> AbsorbedChainProblem:
    return problem_from_dict(_read_json(path))


def save_problem(problem: AbsorbedChainProblem, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(problem_to_dict(problem), fh, indent=2)
        fh.write("\n")
