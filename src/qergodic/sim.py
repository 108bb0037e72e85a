"""Seeded Monte Carlo for absorbed trajectories and the conditioned chain.

Every random number is a pure function of (seed, trajectory index, step),
computed with a counter-based 64-bit mixer.  Trajectories therefore do
not share state: shards only partition the index range, so any shard
layout reproduces the same paths bit for bit, and headline statistics are
reduced once over per-trajectory arrays to keep them layout-independent.

Each step draws a successor by inverse CDF over the positive entries of
the current row only: a bisection over that row's running sums, so a step
costs O(paths · log deg) for rows with at most deg positive entries.  The
running sums are the dense row cumsums with the zero entries dropped, and
adding 0.0 is exact, so every draw equals the first-column-above-u search
over the full dense row.

One step loop, ``_engine``, draws every path from a row sampler, an initial
law and a periodic mask of killed states: the absorbed chain passes its
kernel and killing sets, the conditioned-forever chain its phase slices
as one row-stochastic matrix on the class, with no state killed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .chain import AbsorbedChainProblem, Distribution, _raise_violations, _structural_violations
from .conditioning import state_function
from .errors import NoSurvivorsError, ValidationError
from .qprocess import QProcessKernel

__all__ = [
    "SimConfig",
    "EstimateWithCI",
    "ConditionalEstimates",
    "estimate_conditionals",
    "survival_curve",
    "simulate_qprocess",
]

LOW_SAMPLE_THRESHOLD = 100

_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1  # a new array, updated in place below
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _path_keys(traj: np.ndarray) -> np.ndarray:
    """The mixed key of each trajectory index, the part of every draw that
    depends on the trajectory alone."""
    return _mix64(traj.astype(np.uint64) + _GOLDEN)


def _uniforms(seed: int, keys: np.ndarray, step: int) -> np.ndarray:
    """Uniform [0, 1) draws keyed by (seed, trajectory, step), for the
    trajectories whose ``_path_keys`` are ``keys``."""
    with np.errstate(over="ignore"):
        h = _mix64(keys ^ _mix64(np.uint64(step & 0xFFFFFFFFFFFFFFFF) + _GOLDEN))
        h = _mix64(h ^ np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
    return (h >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


class _RowSampler:
    """Inverse-CDF draws from the rows of a row-stochastic matrix, each of
    which has a positive entry.

    Stores, CSR-style, the column of each positive entry and the running
    sum of its row up to it.  Each row is summed on its own, left to right,
    so the sums equal the dense row cumsums bit for bit; the last positive
    entry of each row is set to 1.0, so a u above a row's rounded total
    still lands on a column with positive probability.
    """

    def __init__(self, matrix: np.ndarray):
        rows, cols = np.nonzero(matrix > 0.0)
        counts = np.bincount(rows, minlength=matrix.shape[0])
        self.indptr = np.concatenate(([0], np.cumsum(counts)))
        self.indices = cols
        slot = np.arange(rows.size) - self.indptr[rows]
        block = np.zeros((matrix.shape[0], int(counts.max())))
        block[rows, slot] = matrix[rows, cols]
        self.cumulative = np.cumsum(block, axis=1)[rows, slot]
        self.cumulative[self.indptr[1:] - 1] = 1.0
        self._halvings = int(counts.max() - 1).bit_length()

    def draw(self, states: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Column of the first positive entry of row ``states[i]`` whose
        running sum is strictly greater than ``u[i]``, for u in [0, 1)."""
        lo = self.indptr[states]
        hi = self.indptr[states + 1] - 1
        for _ in range(self._halvings):
            mid = (lo + hi) >> 1
            above = self.cumulative[mid] > u
            hi = np.where(above, mid, hi)
            lo = np.where(above, lo, mid + 1)
        return self.indices[lo]


def _path_dtype(n_states: int) -> np.dtype:
    """Smallest signed type, at least int16, holding -1 and every state index."""
    return np.promote_types(np.int16, np.min_scalar_type(-n_states))


@dataclass(frozen=True)
class SimConfig:
    """Reproducibility contract: same (seed, trajectories, horizon) means
    identical output for every shard count."""

    seed: int
    trajectories: int
    horizon: int
    shards: int = 1

    def __post_init__(self):
        for name in ("seed", "trajectories", "horizon", "shards"):
            value = getattr(self, name)
            try:  # kept as an int: a numpy seed would overflow the key mixing
                if isinstance(value, bool):  # operator.index(True) is 1
                    raise TypeError
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValidationError(f"{name} must be an integer, got {value!r}") from None
        if self.trajectories < 1 or self.horizon < 0 or self.shards < 1:
            raise ValidationError(
                "trajectories and shards must be positive, horizon nonnegative"
            )

    def shard_ranges(self) -> list[tuple[int, int]]:
        per = -(-self.trajectories // self.shards)
        return [
            (lo, min(lo + per, self.trajectories))
            for lo in range(0, self.trajectories, per)
        ]


@dataclass(frozen=True)
class EstimateWithCI:
    """Point estimate with its standard error over surviving trajectories."""

    value: float
    standard_error: float
    survivors: int

    @property
    def low_sample(self) -> bool:
        return self.survivors < LOW_SAMPLE_THRESHOLD


@dataclass(frozen=True, eq=False)
class ConditionalEstimates:
    """Survivor statistics at the horizon, plus per-step counts.

    ``law`` is the empirical distribution of the state at the horizon
    among survivors; ``mean_ratio`` estimates the conditioned time
    average of f.  ``survivor_counts[n]`` and ``law_counts[n]`` hold the
    per-step survivor tallies (integer, hence exact across shard
    layouts).
    """

    law: Distribution
    mean_ratio: EstimateWithCI
    survivor_counts: np.ndarray
    law_counts: np.ndarray
    labels: tuple[str, ...]


def _engine(sampler: _RowSampler, initial: np.ndarray, killed: np.ndarray,
            config: SimConfig, fvec, record: str | None):
    """Step every trajectory of ``config``: step 0 draws from the law
    ``initial`` and each later step from ``sampler``; a trajectory dies at
    step t on a state that ``killed[t % len(killed)]`` marks.

    Returns ``(tau, fsum, survivor_counts, kept)``: ``kept`` is what
    ``record`` names, the ``"paths"`` (trajectory by step, -1 once
    absorbed), the ``"laws"`` (survivors per step and state), or None.
    """
    n_states = initial.size
    initial_sampler = _RowSampler(initial[None, :])

    n_traj, horizon = config.trajectories, config.horizon
    tau = np.full(n_traj, -1, dtype=np.int64)
    fsum = np.zeros(n_traj) if fvec is not None else None
    kept = None
    if record == "paths":
        kept = np.full((n_traj, horizon + 1), -1, dtype=_path_dtype(n_states))
    elif record == "laws":
        kept = np.zeros((horizon + 1, n_states), dtype=np.int64)
    survivor_counts = np.zeros(horizon + 1, dtype=np.int64)

    for lo, hi in config.shard_ranges():
        alive_idx = np.arange(lo, hi, dtype=np.int64)
        keys = _path_keys(alive_idx)
        states = np.zeros(hi - lo, dtype=np.int64)  # the initial law's one row
        for t in range(horizon + 1):
            if alive_idx.size == 0:
                break
            if fvec is not None and t:
                fsum[alive_idx] += fvec[states]
            u = _uniforms(config.seed, keys, t)
            states = (sampler if t else initial_sampler).draw(states, u)
            if record == "paths":
                kept[alive_idx, t] = states
            dead_now = killed[t % len(killed)][states]
            if dead_now.any():
                tau[alive_idx[dead_now]] = t
                alive_idx = alive_idx[~dead_now]
                keys = keys[~dead_now]
                states = states[~dead_now]
            survivor_counts[t] += alive_idx.size
            if record == "laws":
                kept[t] += np.bincount(states, minlength=n_states)

    return tau, fsum, survivor_counts, kept


def _absorbed_engine(problem: AbsorbedChainProblem, config: SimConfig, fvec,
                     record: str | None):
    """``_engine`` on the problem's kernel, initial law and killing sets,
    once the problem passes the structural checks of ``validate_problem``.
    The absorption check is left out: it decomposes the lift, which needs
    scipy, and the simulation needs numpy only."""
    _raise_violations(_structural_violations(problem))
    init = problem.initial.to_array(problem.space)
    return _engine(
        _RowSampler(problem.kernel.normalized), init / init.sum(), ~problem.alive,
        config, fvec, record,
    )


def estimate_conditionals(
    problem: AbsorbedChainProblem, f, config: SimConfig
) -> ConditionalEstimates:
    """Estimate the conditioned law at the horizon and the mean ratio of f.

    The mean ratio averages ``(1/n) sum_{k<n} f(X_k)`` over trajectories
    alive at the horizon; its standard error comes from the surviving
    sample alone.
    """
    if config.horizon < 1:
        raise ValidationError("horizon must be at least 1 for conditional estimates")
    fvec = state_function(problem, f)
    tau, fsum, survivor_counts, law_counts = _absorbed_engine(
        problem, config, fvec, record="laws"
    )
    alive = tau < 0
    n_surv = int(alive.sum())
    if n_surv == 0:
        raise NoSurvivorsError(
            f"no trajectory survived to horizon {config.horizon}; increase the "
            f"trajectory budget (currently {config.trajectories}) or lower the "
            "horizon"
        )
    ratios = fsum[alive] / config.horizon
    point = float(ratios.mean())
    se = (
        float(ratios.std(ddof=1) / np.sqrt(n_surv)) if n_surv > 1 else float("inf")
    )
    law = Distribution(
        {
            x: float(c) / n_surv
            for x, c in zip(problem.space.labels, law_counts[config.horizon])
            if c > 0
        }
    )
    return ConditionalEstimates(
        law=law,
        mean_ratio=EstimateWithCI(point, se, n_surv),
        survivor_counts=survivor_counts,
        law_counts=law_counts,
        labels=problem.space.labels,
    )


def _survival_estimate(survivor_counts: np.ndarray, trajectories: int):
    """Survival fractions per step with their binomial standard errors."""
    p_hat = survivor_counts / trajectories
    se = np.sqrt(np.clip(p_hat * (1.0 - p_hat), 0.0, None) / trajectories)
    return p_hat, se


def survival_curve(
    problem: AbsorbedChainProblem, config: SimConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Empirical survival probabilities per step with binomial errors."""
    _, _, survivor_counts, _ = _absorbed_engine(problem, config, None, record=None)
    return _survival_estimate(survivor_counts, config.trajectories)


def simulate_qprocess(
    kernel: QProcessKernel, x: str, steps: int, seed: int, paths: int = 1
) -> list[list[str]]:
    """Simulate the conditioned-forever chain from x for a number of steps.

    Returns one label sequence per path; by construction the chain never
    meets the killing sets.
    """
    kernel._check_start(x)
    # y at phase k is position offset[k] + (column of y in slice k); its row
    # is slice k+1's row for y, so each row's running sums are its slice's.
    slices = kernel.slices
    offset = np.cumsum([0] + [len(sl.col_states) for sl in slices])
    labels = np.array([y for sl in slices for y in sl.col_states], dtype=object)
    n = labels.size
    matrix = np.zeros((n, n))
    for k, sl in enumerate(slices):
        prev = (k - 1) % kernel.gamma
        row_of = {y: i for i, y in enumerate(sl.row_states)}
        order = [row_of[y] for y in slices[prev].col_states]
        matrix[offset[prev]:offset[prev + 1], offset[k]:offset[k + 1]] = sl.matrix[order]
    initial = np.zeros(n)
    initial[slices[0].col_states.index(x)] = 1.0
    _, _, _, positions = _engine(
        _RowSampler(matrix), initial, np.zeros((1, n), dtype=bool),
        SimConfig(seed, paths, steps), None, record="paths",
    )
    return labels[positions].tolist()
