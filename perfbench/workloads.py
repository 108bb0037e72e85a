"""The three benchmark workloads: seeded inputs, operations and their checks.

Each workload builds its problem from the benchmark seed, writes the spec
and state-function JSON files the CLI reads, and lists its operations.
Every operation has a check against a reference that does not share the
code path under test: a closed form, the benchmark's own sparse
recursion or ARPACK Perron solve over its own lifted matrix, or the
exact oracle.  Tolerances are the ones the acceptance suite pins.
"""

from __future__ import annotations

import csv
import json
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import eigs

from qergodic import chain, conditioning, qed, qprocess, sim, walks

# Acceptance-suite tolerances.
QED_TOL = 1e-9          # spectral QED against the closed form
QPROCESS_TOL = 1e-10    # q-process row sums and closed form
ORACLE_LIMIT_TOL = 1e-2  # exact oracle against the QED limit; pinned at n=2000,
# checked here at n=500, where the O(1/n) bias is larger
QLAW_TOL = 1e-6         # finite-horizon q-law against the forever kernel
CYCLE_TV_TOL = 1e-12    # limit cycle of a moving walk has TV distance 1
MC_SIGMAS = 3.0         # Monte Carlo concordance
# The exact oracle against the benchmark's own recursion: same arithmetic,
# another summation order.
RECURSION_RTOL = 1e-9

KNOWN_QPROCESS_DEFECT = (
    "power iteration stops short of full accuracy on the walk's slow class"
)
# A walk q-process miss counts as that defect only up to this size (1.73e-10
# is observed at N=100, p=0.45); a larger miss, or other states, is a failure.
KNOWN_QPROCESS_CEILING = 1e-9


class OpTimeout(Exception):
    """An operation overran the per-operation time cap."""


@dataclass
class Outcome:
    """One correctness check of one operation result."""

    name: str
    ok: bool
    detail: str
    known_defect: str | None = None


@dataclass
class Op:
    """One timed operation: a library call, or a spawned CLI command."""

    name: str
    stage: str
    run: Callable
    check: Callable
    cli: bool = False


@dataclass
class Context:
    """A workload's inputs, references and first results, for one run."""

    seed: int
    outdir: Path
    env: dict
    params: dict
    problem: object = None
    f: dict = None
    spec_path: Path = None
    f_path: Path = None
    refs: dict = field(default_factory=dict)
    first: dict = field(default_factory=dict)


def sub_seed(seed: int, purpose: int) -> int:
    """A 32-bit seed for one use of the benchmark seed (any integer)."""
    entropy = [seed & 0xFFFFFFFFFFFFFFFF, purpose]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / max(abs(reference), 1e-300)


def within(name: str, err: float, tol: float, known: str | None = None) -> Outcome:
    return Outcome(name, bool(err <= tol), f"{err:.3g} (tolerance {tol:g})", known)


def write_inputs(ctx: Context, spec: dict) -> None:
    ctx.spec_path = ctx.outdir / "spec.json"
    ctx.f_path = ctx.outdir / "f.json"
    ctx.spec_path.write_text(json.dumps(spec), encoding="utf-8")
    ctx.f_path.write_text(json.dumps(ctx.f), encoding="utf-8")


# ---------------------------------------------------------------------------
# The benchmark's own lifted chain: a sparse matrix on (state, phase) pairs,
# built from the kernel and killing sets without the library's lift.
# ---------------------------------------------------------------------------


@dataclass
class OwnLift:
    Q: csr_matrix
    states: np.ndarray  # state index of each lifted position
    phases: np.ndarray
    mu0: np.ndarray     # normalized initial law at phase 0

    def lifted(self, values: np.ndarray) -> np.ndarray:
        return values[self.states]


def own_lift(problem) -> OwnLift:
    P = problem.kernel.matrix / problem.kernel.matrix.sum(axis=1)[:, None]
    space = problem.space
    gamma = problem.gamma
    alive = np.ones((gamma, space.size), dtype=bool)
    for k, killed in enumerate(problem.boundary.killing_sets):
        alive[k, [space.index(x) for x in killed]] = False
    index = np.full((gamma, space.size), -1)
    index[alive] = np.arange(int(alive.sum()))
    phases, states = np.nonzero(alive)
    xs, ys = np.nonzero(P)
    rows, cols, data = [], [], []
    for k in range(gamma):
        k1 = (k + 1) % gamma
        keep = alive[k, xs] & alive[k1, ys]
        rows.append(index[k, xs[keep]])
        cols.append(index[k1, ys[keep]])
        data.append(P[xs[keep], ys[keep]])
    n = len(states)
    Q = csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )
    mu0 = np.where(phases == 0, problem.initial.to_array(space)[states], 0.0)
    return OwnLift(Q, states, phases, mu0 / mu0.sum())


def own_mean_ratios(lift: OwnLift, fvec: np.ndarray, ns) -> dict[int, float]:
    """Conditioned time averages by the recursion u <- Qu, s <- f u + Qs."""
    f_lift = lift.lifted(fvec)
    u = np.ones(lift.Q.shape[0])
    s = np.zeros_like(u)
    out = {}
    for step in range(1, max(ns) + 1):
        u = lift.Q @ u
        s = f_lift * u + lift.Q @ s
        peak = u.max()
        u /= peak
        s /= peak
        if step in ns:
            out[step] = float(lift.mu0 @ s) / (step * float(lift.mu0 @ u))
    return out


def own_survival(lift: OwnLift, n: int) -> float:
    """Probability of surviving n steps from the initial law."""
    u = np.ones(lift.Q.shape[0])
    for _ in range(n):
        u = lift.Q @ u
    return float(lift.mu0 @ u)


def fvec_of(ctx: Context) -> np.ndarray:
    return np.array([ctx.f.get(x, 0.0) for x in ctx.problem.space.labels])


def dist_tv(dist, reference: dict) -> float:
    keys = set(dist.weights) | set(reference)
    return 0.5 * sum(abs(dist.weights.get(k, 0.0) - reference.get(k, 0.0)) for k in keys)


# ---------------------------------------------------------------------------
# CLI operations
# ---------------------------------------------------------------------------


@dataclass
class CliRun:
    returncode: int
    stderr: str
    report: dict | None
    files: list[Path]

    @property
    def report_kb(self) -> float:
        return sum(p.stat().st_size for p in self.files if p.exists()) / 1024.0


def run_cli(ctx: Context, name: str, args: list[str], cap: float, csv_suffixes=()) -> CliRun:
    out = ctx.outdir / f"cli_{name}.json"
    files = [out] + [out.with_name(out.stem + s) for s in csv_suffixes]
    for path in files:
        path.unlink(missing_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qergodic.cli", *args, "--out", str(out)],
            env=ctx.env,
            cwd=ctx.outdir,
            capture_output=True,
            text=True,
            timeout=cap,
        )
    except subprocess.TimeoutExpired:
        raise OpTimeout(f"qergodic {args[0]} overran {cap:g} s") from None
    report = json.loads(out.read_text()) if out.exists() else None
    return CliRun(proc.returncode, proc.stderr.strip()[-300:], report, files)


def cli_ok(run: CliRun) -> Outcome:
    return Outcome(
        "exit status", run.returncode == 0 and run.report is not None,
        f"exit {run.returncode} {run.stderr}".strip(),
    )


def spawn_import(env: dict, module: str) -> float:
    """Wall time of a fresh interpreter importing one module."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", f"import {module}"], env=env, check=True)
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# walk-spectral
# ---------------------------------------------------------------------------


class WalkSpectral:
    name = "walk-spectral"
    why = (
        "moving walk N=100: two period-2 classes with gap ~1/N^2, so power "
        "iteration in spectral dominates QED and q-process"
    )

    def params(self, tiny: bool) -> dict:
        return {"p": 0.45, "N": 6 if tiny else 100, "n": 200 if tiny else 2000}

    def setup(self, ctx: Context) -> None:
        p, N = ctx.params["p"], ctx.params["N"]
        ctx.problem = walks.moving_walk(p, N, initial=str(N + 1))
        ctx.f = {str(x): x / (2 * N) for x in range(2 * N + 1)}
        write_inputs(ctx, chain.problem_to_dict(ctx.problem))
        eta = walks.moving_walk_qed(N, "odd").weights
        ctx.refs.update(
            eta=eta,
            rho=walks.moving_walk_rho(p, N, "odd"),
            phi=sum(ctx.f[x] * w for x, w in eta.items()),
            kernel=walks.qprocess_closed_form(p, N, "odd"),
        )

    def reference(self, ctx: Context) -> None:
        lift = own_lift(ctx.problem)
        ctx.refs["lift"] = lift
        ctx.refs["oracle"] = own_mean_ratios(lift, fvec_of(ctx), {ctx.params["n"]})

    def ops(self) -> list[Op]:
        return [
            Op("qed", "qed_s", lambda c, cap: qed.qed_moving(c.problem, c.f), check_walk_qed),
            Op("qprocess", "qprocess_s",
               lambda c, cap: qprocess.build_qprocess_dominant(c.problem), check_walk_qprocess),
            Op("oracle", "oracle_s",
               lambda c, cap: conditioning.mean_ratio_curve(c.problem, c.f, [c.params["n"]]),
               check_oracle),
            Op("qld_cycle", "qld_cycle_s",
               lambda c, cap: conditioning.qld_cycle(c.problem), check_cycle),
            Op("cli_analyze", "cli_s",
               lambda c, cap: run_cli(c, "analyze", ["analyze", "--in", str(c.spec_path)], cap),
               check_cli_analyze, cli=True),
        ]


def check_walk_qed(ctx: Context, result) -> list[Outcome]:
    return [
        within("eta vs closed form (TV)", dist_tv(result.eta_distribution, ctx.refs["eta"]), QED_TOL),
        within("rho vs closed form (rel)", rel_err(result.rho, ctx.refs["rho"]), QED_TOL),
        within("phi vs closed form", abs(result.phi - ctx.refs["phi"]), QED_TOL),
    ]


def kernel_error(kernel, reference) -> float:
    """Largest entry difference; 1, the largest possible, if the states differ."""
    if len(kernel.slices) != len(reference.slices):
        return 1.0
    err = 0.0
    for got, want in zip(kernel.slices, reference.slices):
        if got.row_states != want.row_states or got.col_states != want.col_states:
            return 1.0
        err = max(err, float(np.max(np.abs(got.matrix - want.matrix))))
    return err


def check_walk_qprocess(ctx: Context, kernel) -> list[Outcome]:
    err = kernel_error(kernel, ctx.refs["kernel"])
    known = KNOWN_QPROCESS_DEFECT if err <= KNOWN_QPROCESS_CEILING else None
    return [
        within("row-sum deviation", kernel.row_sum_deviation, QPROCESS_TOL),
        within("kernel vs closed form", err, QPROCESS_TOL, known),
    ]


def check_oracle(ctx: Context, curve) -> list[Outcome]:
    n = ctx.params["n"]
    value = float(curve[0])
    out = [within("vs own sparse recursion (rel)", rel_err(value, ctx.refs["oracle"][n]),
                  RECURSION_RTOL)]
    if "oracle_limit" in ctx.refs:
        out.append(within("vs ARPACK limit phi", abs(value - ctx.refs["oracle_limit"]),
                          ORACLE_LIMIT_TOL))
    return out


def check_cycle(ctx: Context, cycle) -> list[Outcome]:
    return [
        Outcome("period >= 2", cycle.period >= 2, f"period {cycle.period}"),
        within("1 - max pairwise TV", 1.0 - cycle.max_pairwise_tv, CYCLE_TV_TOL),
    ]


def check_cli_analyze(ctx: Context, run: CliRun) -> list[Outcome]:
    out = [cli_ok(run)]
    if out[0].ok:
        report = run.report
        want = ctx.refs["lift"].Q.shape[0]
        out.append(Outcome("lifted survivors", report["lifted_survivors"] == want,
                           f"{report['lifted_survivors']} vs {want}"))
        out.append(within("spectral radius vs closed form (rel)",
                          rel_err(report["spectral_radius"], ctx.refs["rho"]), QED_TOL))
    return out


# ---------------------------------------------------------------------------
# sparse-oracle
# ---------------------------------------------------------------------------


def random_chain(seed: int, size: int, gamma: int, degree: int, kill: float, leak: float) -> dict:
    """Problem spec of a seeded sparse gamma-periodic chain.

    Every row sends ``leak`` to a sink state killed at every phase, so
    absorption is almost sure by construction; the rest goes to
    ``degree`` distinct targets.  At each phase a fraction ``kill`` of
    the other states is killed, the same count at every seed so that the
    lifted size does not vary; the start is uniform on the phase-0
    survivors.
    """
    rng = np.random.default_rng(sub_seed(seed, 1))
    sink = size - 1
    labels = [f"s{i}" for i in range(size)]
    kernel = np.zeros((size, size))
    for i in range(sink):
        targets = rng.choice(sink, size=degree, replace=False)
        weights = rng.random(degree) + 0.1
        kernel[i, targets] = (1.0 - leak) * weights / weights.sum()
        kernel[i, sink] += leak
    kernel[sink, sink] = 1.0
    killing_sets = []
    for _ in range(gamma):
        killed = np.sort(rng.choice(sink, size=round(kill * sink), replace=False))
        killing_sets.append([labels[i] for i in killed] + [labels[sink]])
    alive0 = [x for x in labels if x not in set(killing_sets[0])]
    return {
        "states": labels,
        "kernel": kernel.tolist(),
        "gamma": gamma,
        "killing_sets": killing_sets,
        "initial": {x: 1.0 / len(alive0) for x in alive0},
    }


def perron_pair(A: csr_matrix) -> tuple[float, np.ndarray]:
    """Perron root and positive eigenvector of an irreducible sparse matrix.

    ARPACK returns the eigenvalues of largest modulus; for a periodic
    class they tie in modulus, and the Perron root is the real positive
    one among them.
    """
    n = A.shape[0]
    vals, vecs = eigs(A, k=min(8, n - 2), which="LM", ncv=min(n, 48), tol=0.0)
    top = np.abs(vals).max()
    peripheral = np.flatnonzero(np.abs(vals) >= top * (1.0 - 1e-8))
    i = peripheral[np.argmax(vals[peripheral].real)]
    vec = vecs[:, i] / vecs[np.argmax(np.abs(vecs[:, i])), i]
    return float(vals[i].real), np.abs(vec.real)


class SparseOracle:
    name = "sparse-oracle"
    why = (
        "seeded sparse gamma=5 chain, ~1,100 lifted survivors, large gap: cost is "
        "the dense lift, the dense survival sweeps and q-process assembly"
    )

    def params(self, tiny: bool) -> dict:
        return {
            "size": 30 if tiny else 250, "gamma": 5, "degree": 4, "kill": 0.10,
            "leak": 0.01, "n": 200 if tiny else 500, "m": 200 if tiny else 500,
            "cylinder": 3, "n_cli": 100 if tiny else 250,
        }

    def setup(self, ctx: Context) -> None:
        p = ctx.params
        spec = random_chain(ctx.seed, p["size"], p["gamma"], p["degree"], p["kill"], p["leak"])
        ctx.problem = chain.problem_from_dict(spec)
        rng = np.random.default_rng(sub_seed(ctx.seed, 2))
        ctx.f = {x: float(v) for x, v in zip(spec["states"], rng.random(p["size"]))}
        write_inputs(ctx, spec)

    def reference(self, ctx: Context) -> None:
        p = ctx.params
        problem = ctx.problem
        lift = own_lift(problem)
        _, labels = connected_components(lift.Q, directed=True, connection="strong")
        dominant = np.flatnonzero(labels == np.bincount(labels).argmax())
        A = lift.Q[dominant][:, dominant]
        rho, xi = perron_pair(A)
        _, nu = perron_pair(A.T.tocsr())
        eta = np.zeros(lift.Q.shape[0])
        eta[dominant] = nu * xi / (nu @ xi)
        xi_full = np.zeros(lift.Q.shape[0])
        xi_full[dominant] = xi
        fvec = fvec_of(ctx)

        # A seeded cylinder from a phase-0 state of the dominant class,
        # following positive transitions that stay in it.
        rng = np.random.default_rng(sub_seed(ctx.seed, 3))
        starts = [i for i in dominant if lift.phases[i] == 0]
        pos = int(rng.choice(starts))
        x = problem.space.labels[lift.states[pos]]
        cylinder, prob = [], 1.0
        for _ in range(p["cylinder"]):
            row = lift.Q.getrow(pos)
            inside = [j for j in row.indices if xi_full[j] > 0.0]
            nxt = int(rng.choice(inside))
            prob *= lift.Q[pos, nxt] * xi_full[nxt] / (rho * xi_full[pos])
            pos = nxt
            cylinder.append(problem.space.labels[lift.states[pos]])

        ctx.refs.update(
            lift=lift,
            rho=rho,
            xi=xi_full,
            eta_lifted=eta,
            eta=dict(zip(problem.space.labels,
                         np.bincount(lift.states, weights=eta, minlength=problem.space.size))),
            oracle_limit=float(lift.lifted(fvec) @ eta),
            class_states={(problem.space.labels[lift.states[i]], int(lift.phases[i]))
                          for i in dominant},
            oracle=own_mean_ratios(lift, fvec, {p["n"], p["n_cli"]}),
            qlaw_start=x,
            cylinder=cylinder,
            cylinder_prob=prob,
        )

    def ops(self) -> list[Op]:
        return [
            Op("qed", "qed_s", lambda c, cap: qed.qed_moving(c.problem, c.f), check_sparse_qed),
            Op("qprocess", "qprocess_s",
               lambda c, cap: qprocess.build_qprocess_dominant(c.problem), check_sparse_qprocess),
            Op("oracle", "oracle_s",
               lambda c, cap: conditioning.mean_ratio_curve(c.problem, c.f, [c.params["n"]]),
               check_oracle),
            Op("qlaw", "qlaw_s",
               lambda c, cap: qprocess.finite_horizon_qlaw(
                   c.problem, c.refs["qlaw_start"], c.refs["cylinder"], c.params["m"]),
               check_qlaw),
            Op("cli_oracle", "cli_s",
               lambda c, cap: run_cli(
                   c, "oracle",
                   ["oracle", "--in", str(c.spec_path), "--f", str(c.f_path),
                    "--n", str(c.params["n_cli"])],
                   cap, ("_mean_ratio.csv", "_conditional_laws.csv")),
               check_cli_oracle, cli=True),
        ]


def check_sparse_qed(ctx: Context, result) -> list[Outcome]:
    return [
        within("eta vs ARPACK Perron pair (TV)",
               dist_tv(result.eta_distribution, ctx.refs["eta"]), QED_TOL),
        within("rho vs ARPACK (rel)", rel_err(result.rho, ctx.refs["rho"]), QED_TOL),
        within("phi vs ARPACK eta-average of f", abs(result.phi - ctx.refs["oracle_limit"]),
               QED_TOL),
    ]


def own_kernel_error(ctx: Context, kernel) -> float:
    """Largest entry difference from Q[i,j] xi[j] / (rho xi[i]) on the own lift.

    1, the largest possible, if the slices do not list, phase by phase and
    in the order of the state space, the class states the own lift has.
    """
    lift, xi, rho = ctx.refs["lift"], ctx.refs["xi"], ctx.refs["rho"]
    labels = ctx.problem.space.labels
    index = {(labels[s], int(k)): i for i, (s, k) in enumerate(zip(lift.states, lift.phases))}
    gamma = ctx.problem.gamma
    by_phase = [[] for _ in range(gamma)]
    for i in sorted(np.flatnonzero(xi > 0.0), key=lambda i: lift.states[i]):
        by_phase[lift.phases[i]].append(labels[lift.states[i]])
    if len(kernel.slices) != gamma:
        return 1.0
    err = 0.0
    for phase, sl in enumerate(kernel.slices):
        prev = (phase - 1) % gamma
        if list(sl.row_states) != by_phase[prev] or list(sl.col_states) != by_phase[phase]:
            return 1.0
        rows = [index[(y, prev)] for y in sl.row_states]
        cols = [index[(z, phase)] for z in sl.col_states]
        want = lift.Q[rows][:, cols].toarray() * xi[cols][None, :] / (rho * xi[rows][:, None])
        err = max(err, float(np.max(np.abs(sl.matrix - want))))
    return err


def check_sparse_qprocess(ctx: Context, kernel) -> list[Outcome]:
    same = set(kernel.class_states) == ctx.refs["class_states"]
    return [
        within("row-sum deviation", kernel.row_sum_deviation, QPROCESS_TOL),
        Outcome("class is the dominant component", same,
                f"{len(kernel.class_states)} vs {len(ctx.refs['class_states'])} states"),
        within("kernel vs own lift and ARPACK pair", own_kernel_error(ctx, kernel),
               QPROCESS_TOL),
    ]


def check_qlaw(ctx: Context, value) -> list[Outcome]:
    return [within("vs forever-kernel cylinder from ARPACK (rel)",
                   rel_err(value, ctx.refs["cylinder_prob"]), QLAW_TOL)]


def check_cli_oracle(ctx: Context, run: CliRun) -> list[Outcome]:
    out = [cli_ok(run)]
    if out[0].ok:
        n = ctx.params["n_cli"]
        out.append(within("mean ratio vs own sparse recursion (rel)",
                          rel_err(run.report["mean_ratio"], ctx.refs["oracle"][n]), RECURSION_RTOL))
        with open(run.report["mean_ratio_csv"], newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        out.append(Outcome("CSV rows", len(rows) == n + 1 and float(rows[-1][1]) == run.report["mean_ratio"],
                           f"{len(rows) - 1} rows"))
    return out


# ---------------------------------------------------------------------------
# montecarlo
# ---------------------------------------------------------------------------


class MonteCarlo:
    name = "montecarlo"
    why = (
        "moving walk N=200 from a uniform start: the dense-row sampler in sim "
        "does nearly all the work, spectral none"
    )

    def params(self, tiny: bool) -> dict:
        return {
            "p": 0.45, "N": 8 if tiny else 200, "paths": 400 if tiny else 4_000,
            "horizon": 30 if tiny else 200, "qsim_paths": 100 if tiny else 2000,
            "qsim_steps": 30 if tiny else 200, "shards": 4,
        }

    def setup(self, ctx: Context) -> None:
        p, N = ctx.params["p"], ctx.params["N"]
        ctx.problem = walks.moving_walk(p, N)
        ctx.f = {str(x): x / (2 * N) for x in range(2 * N + 1)}
        write_inputs(ctx, chain.problem_to_dict(ctx.problem))
        ctx.refs.update(
            kernel=walks.qprocess_closed_form(p, N, "odd"),
            config=sim.SimConfig(sub_seed(ctx.seed, 4), ctx.params["paths"], ctx.params["horizon"]),
            qsim_seed=sub_seed(ctx.seed, 5),
        )

    def reference(self, ctx: Context) -> None:
        horizon = ctx.params["horizon"]
        ctx.refs["exact"] = conditioning.exact_mean_ratio(ctx.problem, ctx.f, horizon)
        # Every start survives phase 0, so this is P(alive at the horizon).
        ctx.refs["survival"] = own_survival(own_lift(ctx.problem), horizon)

    def ops(self) -> list[Op]:
        return [
            Op("mc", "mc_s",
               lambda c, cap: sim.estimate_conditionals(c.problem, c.f, c.refs["config"]), check_mc),
            Op("qsim", "qsim_s",
               lambda c, cap: sim.simulate_qprocess(
                   c.refs["kernel"], str(c.params["N"] + 1), c.params["qsim_steps"],
                   c.refs["qsim_seed"], paths=c.params["qsim_paths"]),
               check_qsim),
            Op("cli_simulate", "cli_s",
               lambda c, cap: run_cli(
                   c, "simulate",
                   ["simulate", "--in", str(c.spec_path), "--f", str(c.f_path),
                    "--seed", str(c.refs["config"].seed), "--paths", str(c.params["paths"]),
                    "--horizon", str(c.params["horizon"]), "--shards", str(c.params["shards"])],
                   cap, ("_estimates.csv",)),
               check_cli_simulate, cli=True),
        ]


def check_mc(ctx: Context, est) -> list[Outcome]:
    first = ctx.first.setdefault("mc", est)
    z = (est.mean_ratio.value - ctx.refs["exact"]) / est.mean_ratio.standard_error
    # The conditioned average of x/2N hardly depends on the step bias, so a
    # biased sampler shows in the survivor count instead.
    paths, p = ctx.params["paths"], ctx.refs["survival"]
    z_alive = (est.mean_ratio.survivors / paths - p) / np.sqrt(p * (1.0 - p) / paths)
    return [
        within("|estimate - exact oracle| in standard errors", abs(z), MC_SIGMAS),
        within("survivors vs own recursion, in standard errors", abs(z_alive), MC_SIGMAS),
        Outcome("bit-identical across repetitions",
                est.mean_ratio.value == first.mean_ratio.value
                and np.array_equal(est.survivor_counts, first.survivor_counts), ""),
    ]


def check_qsim(ctx: Context, paths) -> list[Outcome]:
    states = np.array(paths, dtype=np.int64)
    first = ctx.first.get("qsim")
    if first is not None and np.array_equal(states, first[0]):
        return first[1]
    outcomes = qsim_outcomes(ctx, states)
    if first is None:
        ctx.first["qsim"] = (states, outcomes)
    else:
        outcomes.append(Outcome("bit-identical across repetitions", False, ""))
    return outcomes


def qsim_outcomes(ctx: Context, states: np.ndarray) -> list[Outcome]:
    kernel = ctx.refs["kernel"]
    size = 2 * ctx.params["N"] + 1
    inside = np.zeros((2, size), dtype=bool)
    p_up = np.zeros((2, size))
    for phase, sl in enumerate(kernel.slices):
        inside[phase, [int(z) for z in sl.col_states]] = True
        cols = {z: j for j, z in enumerate(sl.col_states)}
        for i, y in enumerate(sl.row_states):
            j = cols.get(str(int(y) + 1))
            if j is not None:
                p_up[phase, int(y)] = sl.matrix[i, j]
    t = np.arange(1, states.shape[1])
    phase = np.broadcast_to(t % 2, (states.shape[0], t.size))
    stays = inside[phase, states[:, 1:]].all()
    moves = np.diff(states, axis=1)
    up = (moves == 1).astype(float)
    p = p_up[phase, states[:, :-1]]
    z = float((up - p).sum() / np.sqrt((p * (1.0 - p)).sum()))
    return [
        Outcome("never meets the killing sets", bool(stays), ""),
        Outcome("nearest-neighbour steps", bool(np.all(np.abs(moves) == 1)), ""),
        within("up-moves vs kernel, in standard errors", abs(z), MC_SIGMAS),
    ]


def check_cli_simulate(ctx: Context, run: CliRun) -> list[Outcome]:
    out = [cli_ok(run)]
    est = ctx.first.get("mc")
    if not out[0].ok or est is None:
        return out
    report = run.report
    with open(report["estimates_csv"], newline="", encoding="utf-8") as fh:
        counts = [int(row[1]) for row in list(csv.reader(fh))[1:]]
    out.append(Outcome(
        "shards=4 bit-identical to the in-process run",
        report["survivors"] == est.mean_ratio.survivors
        and report["mean_ratio"] == est.mean_ratio.value
        and counts == est.survivor_counts.tolist(),
        f"{report['survivors']} survivors",
    ))
    return out


WORKLOADS = {w.name: w for w in (WalkSpectral(), SparseOracle(), MonteCarlo())}
