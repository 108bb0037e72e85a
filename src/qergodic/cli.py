"""Command-line entry point.

One subcommand per analysis; every run emits a JSON report (stdout or
--out) embedding the input digest, the seed and the tool version, plus
CSV tables next to the report where a table is the natural output.

Exit codes: 0 success, 1 malformed input, usage error or a reader that
closed the output early (quietly, as Python itself exits on EPIPE), 2
analysis diagnostics (ambiguous dominant class, null conditioning event,
no surviving trajectories, non-convergence).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .chain import Distribution, lift_chain, load_problem, save_problem, validate_problem
from .conditioning import (
    _write_table,
    qld_cycle,
    write_conditional_laws_csv,
    write_mean_ratio_csv,
)
from .errors import (
    ConvergenceError,
    Hypothesis1Error,
    NoSurvivorsError,
    NullEventError,
    ValidationError,
)
from .qed import qed_moving
from .qprocess import build_qprocess_dominant
from .sim import SimConfig, _survival_estimate, estimate_conditionals
from .spectral import peripheral_system
from .walks import build_walk, RandomWalkSpec

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_DIAGNOSTIC = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_MALFORMED)


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _meta(args, command: str) -> dict:
    meta = {"command": command, "version": __version__}
    if getattr(args, "input", None):
        meta["input_sha256"] = _sha256(args.input)
    if getattr(args, "seed", None) is not None:
        meta["seed"] = args.seed
    return meta


def _emit(report: dict, args) -> None:
    text = json.dumps(report, indent=2, default=float)
    if getattr(args, "out", None):
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _out_sibling(args, suffix: str) -> Path:
    if getattr(args, "out", None):
        base = Path(args.out)
        return base.with_name(base.stem + suffix)
    return Path(suffix.lstrip("_"))


def _load_f(args, problem):
    if getattr(args, "f", None) is None:
        return None
    try:
        data = json.loads(Path(args.f).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"invalid JSON in {args.f} at line {exc.lineno}: {exc.msg}"
        ) from None
    if not isinstance(data, dict):
        raise ValidationError(f"{args.f}: expected an object mapping state to value")
    values = {}
    for k, v in data.items():
        try:
            values[str(k)] = float(v)
        except (TypeError, ValueError):
            raise ValidationError(
                f"{args.f}: value for state {k!r} is not a number: {v!r}"
            ) from None
    return values


def _dist_dict(dist: Distribution) -> dict:
    return {k: v for k, v in sorted(dist.weights.items()) if v != 0.0}


def cmd_validate(args) -> int:
    problem = load_problem(args.input)
    violations = validate_problem(problem)
    report = {
        "meta": _meta(args, "validate"),
        "valid": not violations,
        "violations": violations,
    }
    _emit(report, args)
    return EXIT_OK if not violations else EXIT_MALFORMED


def cmd_analyze(args) -> int:
    problem = load_problem(args.input)
    lifted = lift_chain(problem)
    decomposition = lifted.decomposition
    classes = []
    for cls in decomposition.classes:
        system = peripheral_system(cls)
        classes.append(
            {
                "states": [list(lifted.survivors[s]) for s in cls.states],
                "period": cls.period,
                "cyclic_classes": [
                    [list(lifted.survivors[s]) for s in cyc]
                    for cyc in cls.cyclic_classes
                ],
                "rho": cls.rho,
                "nu": cls.nu.tolist(),
                "xi": cls.xi.tolist(),
                "rho_bracket": list(cls.rho_bracket),
                "residuals": {
                    "nu": cls.nu_residual,
                    "xi": cls.xi_residual,
                    "peripheral_left": system.left_residual,
                    "peripheral_right": system.right_residual,
                },
            }
        )
    report = {
        "meta": _meta(args, "analyze"),
        "gamma": problem.gamma,
        "lifted_states": problem.space.size * problem.gamma,
        "lifted_survivors": len(lifted.survivors),
        "spectral_radius": max((c.rho for c in decomposition.classes), default=0.0),
        "classes": classes,
    }
    _emit(report, args)
    return EXIT_OK


def cmd_qed(args) -> int:
    problem = load_problem(args.input)
    f = _load_f(args, problem)
    result = qed_moving(problem, f)
    selected = result.selection.selected(result.decomposition)
    report = {
        "meta": _meta(args, "qed"),
        "selected_class": [
            list(result.lifted.survivors[s]) for s in selected.states
        ],
        "rho_max": result.selection.rho_max,
        "eta": _dist_dict(result.eta_distribution),
        "phi_of_f": result.phi,
        "warnings": list(result.selection.warnings),
    }
    _emit(report, args)
    return EXIT_OK


def cmd_qld_cycle(args) -> int:
    problem = load_problem(args.input)
    cycle = qld_cycle(problem)
    report = {
        "meta": _meta(args, "qld-cycle"),
        "period": cycle.period,
        "iterations": cycle.iterations,
        "cycle": [_dist_dict(d) for d in cycle.distributions],
        "consecutive_tv": list(cycle.consecutive_tv),
        "max_pairwise_tv": cycle.max_pairwise_tv,
        "qld_exists": cycle.qld_exists,
        "verdict": cycle.verdict,
    }
    _emit(report, args)
    return EXIT_OK


def cmd_qprocess(args) -> int:
    problem = load_problem(args.input)
    kernel = build_qprocess_dominant(problem)
    phases = range(kernel.gamma) if args.phase is None else [args.phase % kernel.gamma]
    report = {
        "meta": _meta(args, "qprocess"),
        "gamma": kernel.gamma,
        "rho": kernel.rho,
        "row_sum_deviation": kernel.row_sum_deviation,
        "slices": [
            {
                "phase": kernel.slices[n].phase,
                "row_states": list(kernel.slices[n].row_states),
                "col_states": list(kernel.slices[n].col_states),
                "matrix": kernel.slices[n].matrix.tolist(),
            }
            for n in phases
        ],
    }
    _emit(report, args)
    return EXIT_OK


def cmd_oracle(args) -> int:
    if args.n < 1:
        raise ValidationError(f"--n must be a positive horizon, got {args.n}")
    problem = load_problem(args.input)
    f = _load_f(args, problem)
    if f is None:
        raise ValidationError("the oracle needs a state functional: pass --f")
    ratio_csv = _out_sibling(args, "_mean_ratio.csv")
    law_csv = _out_sibling(args, "_conditional_laws.csv")
    # the report's value is the CSV's last row, from the same sweep
    value = float(write_mean_ratio_csv(problem, f, args.n, ratio_csv)[-1])
    write_conditional_laws_csv(problem, min(args.n, 500), law_csv)
    report = {
        "meta": _meta(args, "oracle"),
        "n": args.n,
        "mean_ratio": value,
        "mean_ratio_csv": str(ratio_csv),
        "conditional_laws_csv": str(law_csv),
    }
    _emit(report, args)
    return EXIT_OK


def cmd_simulate(args) -> int:
    problem = load_problem(args.input)
    f = _load_f(args, problem)
    if f is None:
        f = {x: 0.0 for x in problem.space.labels}
    config = SimConfig(
        seed=args.seed,
        trajectories=args.paths,
        horizon=args.horizon,
        shards=args.shards,
    )
    estimates = estimate_conditionals(problem, f, config)
    curve_csv = _out_sibling(args, "_estimates.csv")
    counts, law_counts = estimates.survivor_counts, estimates.law_counts
    p_hat, se = _survival_estimate(counts, config.trajectories)
    # counts never grow and the horizon has survivors, so no row divides by 0
    laws = law_counts / counts[:, None]
    _write_table(
        curve_csv,
        ["n", "survivors", "p_survival", "se_survival", *estimates.labels],
        [range(counts.size), counts],
        np.column_stack([p_hat, se, laws]),
    )
    report = {
        "meta": _meta(args, "simulate"),
        "trajectories": config.trajectories,
        "horizon": config.horizon,
        "shards": config.shards,
        "survivors": estimates.mean_ratio.survivors,
        "low_sample": estimates.mean_ratio.low_sample,
        "mean_ratio": estimates.mean_ratio.value,
        "mean_ratio_se": estimates.mean_ratio.standard_error,
        "conditional_law": _dist_dict(estimates.law),
        "estimates_csv": str(curve_csv),
    }
    _emit(report, args)
    return EXIT_OK


def cmd_randomwalk(args) -> int:
    spec = RandomWalkSpec(args.p, K=args.K, N=args.N)
    problem = build_walk(spec, initial=args.start)
    if args.start is not None and args.start not in problem.survivors(0):
        raise ValidationError(
            f"--start {args.start!r} is not a state alive at phase 0"
        )
    if args.out:
        save_problem(problem, args.out)
        report = {
            "meta": {"command": "randomwalk", "version": __version__},
            "written": str(args.out),
            "states": len(problem.space.labels),
            "gamma": problem.gamma,
        }
        _emit(report, argparse.Namespace(out=None))
    else:
        from .chain import problem_to_dict

        print(json.dumps(problem_to_dict(problem), indent=2))
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="qergodic", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=True):
        p.add_argument("--in", dest="input", required=True, help="problem-spec JSON")
        if out:
            p.add_argument("--out", help="write the JSON report here")

    p = sub.add_parser("validate", help="check a problem spec against all invariants")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", help="spectral report of the lifted chain")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("qed", help="mean-ratio distribution and limit value")
    common(p)
    p.add_argument("--f", help="JSON file mapping state label to value")
    p.set_defaults(func=cmd_qed)

    p = sub.add_parser("qld-cycle", help="limit cycle of the conditioned laws")
    common(p)
    p.set_defaults(func=cmd_qld_cycle)

    p = sub.add_parser("qprocess", help="kernel of the chain conditioned to survive")
    common(p)
    p.add_argument("--phase", type=int, help="emit a single phase slice")
    p.set_defaults(func=cmd_qprocess)

    p = sub.add_parser("oracle", help="exact conditioned time averages")
    common(p)
    p.add_argument("--f", help="JSON file mapping state label to value")
    p.add_argument("--n", type=int, required=True, help="horizon")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("simulate", help="Monte Carlo estimates with errors")
    common(p)
    p.add_argument("--f", help="JSON file mapping state label to value")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--paths", type=int, default=100_000)
    p.add_argument("--horizon", type=int, default=100)
    p.add_argument("--shards", type=int, default=1)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("randomwalk", help="emit a nearest-neighbour walk problem")
    p.add_argument("--p", type=float, required=True, help="down-step probability")
    p.add_argument("--K", type=int, help="fixed-boundary interior size")
    p.add_argument("--N", type=int, help="moving-boundary half-width")
    p.add_argument("--start", help="start the walk at this state label")
    p.add_argument("--out", help="write the problem spec here")
    p.set_defaults(func=cmd_randomwalk)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed the pipe early (`| head`).  Point stdout at
        # /dev/null so the flush at interpreter exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_MALFORMED
    except (ValidationError, FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except (Hypothesis1Error, NullEventError, NoSurvivorsError, ConvergenceError) as exc:
        print(f"diagnostic: {exc}", file=sys.stderr)
        report = {"error": type(exc).__name__, "detail": str(exc)}
        if getattr(args, "out", None):
            Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
        return EXIT_DIAGNOSTIC


if __name__ == "__main__":
    raise SystemExit(main())
