"""Command-line entry point.

One subcommand per analysis.  Every command that reads a problem spec
takes one path: the spec is loaded once, the command builds the body of
its report, and the report, stamped under ``meta`` with the input
digest, the seed and the tool version, is written as strict JSON to
stdout or --out.  CSV tables are written next to the report where a
table is the natural output.

Exit codes: 0 success, 1 malformed input (including a report that lists
violations and any OSError on a file), usage error or a reader that
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
from .chain import (
    Distribution,
    _number,
    _read_json,
    lift_chain,
    load_problem,
    problem_to_dict,
    save_problem,
    validate_problem,
)
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


def _write_report(report: dict, out) -> None:
    """Write ``report`` as strict JSON, with no NaN or infinity, to the
    file ``out``, or to stdout when ``out`` is None."""
    text = json.dumps(report, indent=2, default=float, allow_nan=False)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _out_sibling(args, suffix: str) -> Path:
    if args.out:
        base = Path(args.out)
        return base.with_name(base.stem + suffix)
    return Path(suffix.lstrip("_"))


def _load_f(path) -> dict[str, float] | None:
    """The ``--f`` file, a JSON object mapping state labels to numbers, or
    None when no file is given."""
    if path is None:
        return None
    data = _read_json(path)
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: expected an object mapping state to value")
    return {
        k: _number(v, f"{path}: value for state {k!r} is not a number: {v!r}")
        for k, v in data.items()
    }


def _dist_dict(dist: Distribution) -> dict:
    return {k: v for k, v in sorted(dist.weights.items()) if v != 0.0}


def cmd_validate(problem, args) -> dict:
    violations = validate_problem(problem)
    return {"valid": not violations, "violations": violations}


def cmd_analyze(problem, args) -> dict:
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
    return {
        "gamma": problem.gamma,
        "lifted_states": problem.space.size * problem.gamma,
        "lifted_survivors": len(lifted.survivors),
        "spectral_radius": max((c.rho for c in decomposition.classes), default=0.0),
        "classes": classes,
    }


def cmd_qed(problem, args) -> dict:
    result = qed_moving(problem, _load_f(args.f))
    selected = result.selection.selected(result.decomposition)
    return {
        "selected_class": [
            list(result.lifted.survivors[s]) for s in selected.states
        ],
        "rho_max": result.selection.rho_max,
        "eta": _dist_dict(result.eta_distribution),
        "phi_of_f": result.phi,
        "warnings": list(result.selection.warnings),
    }


def cmd_qld_cycle(problem, args) -> dict:
    cycle = qld_cycle(problem)
    return {
        "period": cycle.period,
        "iterations": cycle.iterations,
        "cycle": [_dist_dict(d) for d in cycle.distributions],
        "consecutive_tv": list(cycle.consecutive_tv),
        "max_pairwise_tv": cycle.max_pairwise_tv,
        "qld_exists": cycle.qld_exists,
        "verdict": cycle.verdict,
    }


def cmd_qprocess(problem, args) -> dict:
    kernel = build_qprocess_dominant(problem)
    phases = range(kernel.gamma) if args.phase is None else [args.phase % kernel.gamma]
    return {
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


def cmd_oracle(problem, args) -> dict:
    if args.n < 1:
        raise ValidationError(f"--n must be a positive horizon, got {args.n}")
    if args.f is None:
        raise ValidationError("the oracle needs a state functional: pass --f")
    ratio_csv = _out_sibling(args, "_mean_ratio.csv")
    law_csv = _out_sibling(args, "_conditional_laws.csv")
    # the report's value is the CSV's last row, from the same sweep
    value = float(write_mean_ratio_csv(problem, _load_f(args.f), args.n, ratio_csv)[-1])
    write_conditional_laws_csv(problem, min(args.n, 500), law_csv)
    return {
        "n": args.n,
        "mean_ratio": value,
        "mean_ratio_csv": str(ratio_csv),
        "conditional_laws_csv": str(law_csv),
    }


def cmd_simulate(problem, args) -> dict:
    config = SimConfig(
        seed=args.seed,
        trajectories=args.paths,
        horizon=args.horizon,
        shards=args.shards,
    )
    # without --f, f reads 0 on every state
    estimates = estimate_conditionals(problem, _load_f(args.f) or {}, config)
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
    ratio = estimates.mean_ratio
    return {
        "trajectories": config.trajectories,
        "horizon": config.horizon,
        "shards": config.shards,
        "survivors": ratio.survivors,
        "low_sample": ratio.low_sample,
        "mean_ratio": ratio.value,
        # one survivor has no spread, so no finite error: null, not Infinity
        "mean_ratio_se": ratio.standard_error if ratio.survivors > 1 else None,
        "conditional_law": _dist_dict(estimates.law),
        "estimates_csv": str(curve_csv),
    }


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
    else:
        report = problem_to_dict(problem)
    _write_report(report, None)
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="qergodic", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def spec_command(name, report, help):
        """A subcommand that reads a spec: it runs the one path, ``_run``,
        with ``report`` building the body of its report."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--in", dest="input", required=True, help="problem-spec JSON")
        p.add_argument("--out", help="write the JSON report here")
        p.set_defaults(func=_run, report=report)
        return p

    spec_command("validate", cmd_validate, "check a problem spec against all invariants")
    spec_command("analyze", cmd_analyze, "spectral report of the lifted chain")
    p = spec_command("qed", cmd_qed, "mean-ratio distribution and limit value")
    p.add_argument("--f", help="JSON file mapping state label to value")
    spec_command("qld-cycle", cmd_qld_cycle, "limit cycle of the conditioned laws")
    p = spec_command("qprocess", cmd_qprocess, "kernel of the chain conditioned to survive")
    p.add_argument("--phase", type=int, help="emit a single phase slice")
    p = spec_command("oracle", cmd_oracle, "exact conditioned time averages")
    p.add_argument("--f", help="JSON file mapping state label to value")
    p.add_argument("--n", type=int, required=True, help="horizon")
    p = spec_command("simulate", cmd_simulate, "Monte Carlo estimates with errors")
    p.add_argument("--f", help="JSON file mapping state label to value")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--paths", type=int, default=100_000)
    p.add_argument("--horizon", type=int, default=100)
    p.add_argument("--shards", type=int, default=1)

    p = sub.add_parser("randomwalk", help="emit a nearest-neighbour walk problem")
    p.add_argument("--p", type=float, required=True, help="down-step probability")
    p.add_argument("--K", type=int, help="fixed-boundary interior size")
    p.add_argument("--N", type=int, help="moving-boundary half-width")
    p.add_argument("--start", help="start the walk at this state label")
    p.add_argument("--out", help="write the problem spec here")
    p.set_defaults(func=cmd_randomwalk)
    return parser


def _run(args) -> int:
    """The one path of every command that reads a spec: load it, build the
    report body, stamp ``meta`` and write the report.  A body that lists
    violations exits 1."""
    body = args.report(load_problem(args.input), args)
    meta = {
        "command": args.command,
        "version": __version__,
        "input_sha256": hashlib.sha256(Path(args.input).read_bytes()).hexdigest(),
    }
    if getattr(args, "seed", None) is not None:
        meta["seed"] = args.seed
    _write_report({"meta": meta, **body}, args.out)
    return EXIT_MALFORMED if body.get("violations") else EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        try:
            code = args.func(args)
        except (Hypothesis1Error, NullEventError, NoSurvivorsError, ConvergenceError) as exc:
            print(f"diagnostic: {exc}", file=sys.stderr)
            if args.out:
                _write_report({"error": type(exc).__name__, "detail": str(exc)}, args.out)
            code = EXIT_DIAGNOSTIC
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed the pipe early (`| head`).  Point stdout at
        # /dev/null so the flush at interpreter exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_MALFORMED
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    raise SystemExit(main())
