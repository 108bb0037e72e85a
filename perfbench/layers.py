"""Per-layer metrics of one traced pass, one group per qergodic module.

Times come from spans (inclusive, or self time where a layer's own work
is wanted without the layers it calls); counts and errors come from the
results of the same pass.  A layer that the workload does not exercise
reports 0.  Probes are direct calls into a single layer that the
pipeline makes only inside another call (``perron_data`` on the dominant
class alone) or only in the CLI (``peripheral_system``, the CSV writers,
interpreter start-up); each probe is its own traced operation, so its
spans never mix with those of the pipeline operations.
"""

from __future__ import annotations

import time

import numpy as np

from qergodic import chain, conditioning, spectral
from tracing import per_name
from workloads import dist_tv, kernel_error, own_kernel_error, rel_err, spawn_import

# name, unit, which direction is better
PER_LAYER = (
    ("chain.load_s", "s", "lower"),
    ("chain.validate_s", "s", "lower"),
    ("chain.lift_s", "s", "lower"),
    ("chain.lifted_survivors", "count", "lower"),
    ("chain.survivor_nnz", "count", "lower"),
    ("chain.lifted_mb", "MB", "lower"),
    ("spectral.decompose_s", "s", "lower"),
    ("spectral.perron_s", "s", "lower"),
    ("spectral.peripheral_s", "s", "lower"),
    ("spectral.classes", "count", "lower"),
    ("spectral.dominant_size", "count", "lower"),
    ("spectral.dominant_period", "count", "lower"),
    ("spectral.residual", "rel", "lower"),
    ("spectral.rho_rel_err", "rel", "lower"),
    ("qed.select_s", "s", "lower"),
    ("qed.warnings", "count", "lower"),
    ("qed.eta_tv_err", "TV", "lower"),
    ("qprocess.assemble_s", "s", "lower"),
    ("qprocess.qlaw_sweep_s", "s", "lower"),
    ("qprocess.row_sum_deviation", "abs", "lower"),
    ("qprocess.closed_form_err", "abs", "lower"),
    ("conditioning.sweep_self_s", "s", "lower"),
    ("conditioning.sweep_steps", "count", "lower"),
    ("conditioning.sweep_gflop", "GFLOP", "lower"),
    ("conditioning.sweep_useful_ratio", "ratio", "higher"),
    ("conditioning.qld_s", "s", "lower"),
    ("conditioning.qld_iterations", "count", "lower"),
    ("conditioning.csv_s", "s", "lower"),
    ("sim.engine_s", "s", "lower"),
    ("sim.path_steps", "count", "lower"),
    ("sim.path_steps_per_s", "1/s", "higher"),
    ("sim.gather_mb", "MB", "lower"),
    ("sim.survivors", "count", "higher"),
    ("sim.qsim_s", "s", "lower"),
    ("sim.qsim_gather_mb", "MB", "lower"),
    ("sim.z_score", "sigma", "lower"),
    ("cli.startup_s", "s", "lower"),
    ("cli.report_kb", "KB", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def run_probes(ctx, results, tracer, pass_index) -> tuple[dict, object]:
    """Time the single-layer probes of one traced pass."""
    times = {}

    def probe(name, fn):
        with tracer.operation(f"{pass_index}:probe.{name}", f"probe.{name}"):
            start = time.perf_counter()
            value = fn()
            times[name] = time.perf_counter() - start
        return value

    probe("load", lambda: chain.load_problem(ctx.spec_path))
    lifted = probe("lift", lambda: chain.lift_chain(ctx.problem, validate=False))
    result = results.get("qed")
    if result is not None:
        dominant = result.selection.selected(result.decomposition)
        probe("perron", lambda: spectral.perron_data(result.lifted.survivor_matrix, dominant.states))
        probe("peripheral",
              lambda: [spectral.peripheral_system(c) for c in result.decomposition.classes])
    if "n_cli" in ctx.params:  # the workload's CLI command is `oracle`
        n = ctx.params["n_cli"]
        probe("csv", lambda: (
            conditioning.write_mean_ratio_csv(ctx.problem, ctx.f, n, ctx.outdir / "probe_ratio.csv"),
            conditioning.write_conditional_laws_csv(
                ctx.problem, min(n, 500), ctx.outdir / "probe_laws.csv"),
        ))
    times["cli_import"] = spawn_import(ctx.env, "qergodic.cli")
    return times, lifted


def layer_metrics(ctx, ops, results, spans, pass_index, probe_times, lifted) -> dict:
    inclusive, own = per_name(spans, {f"{pass_index}:{op.name}" for op in ops})
    n = len(lifted.survivors)
    nnz = int(np.count_nonzero(lifted.survivor_matrix))
    m = {name: 0.0 for name, _, _ in PER_LAYER}
    m.update({
        "chain.load_s": probe_times["load"],
        "chain.validate_s": inclusive.get("chain.validate_problem", 0.0),
        "chain.lift_s": own.get("chain.lift_chain", 0.0),
        "chain.lifted_survivors": n,
        "chain.survivor_nnz": nnz,
        "chain.lifted_mb": (lifted.matrix.nbytes + lifted.survivor_matrix.nbytes) / 1e6,
        "spectral.decompose_s": inclusive.get("spectral.decompose_classes", 0.0),
        "spectral.perron_s": probe_times.get("perron", 0.0),
        "spectral.peripheral_s": probe_times.get("peripheral", 0.0),
        "qed.select_s": inclusive.get("qed.select_dominant", 0.0),
        "qprocess.assemble_s": own.get("qprocess.build_qprocess_dominant", 0.0),
        "qprocess.qlaw_sweep_s": own.get("qprocess.finite_horizon_qlaw", 0.0),
        "conditioning.sweep_self_s": own.get("conditioning.mean_ratio_curve", 0.0),
        "conditioning.sweep_useful_ratio": nnz / n**2,
        "conditioning.qld_s": own.get("conditioning.qld_cycle", 0.0),
        "conditioning.csv_s": probe_times.get("csv", 0.0),
        "sim.engine_s": inclusive.get("sim.estimate_conditionals", 0.0),
        "sim.qsim_s": inclusive.get("sim.simulate_qprocess", 0.0),
        "cli.startup_s": probe_times["cli_import"],
    })

    result = results.get("qed")
    if result is not None:
        dominant = result.selection.selected(result.decomposition)
        m.update({
            "spectral.classes": len(result.decomposition.classes),
            "spectral.dominant_size": dominant.size,
            "spectral.dominant_period": dominant.period,
            "spectral.residual": max(dominant.nu_residual, dominant.xi_residual),
            "spectral.rho_rel_err": rel_err(result.rho, ctx.refs["rho"]),
            "qed.warnings": len(result.selection.warnings),
            "qed.eta_tv_err": dist_tv(result.eta_distribution, ctx.refs["eta"]),
        })
    if results.get("qprocess") is not None:
        kernel = results["qprocess"]
        m["qprocess.row_sum_deviation"] = kernel.row_sum_deviation
        if "kernel" in ctx.refs:
            m["qprocess.closed_form_err"] = kernel_error(kernel, ctx.refs["kernel"])
        elif "xi" in ctx.refs:
            m["qprocess.closed_form_err"] = own_kernel_error(ctx, kernel)
    if results.get("oracle") is not None:
        steps = ctx.params["n"]
        m["conditioning.sweep_steps"] = steps
        # two dense matvecs per step, 2 flops per stored entry
        m["conditioning.sweep_gflop"] = steps * 2 * 2 * n * n / 1e9
    if results.get("qld_cycle") is not None:
        m["conditioning.qld_iterations"] = results["qld_cycle"].iterations
    if results.get("mc") is not None:
        est = results["mc"]
        horizon = ctx.params["horizon"]
        path_steps = int(est.survivor_counts[:horizon].sum())
        m.update({
            "sim.path_steps": path_steps,
            "sim.path_steps_per_s": path_steps / m["sim.engine_s"],
            "sim.gather_mb": path_steps * ctx.problem.space.size * 8 / 1e6,
            "sim.survivors": est.mean_ratio.survivors,
            "sim.z_score": abs(est.mean_ratio.value - ctx.refs["exact"])
            / est.mean_ratio.standard_error,
        })
    if results.get("qsim") is not None:
        slices = ctx.refs["kernel"].slices
        row_lengths = sum(
            len(slices[t % len(slices)].col_states) for t in range(1, ctx.params["qsim_steps"] + 1)
        )
        m["sim.qsim_gather_mb"] = ctx.params["qsim_paths"] * row_lengths * 8 / 1e6
    cli_run = next((results.get(op.name) for op in ops if op.cli), None)
    if cli_run is not None:
        m["cli.report_kb"] = cli_run.report_kb
    return m
