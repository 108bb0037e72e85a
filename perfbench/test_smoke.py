"""Smoke test of the benchmark itself, on tiny problems.

    python3 -m pytest -q perfbench/test_smoke.py

Checks the output contract of every workload, the traced run, the
per-operation time cap, the refusal to run without the program, that
BENCHMARK.json names exactly what the code measures, and that the
q-process checks catch a wrong kernel.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import numpy as np  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from qergodic import qprocess  # noqa: E402
from workloads import WORKLOADS, Context  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, dict | None]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=300,
    )
    lines = done.stdout.strip().splitlines()
    try:
        return done, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return done, None


def detail(workload: str, trace: int, seed: int = 1) -> dict:
    path = run.OUT / f"{workload}-seed{seed}-trace{trace}" / "detail.json"
    return json.loads(path.read_text())


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        layers.PER_LAYER
    )


def test_every_workload_reports_end_to_end_metrics():
    for name in WORKLOADS:
        done, result = bench("--workload", name, "--seed", "1", "--seconds", "0.1",
                             "--trace", "0", "--tiny")
        assert done.returncode == 0, done.stderr
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.END_TO_END)
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    done, result = bench("--workload", "sparse-oracle", "--seed", "2", "--seconds", "0.1",
                         "--trace", "1", "--tiny")
    assert done.returncode == 0, done.stderr
    assert result["correct"]
    assert list(result["metrics"]) == [name for name, _, _ in layers.PER_LAYER]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for name in ("chain.validate_s", "spectral.decompose_s", "qprocess.qlaw_sweep_s",
                 "conditioning.sweep_self_s", "conditioning.csv_s", "cli.startup_s"):
        assert metrics[name] > 0, name
    spans = json.loads((run.OUT / "sparse-oracle-seed2-trace1" / "spans.json").read_text())
    assert any(span[0] == "chain.lift_chain" for span in spans["spans"])


def test_overrunning_operations_are_recorded_as_timeouts():
    done, result = bench("--workload", "walk-spectral", "--seconds", "0", "--trace", "0",
                         "--tiny", "--op-timeout", "0.0005")
    assert done.returncode == 0, done.stderr
    assert not result["correct"] and result["failed"] >= 1
    ops = detail("walk-spectral", 0)["ops"]
    assert sum(op["timeouts"] for op in ops.values()) >= 1


def test_refuses_to_run_without_the_program():
    bare = run.OUT / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done, result = bench("--workload", "montecarlo", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert result is None


def perturbed(kernel, phase: int, change):
    """A copy of the kernel with one slice's matrix replaced by change(matrix)."""
    slices = list(kernel.slices)
    slices[phase] = dataclasses.replace(slices[phase], matrix=change(slices[phase].matrix))
    return dataclasses.replace(kernel, slices=tuple(slices))


def prepared(name: str) -> Context:
    workload = WORKLOADS[name]
    outdir = run.OUT / f"smoke-{name}"
    outdir.mkdir(parents=True, exist_ok=True)
    ctx = Context(1, outdir, {}, workload.params(True))
    workload.setup(ctx)
    workload.reference(ctx)
    return ctx


def misses(outcomes):
    return {o.name: o.known_defect is not None for o in outcomes if not o.ok}


def test_walk_qprocess_miss_is_a_known_defect_only_below_the_ceiling():
    ctx = prepared("walk-spectral")
    exact = ctx.refs["kernel"]
    assert misses(workloads.check_walk_qprocess(ctx, exact)) == {}
    small = perturbed(exact, 0, lambda m: m + 5e-10 * (m > 0))
    assert misses(workloads.check_walk_qprocess(ctx, small)) == {"kernel vs closed form": True}
    large = perturbed(exact, 0, lambda m: m + 2e-9 * (m > 0))
    assert misses(workloads.check_walk_qprocess(ctx, large)) == {"kernel vs closed form": False}
    swapped = perturbed(exact, 1, lambda m: m[:, ::-1])
    reordered = dataclasses.replace(swapped, slices=(
        swapped.slices[0],
        dataclasses.replace(swapped.slices[1], col_states=swapped.slices[1].col_states[::-1]),
    ))
    assert misses(workloads.check_walk_qprocess(ctx, reordered)) == {"kernel vs closed form": False}


def test_sparse_qprocess_entries_are_checked():
    ctx = prepared("sparse-oracle")
    kernel = qprocess.build_qprocess_dominant(ctx.problem)
    assert misses(workloads.check_sparse_qprocess(ctx, kernel)) == {}
    rolled = perturbed(kernel, 2, lambda m: np.roll(m, 1, axis=1))
    assert misses(workloads.check_sparse_qprocess(ctx, rolled)) == {
        "kernel vs own lift and ARPACK pair": False
    }
