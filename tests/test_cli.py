import ast
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qergodic import (
    exact_mean_ratio,
    load_problem,
    moving_walk,
    problem_to_dict,
    save_problem,
)
from qergodic.cli import main
from _chains import chained_tie, feeder_ring_sink, leaky_walk, n3_walk, two_copies_tied


def _strict(text: str):
    """Parse a report as strict JSON, which has no NaN or Infinity."""
    def reject(constant):
        raise ValueError(f"{constant} in a report")
    return json.loads(text, parse_constant=reject)


@pytest.fixture()
def walk_file(tmp_path):
    path = tmp_path / "walk.json"
    save_problem(n3_walk(0.5, start="3"), path)
    return path


@pytest.fixture()
def f_file(tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"3": 1.0}))
    return path


def test_randomwalk_generates_loadable_problem(tmp_path):
    out = tmp_path / "gen.json"
    code = main(
        ["randomwalk", "--p", "0.5", "--N", "3", "--start", "3", "--out", str(out)]
    )
    assert code == 0
    problem = load_problem(out)
    assert problem.gamma == 2
    assert problem.initial.weights == {"3": 1.0}


def test_randomwalk_without_out_prints_the_spec(tmp_path, capsys):
    assert main(["randomwalk", "--p", "0.45", "--N", "5"]) == 0
    spec = _strict(capsys.readouterr().out)
    assert spec == problem_to_dict(moving_walk(0.45, 5))
    assert list(tmp_path.iterdir()) == []


def test_validate_ok_and_report(walk_file, tmp_path, capsys):
    code = main(["validate", "--in", str(walk_file)])
    assert code == 0
    report = _strict(capsys.readouterr().out)
    assert report["valid"] is True
    assert report["meta"]["command"] == "validate"
    assert "input_sha256" in report["meta"]


def test_validate_rejects_bad_kernel(tmp_path, capsys):
    data = {
        "states": ["a", "b"],
        "kernel": [[0.5, 0.4], [0.5, 0.5]],
        "gamma": 1,
        "killing_sets": [["b"]],
        "initial": {"a": 1.0},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code = main(["validate", "--in", str(path)])
    assert code == 1
    report = _strict(capsys.readouterr().out)
    assert any("not stochastic" in v for v in report["violations"])


SHORT_ROW_SPEC = {
    "states": ["b", "a", "c"],
    "kernel": [[0.5, 0.5, 0.0], [0.4, 0.5, 0.0], [0.0, 0.0, 1.0]],
    "gamma": 1,
    "killing_sets": [["c"]],
    "initial": {"b": 1.0},
}


def test_validate_names_a_short_row_with_a_plain_number(tmp_path, capsys):
    path = tmp_path / "short.json"
    path.write_text(json.dumps(SHORT_ROW_SPEC))
    assert main(["validate", "--in", str(path)]) == 1
    report = _strict(capsys.readouterr().out)
    assert [v for v in report["violations"] if v.startswith("kernel")] == [
        "kernel row not stochastic: row 1 ('a') sums to 0.9"
    ]


def test_simulate_names_a_short_row_by_its_label(tmp_path, capsys):
    path = tmp_path / "short.json"
    path.write_text(json.dumps(SHORT_ROW_SPEC))
    assert main(["simulate", "--in", str(path), "--paths", "10", "--horizon", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: invalid problem: kernel row not stochastic: row 1 ('a') sums to 0.9\n"
    )


@pytest.mark.parametrize("size", [["--N", "3"], ["--K", "4"]], ids=["N", "K"])
@pytest.mark.parametrize("start", ["99", "0"])
@pytest.mark.parametrize("out", [True, False], ids=["out", "stdout"])
def test_randomwalk_rejects_a_start_absorbed_at_phase_zero(
    tmp_path, capsys, size, start, out
):
    target = tmp_path / "gen.json"
    argv = ["randomwalk", "--p", "0.5", *size, "--start", start]
    code = main(argv + (["--out", str(target)] if out else []))
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--start {start!r}" in captured.err
    assert not target.exists()


def test_malformed_json_exits_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    code = main(["analyze", "--in", str(path)])
    assert code == 1
    assert "line" in capsys.readouterr().err


def test_unknown_flag_exits_one(walk_file, capsys):
    code = main(["qed", "--in", str(walk_file), "--bogus", "1"])
    assert code == 1


def test_analyze_report_structure(walk_file, tmp_path):
    out = tmp_path / "report.json"
    code = main(["analyze", "--in", str(walk_file), "--out", str(out)])
    assert code == 0
    report = _strict(out.read_text())
    assert report["lifted_states"] == 14
    assert report["lifted_survivors"] == 8
    assert len(report["classes"]) == 2
    for cls in report["classes"]:
        assert {"states", "period", "cyclic_classes", "rho", "nu", "xi", "residuals"} <= set(cls)
        lo, hi = cls["rho_bracket"]
        slack = 4.0 * np.spacing(cls["rho"])
        assert lo - slack <= cls["rho"] <= hi + slack


def test_qed_report(walk_file, f_file, tmp_path, capsys):
    code = main(["qed", "--in", str(walk_file), "--f", str(f_file)])
    assert code == 0
    report = _strict(capsys.readouterr().out)
    assert report["phi_of_f"] == pytest.approx(1 / 3, abs=1e-10)
    assert report["eta"]["3"] == pytest.approx(1 / 3, abs=1e-10)
    assert report["rho_max"] == pytest.approx(
        np.cos(np.pi / 6), abs=1e-12
    )


def test_qed_hypothesis_violation_exits_two(tmp_path, capsys):
    path = tmp_path / "tied.json"
    save_problem(two_copies_tied(), path)
    out = tmp_path / "report.json"
    code = main(["qed", "--in", str(path), "--out", str(out)])
    assert code == 2
    assert "diagnostic" in capsys.readouterr().err
    report = _strict(out.read_text())
    assert report["error"] == "Hypothesis1Error"


def test_qed_and_qprocess_read_the_class_the_start_reaches(tmp_path, capsys):
    problem = feeder_ring_sink(("b", "c"))
    path, f_path = tmp_path / "feeder.json", tmp_path / "f.json"
    save_problem(problem, path)
    f_path.write_text(json.dumps({"b": 1.0}))
    assert main(["qed", "--in", str(path), "--f", str(f_path)]) == 0
    report = _strict(capsys.readouterr().out)
    assert abs(report["phi_of_f"] - exact_mean_ratio(problem, {"b": 1.0}, 2000)) <= 1e-2
    assert report["warnings"] == []
    assert main(["qprocess", "--in", str(path)]) == 0
    assert _strict(capsys.readouterr().out)["rho"] == pytest.approx(0.9, abs=1e-12)


@pytest.mark.parametrize("command", ["qed", "qprocess"])
def test_tie_with_a_reachable_class_exits_two(command, tmp_path, capsys):
    path = tmp_path / "chained.json"
    save_problem(chained_tie(), path)
    out = tmp_path / "report.json"
    assert main([command, "--in", str(path), "--out", str(out)]) == 2
    assert "diagnostic" in capsys.readouterr().err
    assert _strict(out.read_text())["error"] == "Hypothesis1Error"


def test_qld_cycle_report(walk_file, capsys):
    code = main(["qld-cycle", "--in", str(walk_file)])
    assert code == 0
    report = _strict(capsys.readouterr().out)
    assert report["period"] == 2
    assert report["qld_exists"] is False
    assert "no quasi-limiting" in report["verdict"]
    assert report["max_pairwise_tv"] == pytest.approx(1.0)


def test_qld_cycle_connected_tie_exits_two(tmp_path, capsys):
    path = tmp_path / "chained.json"
    save_problem(chained_tie(), path)
    out = tmp_path / "report.json"
    code = main(["qld-cycle", "--in", str(path), "--out", str(out)])
    assert code == 2
    assert "diagnostic" in capsys.readouterr().err
    assert _strict(out.read_text())["error"] == "Hypothesis1Error"


def test_qld_cycle_has_no_tolerance_flag(walk_file, capsys):
    assert main(["qld-cycle", "--in", str(walk_file), "--tol", "1e-6"]) == 1
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_qprocess_report_and_phase_flag(walk_file, capsys):
    code = main(["qprocess", "--in", str(walk_file)])
    assert code == 0
    report = _strict(capsys.readouterr().out)
    assert report["gamma"] == 2
    assert len(report["slices"]) == 2
    for sl in report["slices"]:
        for row in sl["matrix"]:
            assert sum(row) == pytest.approx(1.0, abs=1e-10)
    code = main(["qprocess", "--in", str(walk_file), "--phase", "1"])
    assert code == 0
    report = _strict(capsys.readouterr().out)
    assert len(report["slices"]) == 1
    assert report["slices"][0]["phase"] == 1


def test_oracle_emits_value_and_csvs(walk_file, f_file, tmp_path):
    out = tmp_path / "oracle.json"
    code = main(
        ["oracle", "--in", str(walk_file), "--f", str(f_file), "--n", "400",
         "--out", str(out)]
    )
    assert code == 0
    report = _strict(out.read_text())
    assert report["n"] == 400
    assert report["mean_ratio"] == pytest.approx(1 / 3, abs=5e-3)
    ratio_lines = (tmp_path / "oracle_mean_ratio.csv").read_text().splitlines()
    assert len(ratio_lines) == 401
    assert (tmp_path / "oracle_conditional_laws.csv").exists()


def test_oracle_without_out_writes_its_csvs_into_the_working_directory(
    walk_file, f_file, tmp_path, monkeypatch, capsys
):
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main(["oracle", "--in", str(walk_file), "--f", str(f_file), "--n", "40"]) == 0
    report = _strict(capsys.readouterr().out)
    assert (report["mean_ratio_csv"], report["conditional_laws_csv"]) == (
        "mean_ratio.csv", "conditional_laws.csv")
    assert sorted(p.name for p in cwd.iterdir()) == ["conditional_laws.csv", "mean_ratio.csv"]
    assert len((cwd / "mean_ratio.csv").read_text().splitlines()) == 41


def test_validate_and_oracle_on_a_walk_whose_perron_iterate_underflows(f_file, tmp_path):
    # the Perron iterate of this walk underflows; neither command needs it
    spec, out = tmp_path / "walk.json", tmp_path / "oracle.json"
    assert main(["randomwalk", "--p", "0.1", "--N", "350", "--out", str(spec)]) == 0
    assert main(["validate", "--in", str(spec), "--out", str(tmp_path / "v.json")]) == 0
    assert _strict((tmp_path / "v.json").read_text())["valid"] is True
    code = main(["oracle", "--in", str(spec), "--f", str(f_file), "--n", "50",
                 "--out", str(out)])
    assert code == 0
    assert _strict(out.read_text())["n"] == 50


def test_oracle_requires_f(walk_file, capsys):
    code = main(["oracle", "--in", str(walk_file), "--n", "10"])
    assert code == 1


def test_non_numeric_f_value_exits_one(walk_file, tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"3": "high"}))
    code = main(["qed", "--in", str(walk_file), "--f", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'high'" in err
    assert "Traceback" not in err


def _walk_spec(**fields) -> bytes:
    return json.dumps({**problem_to_dict(n3_walk(0.5, start="3")), **fields}).encode()


def _kernel_with_a_cell_past_float_range() -> list:
    kernel = problem_to_dict(n3_walk(0.5, start="3"))["kernel"]
    kernel[1][0] = 10**400
    return kernel


_NESTED_TOO_DEEP = b"[" * 100_000 + b"]" * 100_000

# case: (spec file, --f file or None)
BAD_INPUT_FILES = {
    "spec-kernel-cell-past-float-range": (
        _walk_spec(kernel=_kernel_with_a_cell_past_float_range()), None),
    "spec-initial-weight-past-float-range": (_walk_spec(initial={"3": 10**400}), None),
    "spec-not-utf8": (b'{"states": ["\xff"]}', None),
    "spec-nested-too-deep": (_NESTED_TOO_DEEP, None),
    "spec-integer-too-long": (b'{"gamma": ' + b"1" * 5000 + b"}", None),
    "f-not-utf8": (_walk_spec(), b'{"3": 1.0, "\xff": 2.0}'),
    "f-nested-too-deep": (_walk_spec(), _NESTED_TOO_DEEP),
    "f-string-and-bool": (_walk_spec(), b'{"3": "nan", "4": true}'),
    "f-nan": (_walk_spec(), b'{"3": NaN}'),
    "f-infinite": (_walk_spec(), b'{"3": 1e400}'),
    "f-past-float-range": (_walk_spec(), b'{"3": 1' + b"0" * 400 + b"}"),
    "f-list": (_walk_spec(), b"[1, 2]"),
}


@pytest.mark.parametrize(
    "case", [*BAD_INPUT_FILES, "out-under-a-file", "in-under-a-file", "in-name-too-long"]
)
def test_no_input_leaves_a_traceback(case, tmp_path, capsys):
    spec, f = tmp_path / "spec.json", tmp_path / "f.json"
    spec_bytes, f_bytes = BAD_INPUT_FILES.get(case, (_walk_spec(), None))
    spec.write_bytes(spec_bytes)
    argv = ["qed", "--in", str(spec)]
    if f_bytes is not None:
        f.write_bytes(f_bytes)
        argv += ["--f", str(f)]
    if case == "out-under-a-file":
        argv += ["--out", str(spec / "r.json")]
    elif case == "in-under-a-file":
        argv[2] = str(spec / "x")
    elif case == "in-name-too-long":
        argv[2] = "a" * 5000
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_simulate_writes_a_null_standard_error_for_one_survivor(tmp_path):
    spec, out = tmp_path / "w.json", tmp_path / "sim.json"
    assert main(["randomwalk", "--p", "0.45", "--N", "5", "--out", str(spec)]) == 0
    assert main(["simulate", "--in", str(spec), "--paths", "60", "--horizon", "60",
                 "--seed", "2", "--out", str(out)]) == 0
    report = _strict(out.read_text())
    assert report["survivors"] == 1
    assert report["mean_ratio_se"] is None


def test_oracle_zero_horizon_exits_one(walk_file, f_file, tmp_path, capsys):
    out = tmp_path / "oracle.json"
    code = main(["oracle", "--in", str(walk_file), "--f", str(f_file), "--n", "0",
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: --n must be a positive horizon")
    assert not out.exists()


def test_simulate_report(walk_file, f_file, tmp_path):
    out = tmp_path / "sim.json"
    code = main(
        ["simulate", "--in", str(walk_file), "--f", str(f_file),
         "--seed", "7", "--paths", "30000", "--horizon", "20",
         "--shards", "3", "--out", str(out)]
    )
    assert code == 0
    report = _strict(out.read_text())
    assert report["meta"]["seed"] == 7
    assert report["survivors"] > 0
    assert report["mean_ratio_se"] > 0
    csv_lines = (tmp_path / "sim_estimates.csv").read_text().splitlines()
    assert len(csv_lines) == 22  # header + horizons 0..20


def test_oracle_and_qed_agree(walk_file, f_file, tmp_path, capsys):
    out_oracle = tmp_path / "o.json"
    main(["oracle", "--in", str(walk_file), "--f", str(f_file), "--n", "2000",
          "--out", str(out_oracle)])
    oracle = _strict(out_oracle.read_text())
    main(["qed", "--in", str(walk_file), "--f", str(f_file)])
    qed = _strict(capsys.readouterr().out)
    assert abs(oracle["mean_ratio"] - qed["phi_of_f"]) <= 1e-2


def test_qld_cycle_report_does_not_depend_on_the_hash_seed(tmp_path):
    path = tmp_path / "walk.json"
    save_problem(moving_walk(0.45, 20), path)
    src = str(Path(__file__).resolve().parents[1] / "src")
    reports = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        reports.append(subprocess.run(
            [sys.executable, "-m", "qergodic.cli", "qld-cycle", "--in", str(path)],
            capture_output=True, env=env, check=True, timeout=120,
        ).stdout)
    assert reports[0] == reports[1]


def test_reader_closing_the_pipe_early_is_quiet():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # about 4 MB of JSON, far more than a pipe buffers
    proc = subprocess.Popen(
        [sys.executable, "-m", "qergodic.cli", "randomwalk", "--p", "0.5", "--N", "300"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_simulate_estimates_csv_holds_plain_numbers(walk_file, tmp_path):
    out = tmp_path / "sim.json"
    paths = 4000
    code = main(
        ["simulate", "--in", str(walk_file), "--seed", "3", "--paths", str(paths),
         "--horizon", "30", "--out", str(out)]
    )
    assert code == 0
    _strict(out.read_text())
    lines = (tmp_path / "sim_estimates.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["n", "survivors", "p_survival", "se_survival"]
    assert header[4:] == list(load_problem(walk_file).space.labels)
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    assert [row[0] for row in rows] == list(range(31))
    for row in rows:
        assert row[1] > 0  # simulate fails when no path reaches the horizon
        assert row[2] == row[1] / paths
        assert abs(sum(row[4:]) - 1.0) <= 1e-12


SCIPY_PROBE = """
import sys
{code}
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def _scipy_loaded(code: str, cwd) -> list[str]:
    """The scipy modules loaded by a fresh interpreter that runs ``code``."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE.format(code=code)],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout.splitlines()[-1])


def test_import_and_monte_carlo_load_no_scipy(tmp_path):
    spec = tmp_path / "walk.json"
    save_problem(moving_walk(0.45, 5), spec)
    randomwalk = ["randomwalk", "--p", "0.45", "--N", "5", "--start", "5",
                  "--out", str(tmp_path / "w.json")]
    simulate = ["simulate", "--in", str(spec), "--paths", "200", "--horizon", "10",
                "--out", str(tmp_path / "sim.json")]
    for code in (
        "import qergodic",
        f"from qergodic.cli import main; assert main({randomwalk!r}) == 0",
        f"from qergodic.cli import main; assert main({simulate!r}) == 0",
    ):
        assert _scipy_loaded(code, tmp_path) == [], code


def test_leaky_chain_validates_without_scipy_and_sweeps_without_its_solvers(tmp_path):
    # every lifted row leaks, so the row sums prove absorption and no
    # class decomposition (csgraph) or Perron solve (linalg) is loaded
    spec = tmp_path / "leaky.json"
    save_problem(leaky_walk(), spec)
    f_path = tmp_path / "f.json"
    f_path.write_text(json.dumps({"3": 1.0}))
    validate = ["validate", "--in", str(spec), "--out", str(tmp_path / "v.json")]
    oracle = ["oracle", "--in", str(spec), "--f", str(f_path), "--n", "50",
              "--out", str(tmp_path / "o.json")]
    run = "from qergodic.cli import main; assert main({!r}) == 0"
    assert _scipy_loaded(run.format(validate), tmp_path) == []
    assert _strict((tmp_path / "v.json").read_text())["valid"] is True
    loaded = _scipy_loaded(run.format(oracle), tmp_path)
    assert "scipy.sparse" in loaded
    for skipped in ("scipy.sparse.csgraph", "scipy.linalg"):
        assert not any(m == skipped or m.startswith(skipped + ".") for m in loaded), skipped


# labels that the csv module quotes: a comma, a quote, a newline; a space
# is left bare
QUOTED_LABELS = {"2": 'q"2', "3": "mid, 3", "4": "sp 4", "5": "nl\n5"}


def _rerendered(path, int_columns: int) -> bytes:
    """The table at ``path`` parsed to numbers and written by csv.writer."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(
        [*map(int, row[:int_columns]), *map(float, row[int_columns:])] for row in rows
    )
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("names", [{}, QUOTED_LABELS], ids=["plain", "quoted"])
def test_cli_tables_are_the_bytes_csv_writer_writes(names, tmp_path):
    spec = problem_to_dict(n3_walk(0.5, start="3"))
    name = lambda x: names.get(x, x)
    spec = {
        "states": [name(x) for x in spec["states"]],
        "kernel": spec["kernel"],
        "gamma": spec["gamma"],
        "killing_sets": [[name(x) for x in s] for s in spec["killing_sets"]],
        "initial": {name(x): w for x, w in spec["initial"].items()},
    }
    spec_path, f_path = tmp_path / "walk.json", tmp_path / "f.json"
    spec_path.write_text(json.dumps(spec))
    f_path.write_text(json.dumps({name("3"): 1.0, name("2"): 0.25}))
    assert main(["simulate", "--in", str(spec_path), "--f", str(f_path), "--seed", "3",
                 "--paths", "4000", "--horizon", "30", "--out", str(tmp_path / "sim.json")]) == 0
    assert main(["oracle", "--in", str(spec_path), "--f", str(f_path), "--n", "60",
                 "--out", str(tmp_path / "oracle.json")]) == 0
    for report in ("sim.json", "oracle.json"):
        _strict((tmp_path / report).read_text())
    for table, int_columns in [("sim_estimates.csv", 2), ("oracle_mean_ratio.csv", 1),
                               ("oracle_conditional_laws.csv", 1)]:
        written = (tmp_path / table).read_bytes()
        assert written == _rerendered(tmp_path / table, int_columns), table
    with open(tmp_path / "oracle_conditional_laws.csv", newline="", encoding="utf-8") as fh:
        assert next(csv.reader(fh)) == ["n", *spec["states"]]
