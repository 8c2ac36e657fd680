import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sketchpower import bench_cli
from sketchpower.matrix_core import DenseMatrix
from sketchpower.precision_model import PIPELINES, simulate_storage
from sketchpower.stream_ingest import PipelineKind
from sketchpower.synthetic import Family, SyntheticSpec, generate, prescribed_spectrum, write_spim


def _run_cli(args, out_path):
    rc = bench_cli.main(args + ["--out", str(out_path)])
    return rc, out_path.read_bytes()


def test_run_csv_schema_and_determinism(tmp_path):
    args = ["run", "--data", "poly", "--alpha", "1", "--rank", "4", "--algo", "tyuc17_spi",
            "--q", "1", "--budget", "24", "--trials", "3", "--guidance", "auto",
            "--m", "80", "--n", "80", "--base-seed", "9"]
    rc1, b1 = _run_cli(args, tmp_path / "a.csv")
    rc2, b2 = _run_cli(args, tmp_path / "b.csv")
    assert rc1 == rc2 == 0
    assert b1 == b2
    rows = list(csv.reader((tmp_path / "a.csv").read_text().splitlines()))
    assert rows[0] == bench_cli.CSV_HEADER
    assert len(rows) == 1 + 3 + 2  # header, trials, mean, std
    assert rows[1][0] == "tyuc17_spi"
    assert [row[10] for row in rows[1:]] == ["0", "1", "2", "mean", "std"]
    assert all(row[-1] == "" for row in rows[1:])  # wall_ms empty without --timing


def test_worker_pool_does_not_change_bytes(tmp_path, monkeypatch):
    args = ["run", "--data", "lowrank", "--gamma", "0.01", "--rank", "3", "--algo", "tyuc17",
            "--s", "6", "--d", "14", "--trials", "4", "--m", "60", "--n", "50"]
    monkeypatch.setenv("SKETCHPOWER_WORKERS", "1")
    _, b1 = _run_cli(args, tmp_path / "w1.csv")
    monkeypatch.setenv("SKETCHPOWER_WORKERS", "4")
    _, b4 = _run_cli(args, tmp_path / "w4.csv")
    assert b1 == b4


def test_rsvd_exact_recovery_example(tmp_path):
    args = ["run", "--data", "lowrank", "--gamma", "0", "--rank", "10", "--algo", "rsvd_onepass",
            "--s", "15", "--trials", "1", "--m", "200", "--n", "150"]
    rc, _ = _run_cli(args, tmp_path / "r.csv")
    assert rc == 0
    rows = list(csv.DictReader((tmp_path / "r.csv").read_text().splitlines()))
    assert float(rows[0]["S_F"]) <= 1e-10  # flagged-exact absolute residual


def test_timing_flag_populates_wall_ms(tmp_path):
    args = ["run", "--data", "poly", "--rank", "3", "--algo", "tyuc17", "--s", "6", "--d", "14",
            "--trials", "1", "--m", "50", "--n", "50", "--timing"]
    _run_cli(args, tmp_path / "t.csv")
    rows = list(csv.DictReader((tmp_path / "t.csv").read_text().splitlines()))
    assert float(rows[0]["wall_ms"]) > 0


def test_two_sided_metrics_left_empty(tmp_path):
    args = ["run", "--data", "poly", "--rank", "3", "--algo", "tyuc19", "--s", "6", "--d", "14",
            "--trials", "1", "--m", "50", "--n", "50"]
    _run_cli(args, tmp_path / "t19.csv")
    rows = list(csv.DictReader((tmp_path / "t19.csv").read_text().splitlines()))
    assert rows[0]["range_err_F"] == ""
    assert rows[0]["extra_err_F"] == ""
    assert rows[0]["S_F"] != ""


def test_sweep_schema_and_markers(tmp_path):
    args = ["sweep", "--data", "lowrank", "--gamma", "0.01", "--rank", "5", "--algo", "tyuc17_spi",
            "--q", "1", "--budget", "22", "--trials", "4", "--m", "90", "--n", "90"]
    rc, _ = _run_cli(args, tmp_path / "s.csv")
    assert rc == 0
    rows = list(csv.reader((tmp_path / "s.csv").read_text().splitlines()))
    assert rows[0] == bench_cli.SWEEP_HEADER
    body = rows[1:]
    assert sum(int(r[6]) for r in body) == 1  # exactly one oracle row
    assert sum(int(r[7]) for r in body) == 1  # exactly one guided row
    feasible_s = {int(r[0]) for r in body}
    assert feasible_s == set(range(5, 12))  # r..floor(T/2)


def test_sweep_markers_are_consistent(tmp_path):
    # The oracle row is the sweep argmin; the guided row carries the size the
    # guidance module would pick.  (The near-oracle quality claim is checked
    # at its stated scale in the acceptance suite.)
    from sketchpower.guidance import DecayKind, SpectrumClass, select_sizes

    args = ["sweep", "--data", "poly", "--alpha", "2", "--rank", "5", "--algo", "tyuc17_spi",
            "--q", "1", "--budget", "30", "--trials", "6", "--m", "120", "--n", "120"]
    _run_cli(args, tmp_path / "s2.csv")
    rows = list(csv.DictReader((tmp_path / "s2.csv").read_text().splitlines()))
    oracle = next(r for r in rows if r["is_oracle"] == "1")
    assert float(oracle["mean_SF"]) == min(float(r["mean_SF"]) for r in rows)
    guided = next(r for r in rows if r["is_guided"] == "1")
    want = select_sizes(SpectrumClass(DecayKind.POLY, 2.0), 30, 120, 5)
    assert int(guided["s"]) == want[0]


def test_spectrum_prescription_slope(tmp_path):
    args = ["spectrum", "--data", "exp", "--alpha", "0.5", "--m", "40", "--n", "40", "--plateau", "5"]
    _run_cli(args, tmp_path / "sp.csv")
    rows = list(csv.DictReader((tmp_path / "sp.csv").read_text().splitlines()))
    sigma = np.array([float(r["sigma"]) for r in rows])
    logs = np.log(sigma[5:])
    slopes = np.diff(logs)
    assert np.allclose(slopes, -0.5, atol=1e-10)


def test_spectrum_round_trip_through_file(tmp_path):
    spec = SyntheticSpec(Family.EXP_DECAY, m=40, n=30, plateau=4, alpha=0.4, base_seed=3)
    path = tmp_path / "m.spim"
    write_spim(path, generate(spec))
    _run_cli(["spectrum", "--data", "file", "--file", str(path)], tmp_path / "sp2.csv")
    rows = list(csv.DictReader((tmp_path / "sp2.csv").read_text().splitlines()))
    sigma = np.array([float(r["sigma"]) for r in rows])
    assert np.max(np.abs(sigma - prescribed_spectrum(spec))) <= 1e-12


def test_spectrum_of_a_file_is_the_one_run_classifies(tmp_path):
    path = tmp_path / "g.spim"
    write_spim(path, DenseMatrix(np.random.default_rng(4).standard_normal((300, 200))))
    _run_cli(["spectrum", "--data", "file", "--file", str(path)], tmp_path / "sp.csv")
    rows = list(csv.DictReader((tmp_path / "sp.csv").read_text().splitlines()))
    sv = bench_cli._load_file(bench_cli.RunConfig(algo="tyuc17", data="file", file=str(path)))[2]
    assert [r["sigma"] for r in rows] == [bench_cli._fmt(float(v)) for v in sv]


def test_spectrum_empty_file_rejected(tmp_path):
    empty = tmp_path / "e.spim"
    empty.write_bytes(b"")
    with pytest.raises(ValueError, match="empty"):
        bench_cli.main(["spectrum", "--data", "file", "--file", str(empty)])


def test_file_dataset_run(tmp_path):
    spec = SyntheticSpec(Family.POLY_DECAY, m=60, n=45, plateau=5, alpha=1.0, base_seed=8)
    path = tmp_path / "d.spim"
    write_spim(path, generate(spec))
    args = ["run", "--data", "file", "--file", str(path), "--rank", "5", "--algo", "tyuc17",
            "--s", "8", "--d", "18", "--trials", "2"]
    rc, _ = _run_cli(args, tmp_path / "f.csv")
    assert rc == 0
    rows = list(csv.DictReader((tmp_path / "f.csv").read_text().splitlines()))
    assert rows[0]["dataset"] == "file"
    assert float(rows[0]["S_F"]) >= -1e-10


def test_file_run_with_auto_guidance_takes_one_svd(tmp_path, monkeypatch):
    import scipy.linalg

    spec = SyntheticSpec(Family.POLY_DECAY, m=60, n=45, plateau=5, alpha=1.0, base_seed=8)
    path = tmp_path / "d.spim"
    write_spim(path, generate(spec))
    full_svds = []

    def counting(fn):
        def wrapper(a, *args, **kwargs):
            if np.shape(a) == (60, 45):
                full_svds.append(fn.__name__)
            return fn(a, *args, **kwargs)
        return wrapper

    for mod, name in ((scipy.linalg, "svdvals"), (scipy.linalg, "svd"), (np.linalg, "svd")):
        monkeypatch.setattr(mod, name, counting(getattr(mod, name)))
    args = ["run", "--data", "file", "--file", str(path), "--rank", "5", "--algo", "tyuc17_spi",
            "--budget", "20", "--guidance", "auto", "--trials", "2"]
    rc, _ = _run_cli(args, tmp_path / "f.csv")
    assert rc == 0
    assert len(full_svds) == 1


def test_config_file_defaults_and_flag_override(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({
        "data": "poly", "alpha": 1.0, "rank": 3, "algo": "tyuc17",
        "s": 6, "d": 14, "trials": 2, "m": 50, "n": 50, "base_seed": 5,
    }))
    rc, b_cfg = _run_cli(["run", "--config", str(cfgfile)], tmp_path / "c1.csv")
    assert rc == 0
    rc, b_override = _run_cli(["run", "--config", str(cfgfile), "--trials", "3"], tmp_path / "c2.csv")
    assert rc == 0
    assert b_cfg != b_override
    assert len(b_override.splitlines()) == len(b_cfg.splitlines()) + 1

    bad = tmp_path / "bad.json"
    for key in ("no_such_flag", "block_rows"):
        bad.write_text(json.dumps({key: 1}))
        with pytest.raises(SystemExit, match=key):
            bench_cli.main(["run", "--config", str(bad)])
    with pytest.raises(SystemExit):  # the oracle sweep is the sweep subcommand
        bench_cli.main(["run", "--guidance", "sweep", "--budget", "30"])


@pytest.mark.parametrize("key, value, flag", [
    ("guidance_mode", "atuo", "--guidance"),
    ("test_matrix", "gausian", "--test-matrix"),
    ("precision", "all_double", "--precision"),
    ("data", "polynomial", "--data"),
    ("stabilize", "maybe", "--stabilize"),
])
def test_config_values_are_checked_like_flags(tmp_path, key, value, flag, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({key: value}))
    argv = ["run", "--config", str(cfgfile), "--algo", "tyuc17", "--s", "6", "--d", "14",
            "--trials", "1", "--m", "40", "--n", "40", "--rank", "3"]
    with pytest.raises(SystemExit) as exc:
        bench_cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"argument {flag}: invalid choice: '{value}'" in captured.err
    assert captured.out == ""


def test_config_timing_fills_wall_ms(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"timing": True, "algo": "tyuc17", "s": 6, "d": 14, "trials": 1,
                                   "m": 50, "n": 50, "rank": 3}))
    rc, _ = _run_cli(["run", "--config", str(cfgfile)], tmp_path / "t.csv")
    assert rc == 0
    rows = list(csv.DictReader((tmp_path / "t.csv").read_text().splitlines()))
    assert float(rows[0]["wall_ms"]) > 0


def test_failing_trials_set_exit_code(tmp_path):
    # d < s makes the corange solve underdetermined; every trial fails and is
    # enumerated on stderr with a nonzero exit code.
    args = ["run", "--data", "poly", "--rank", "3", "--algo", "tyuc17", "--s", "10", "--d", "4",
            "--trials", "2", "--m", "40", "--n", "40"]
    rc, _ = _run_cli(args, tmp_path / "fail.csv")
    assert rc == 1


def test_infeasible_budget_diagnostic():
    with pytest.raises(SystemExit):
        bench_cli.main(["run", "--data", "poly", "--rank", "10", "--algo", "tyuc17_spi",
                        "--budget", "15", "--guidance", "auto", "--m", "40", "--n", "40"])


def test_ledger_subcommand(tmp_path):
    args = ["ledger", "--algo", "tyuc17_spi", "--precision", "mixed",
            "--m", "1000", "--n", "1000", "--s", "20", "--d", "80", "--l", "100"]
    rc, _ = _run_cli(args, tmp_path / "l.csv")
    assert rc == 0
    rows = list(csv.reader((tmp_path / "l.csv").read_text().splitlines()))
    assert rows[0] == ["label", "rows", "cols", "precision", "words"]
    peak = next(r for r in rows if r[0] == "peak")
    assert float(peak[4]) == 1000 * 20 + 80 * 1000


@pytest.mark.parametrize("argv, problem", [
    (["--algo", "tyuc17", "--m", "100", "--n", "80", "--s", "50", "--d", "10"], "size rule d >= s"),
    (["--algo", "tyuc19", "--m", "100", "--n", "80", "--s", "500", "--d", "10"], "size rule 1 <= s <= min"),
    (["--algo", "tyuc17_spi_variant", "--precision", "mixed", "--m", "100", "--n", "100",
      "--s", "30", "--d", "40", "--l", "50"], "size rule l >= 2s"),
    # Sizes every rule accepts, but Z's words cannot cover the upcasts of Y and W.
    (["--algo", "tyuc17_spi", "--precision", "mixed", "--m", "1000", "--n", "1000",
      "--s", "20", "--d", "80", "--l", "50"], "'up w' needs 40000.0 words"),
])
def test_ledger_rejects_sizes_the_pipeline_cannot_hold(argv, problem, capsys):
    with pytest.raises(SystemExit, match=f"ledger: .*{problem}"):
        bench_cli.main(["ledger"] + argv)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("trials", ["0", "-1"])
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_trials_must_be_at_least_one(command, trials, capsys):
    with pytest.raises(SystemExit, match="--trials must be at least 1"):
        bench_cli.main([command, "--algo", "tyuc17_spi", "--budget", "30", "--guidance", "auto",
                        "--m", "40", "--n", "40", "--rank", "3", "--trials", trials])
    assert capsys.readouterr().out == ""


def test_console_entry_point_runs():
    src = str(Path(bench_cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "sketchpower.bench_cli", "run", "--data", "poly", "--rank", "3",
         "--algo", "tyuc17", "--s", "6", "--d", "14", "--trials", "1", "--m", "40", "--n", "40"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith(",".join(bench_cli.CSV_HEADER[:3]))


def test_workers_variable_must_be_a_positive_integer(monkeypatch):
    args = ["run", "--data", "poly", "--rank", "3", "--algo", "tyuc17", "--s", "6", "--d", "14",
            "--trials", "1", "--m", "40", "--n", "40"]
    for value in ("abc", "0", "-1", "1.5", ""):
        monkeypatch.setenv("SKETCHPOWER_WORKERS", value)
        with pytest.raises(SystemExit, match="SKETCHPOWER_WORKERS"):
            bench_cli.main(args)


@pytest.mark.parametrize("precision", ["double", "mixed"])
@pytest.mark.parametrize("kind", [k.value for k in PipelineKind])
def test_auto_sizes_store_at_most_the_budget(kind, precision, capsys):
    # Each sketch's words under the plan, as the ledger allocates them, never
    # exceed T*n; a budget that cannot afford the rank is an error instead.
    sketches = len(PIPELINES[kind].sketches)
    for m, n in ((400, 400), (800, 400), (400, 800)):
        for data, alpha in (("lowrank", 1.0), ("poly", 1.0), ("exp", 0.5)):
            for t in range(8, 201, 12):
                argv = ["ledger", "--algo", kind, "--precision", precision, "--data", data, "--alpha", str(alpha),
                        "--m", str(m), "--n", str(n), "--rank", "5", "--budget", str(t), "--guidance", "auto"]
                try:
                    bench_cli.main(argv)
                except SystemExit as exc:
                    assert "infeasible" in str(exc)
                    continue
                rows = list(csv.reader(capsys.readouterr().out.splitlines()))
                assert sum(float(row[4]) for row in rows[1 : 1 + sketches]) <= t * n, (m, n, data, t)


def test_sweep_guided_row_has_the_sizes_run_resolves_under_double_plan(tmp_path):
    common = ["--data", "poly", "--alpha", "2", "--rank", "5", "--algo", "tyuc17_spi", "--precision", "double",
              "--budget", "60", "--m", "80", "--n", "80", "--test-matrix", "gaussian", "--trials", "1"]
    _run_cli(["sweep", *common], tmp_path / "sweep.csv")
    guided = [r for r in csv.DictReader((tmp_path / "sweep.csv").read_text().splitlines()) if r["is_guided"] == "1"]
    _run_cli(["run", *common, "--guidance", "auto"], tmp_path / "run.csv")
    run_row = next(csv.DictReader((tmp_path / "run.csv").read_text().splitlines()))
    assert len(guided) == 1
    assert [guided[0][k] for k in "sdl"] == [run_row[k] for k in "sdl"]


def test_ledger_on_a_file_resolves_the_sizes_run_resolves(tmp_path):
    spec = SyntheticSpec(Family.POLY_DECAY, m=60, n=45, plateau=5, alpha=1.0, base_seed=8)
    path = tmp_path / "d.spim"
    write_spim(path, generate(spec))
    common = ["--data", "file", "--file", str(path), "--rank", "5", "--algo", "tyuc17_spi",
              "--budget", "20", "--guidance", "auto"]
    assert _run_cli(["run", *common, "--trials", "1"], tmp_path / "run.csv")[0] == 0
    row = next(csv.DictReader((tmp_path / "run.csv").read_text().splitlines()))
    assert _run_cli(["ledger", *common], tmp_path / "ledger.csv")[0] == 0
    ledger = list(csv.reader((tmp_path / "ledger.csv").read_text().splitlines()))
    plan = PIPELINES["tyuc17_spi"].default_plan
    expected = simulate_storage("tyuc17_spi", plan, 60, 45, int(row["s"]), int(row["d"]), int(row["l"]))
    assert [r[:3] for r in ledger[1:-1]] == [[str(x) for x in r[:3]] for r in expected.csv_rows()]


@pytest.mark.parametrize("budget", ["inf", "nan", "-5", "0"])
@pytest.mark.parametrize("command", ["run", "sweep", "ledger"])
def test_budget_must_be_positive_and_finite(command, budget):
    with pytest.raises(SystemExit, match="--budget must be a positive finite number"):
        bench_cli.main([command, "--algo", "tyuc17_spi", "--budget", budget, "--guidance", "auto",
                        "--m", "40", "--n", "40", "--rank", "3", "--trials", "1"])


def test_one_blas_thread_csv_does_not_depend_on_workers():
    # With one BLAS thread on two or more CPUs the data factors are built on
    # helper threads inside each trial's worker thread.
    src = str(Path(bench_cli.__file__).resolve().parents[1])
    outputs = []
    for workers in ("1", "3"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "SKETCHPOWER_WORKERS": workers,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "sketchpower.bench_cli", "run", "--algo", "tyuc17_spi", "--data", "poly",
             "--m", "300", "--n", "300", "--budget", "60", "--guidance", "auto", "--trials", "3"],
            capture_output=True, timeout=300, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
