import argparse
import csv
import importlib
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import sketchpower
from sketchpower import bench_cli, matrix_core, synthetic
from sketchpower.matrix_core import Precision
from sketchpower.precision_model import PIPELINES, PrecisionPlan, simulate_storage
from sketchpower.stream_ingest import PipelineKind, write_spim
from sketchpower.synthetic import Family, SyntheticSpec, generate, prescribed_spectrum


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
    from sketchpower.guidance import DecayKind, SpectrumClass, budget_sizes

    args = ["sweep", "--data", "poly", "--alpha", "2", "--rank", "5", "--algo", "tyuc17_spi",
            "--q", "1", "--budget", "30", "--trials", "6", "--m", "120", "--n", "120"]
    _run_cli(args, tmp_path / "s2.csv")
    rows = list(csv.DictReader((tmp_path / "s2.csv").read_text().splitlines()))
    oracle = next(r for r in rows if r["is_oracle"] == "1")
    assert float(oracle["mean_SF"]) == min(float(r["mean_SF"]) for r in rows)
    guided = next(r for r in rows if r["is_guided"] == "1")
    want = budget_sizes(PipelineKind.TYUC17_SPI, PrecisionPlan.MIXED_SINGLE_DOUBLE,
                        SpectrumClass(DecayKind.POLY, 2.0), 30.0, 120, 120, 5)
    assert (int(guided["s"]), int(guided["d"]), int(guided["l"])) == want


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
    write_spim(path, generate(spec)[0])
    _run_cli(["spectrum", "--data", "file", "--file", str(path)], tmp_path / "sp2.csv")
    rows = list(csv.DictReader((tmp_path / "sp2.csv").read_text().splitlines()))
    sigma = np.array([float(r["sigma"]) for r in rows])
    assert np.max(np.abs(sigma - prescribed_spectrum(spec))) <= 1e-12


def test_spectrum_of_a_file_is_the_one_run_classifies(tmp_path):
    path = tmp_path / "g.spim"
    write_spim(path, np.random.default_rng(4).standard_normal((300, 200)))
    _run_cli(["spectrum", "--data", "file", "--file", str(path)], tmp_path / "sp.csv")
    rows = list(csv.DictReader((tmp_path / "sp.csv").read_text().splitlines()))
    sv = bench_cli._load_file(argparse.Namespace(file=str(path)))[2]
    assert [r["sigma"] for r in rows] == [bench_cli._fmt(float(v)) for v in sv]


def test_spectrum_empty_file_rejected(tmp_path):
    empty = tmp_path / "e.spim"
    empty.write_bytes(b"")
    with pytest.raises(SystemExit, match="--file: .*empty"):
        bench_cli.main(["spectrum", "--data", "file", "--file", str(empty)])


def _unreadable(tmp_path, case):
    """A path the file reader refuses, and the reason it gives."""
    if case == "missing":
        return tmp_path / "missing.spim", "No such file or directory"
    if case == "directory":
        return tmp_path, "Is a directory"
    if case == "text":
        path = tmp_path / "notes.txt"
        path.write_text("not a matrix\n")
        return path, "unrecognized format"
    if case == "complex":
        import scipy.io

        path = tmp_path / "complex.mtx"
        scipy.io.mmwrite(path, np.ones((6, 4)) + 1j * np.eye(6, 4))
        return path, "complex entries are not supported"
    path = tmp_path / "nan.spim"
    bad = np.ones((6, 4))
    bad[3, 1] = np.nan
    write_spim(path, bad)
    return path, r"non-finite entries in row_block update of rows \[0, 6\)"


@pytest.mark.parametrize("case", ["missing", "directory", "text", "complex", "nan"])
@pytest.mark.parametrize("command", ["run", "spectrum", "ledger"])
def test_unreadable_file_exits_with_one_message(command, case, tmp_path, capsys):
    path, reason = _unreadable(tmp_path, case)
    with pytest.raises(SystemExit) as exit_:
        bench_cli.main([command, "--data", "file", "--file", str(path), "--algo", "tyuc17",
                        "--s", "2", "--d", "5", "--rank", "2", "--trials", "1"])
    message = exit_.value.code
    assert isinstance(message, str) and message.startswith("--file: ") and "\n" not in message
    assert re.search(reason, message), message
    assert capsys.readouterr() == ("", "")


def test_unreadable_file_prints_no_traceback(tmp_path):
    path, _ = _unreadable(tmp_path, "nan")
    src = str(Path(bench_cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "sketchpower.bench_cli", "run", "--data", "file", "--file", str(path),
         "--algo", "tyuc17", "--s", "2", "--d", "5", "--rank", "2"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("--file: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("form, size, shape", [("array", "0 0", "0x0"), ("array", "0 5", "0x5"),
                                              ("coordinate", "0 0 0", "0x0")])
def test_matrix_market_file_with_no_rows_is_refused(tmp_path, form, size, shape):
    # scipy.io.mmread dies with SIGFPE on an array file with no rows, so each
    # reader runs in a child process.
    path = tmp_path / "z.mtx"
    path.write_text(f"%%MatrixMarket matrix {form} real general\n{size}\n")
    src = str(Path(bench_cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys\nfrom sketchpower.stream_ingest import PipelineKind, ingest_file, read_matrix\n"
            "for call in (read_matrix, lambda p: ingest_file(p, PipelineKind.TYUC17, 1, 2)):\n"
            "    try:\n        call(sys.argv[1])\n    except ValueError as exc:\n        print(exc)\n")
    proc = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True, text=True, timeout=120,
                          env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{path}: invalid dimensions {shape}\n" * 2, "")
    proc = subprocess.run(
        [sys.executable, "-m", "sketchpower.bench_cli", "run", "--data", "file", "--file", str(path),
         "--s", "2", "--d", "4", "--l", "6"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"--file: {path}: invalid dimensions {shape}\n")


def test_file_dataset_run(tmp_path):
    spec = SyntheticSpec(Family.POLY_DECAY, m=60, n=45, plateau=5, alpha=1.0, base_seed=8)
    path = tmp_path / "d.spim"
    write_spim(path, generate(spec)[0])
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
    write_spim(path, generate(spec)[0])
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
    bad.write_text("{x")
    for path, reason in ((tmp_path / "missing.json", "No such file or directory"),
                         (bad, "Expecting property name"), (cfgfile, "a JSON int, not an object")):
        if path == cfgfile:
            cfgfile.write_text("5")
        with pytest.raises(SystemExit) as exit_:
            bench_cli.main(["run", "--config", str(path)])
        message = exit_.value.code
        assert isinstance(message, str) and message.startswith("--config: ") and "\n" not in message
        assert str(path) in message and reason in message, message
    with pytest.raises(SystemExit):  # the oracle sweep is the sweep subcommand
        bench_cli.main(["run", "--guidance", "sweep", "--budget", "30"])


@pytest.mark.parametrize("command", ["run", "ledger"])
def test_unwritable_out_exits_with_one_message(command, tmp_path, capsys):
    out = tmp_path / "no_such_dir" / "x.csv"
    with pytest.raises(SystemExit) as exit_:
        bench_cli.main([command, "--algo", "tyuc17", "--s", "5", "--d", "12", "--rank", "3",
                        "--m", "40", "--n", "40", "--trials", "1", "--out", str(out)])
    message = exit_.value.code
    assert isinstance(message, str) and message.startswith("--out: ") and "\n" not in message
    assert str(out) in message and "No such file or directory" in message, message
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("key, value, flag", [
    ("guidance_mode", "atuo", "--guidance"),
    ("test_matrix", "gausian", "--test-matrix"),
    ("precision", "all_double", "--precision"),
    ("data", "polynomial", "--data"),
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


def test_q_is_the_only_power_setting(tmp_path, capsys):
    # The iteration follows from --q alone: a --stabilize flag or config key
    # is refused like any other unknown one.
    with pytest.raises(SystemExit) as exc:
        bench_cli.main(["run", "--stabilize", "on", "--algo", "tyuc17_spi", "--trials", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --stabilize on" in capsys.readouterr().err
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"stabilize": "on"}))
    with pytest.raises(SystemExit) as exc:
        bench_cli.main(["run", "--config", str(cfgfile), "--algo", "tyuc17_spi", "--trials", "1"])
    assert exc.value.code == "unknown keys in config file: ['stabilize']"


def test_config_timing_fills_wall_ms(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"timing": True, "algo": "tyuc17", "s": 6, "d": 14, "trials": 1,
                                   "m": 50, "n": 50, "rank": 3}))
    rc, _ = _run_cli(["run", "--config", str(cfgfile)], tmp_path / "t.csv")
    assert rc == 0
    rows = list(csv.DictReader((tmp_path / "t.csv").read_text().splitlines()))
    assert float(rows[0]["wall_ms"]) > 0


def test_failing_trials_set_exit_code(tmp_path, capsys, monkeypatch):
    # Every trial fails in its finisher and is enumerated on stderr with a
    # nonzero exit code.  (Sizes the pipeline refuses exit before any trial.)
    def failing(*args, **kwargs):
        raise ValueError("made to fail")

    monkeypatch.setattr(bench_cli, "approximate", failing)
    args = ["run", "--data", "poly", "--rank", "3", "--algo", "tyuc17", "--s", "10", "--d", "24",
            "--trials", "2", "--m", "40", "--n", "40"]
    rc, _ = _run_cli(args, tmp_path / "fail.csv")
    assert rc == 1
    assert capsys.readouterr().err == "trial 0 failed: made to fail\ntrial 1 failed: made to fail\n"


@pytest.mark.parametrize("algo", ["tyuc17_spi", "tyuc17", "tyuc19"])
def test_sparse_sign_trials_are_as_accurate_as_gaussian_ones(algo, tmp_path):
    """At 400x400 poly-1, T = 60 guided, 8 trials, the mean S_F with
    sparse_sign test matrices is within 25% of the mean with Gaussian ones."""
    means = {}
    for tm in ("gaussian", "sparse_sign"):
        args = ["run", "--algo", algo, "--data", "poly", "--alpha", "1", "--m", "400", "--n", "400",
                "--budget", "60", "--guidance", "auto", "--trials", "8", "--base-seed", "5", "--test-matrix", tm]
        rc, out = _run_cli(args, tmp_path / f"{tm}.csv")
        assert rc == 0
        rows = list(csv.DictReader(out.decode().splitlines()))
        means[tm] = float(next(row for row in rows if row["trial"] == "mean")["S_F"])
    assert abs(means["sparse_sign"] / means["gaussian"] - 1) <= 0.25, means


def test_infeasible_budget_diagnostic():
    with pytest.raises(SystemExit):
        bench_cli.main(["run", "--data", "poly", "--rank", "10", "--algo", "tyuc17_spi",
                        "--budget", "15", "--guidance", "auto", "--m", "40", "--n", "40"])


@pytest.mark.parametrize("kind", [k.value for k in PipelineKind])
def test_ledger_names_the_finite_least_budget_of_a_tall_matrix(kind, tmp_path, capsys):
    # No budget near T = 21 fits r = 10 at 2,000,000 x 1000; the refusal
    # names the least that does, and no data is made for a ledger.
    args = ["ledger", "--algo", kind, "--m", "2000000", "--n", "1000", "--guidance", "auto"]
    with pytest.raises(SystemExit, match="minimal feasible T is [0-9]+$") as exc:
        bench_cli.main(args + ["--budget", "21", "--out", str(tmp_path / "refused.csv")])
    assert not (tmp_path / "refused.csv").exists() and capsys.readouterr().out == ""
    least = re.search("T is ([0-9]+)$", str(exc.value)).group(1)
    assert _run_cli(args + ["--budget", least], tmp_path / "least.csv")[0] == 0


def test_importing_the_cli_leaves_scipy_special_unloaded():
    # guidance.lambert_w_minus1 imports it on first use: loading it costs
    # every CLI process about 35 ms.
    src = str(Path(bench_cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, sketchpower.bench_cli; print('scipy.special' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_auto_guidance_resolves_every_budget_above_one_that_resolves(tmp_path):
    # At T=400 the table's s is 150, past min(m, n) = 60, and is capped there.
    for budget, s in (("100", "38"), ("400", "60")):
        rc, out = _run_cli(["run", "--algo", "tyuc17_spi", "--data", "poly", "--alpha", "2", "--m", "60",
                            "--n", "60", "--rank", "4", "--budget", budget, "--guidance", "auto",
                            "--trials", "1"], tmp_path / "r.csv")
        assert rc == 0
        assert next(csv.DictReader(out.decode().splitlines()))["s"] == s


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


# Exits taken before any data is made, each for a missing or misplaced flag.
_MISSING_FLAGS = [
    (["run", "--guidance", "auto"], "--guidance auto requires --budget"),
    (["run", "--guidance", "manual", "--budget", "30"], "manual guidance requires --s (and --d/--l as the algorithm needs)"),
    (["run", "--algo", "tyuc17", "--s", "5"], "tyuc17 requires --d"),
    (["run", "--algo", "tyuc17_spi", "--s", "5", "--d", "12"], "tyuc17_spi requires --l"),
    (["run", "--data", "file", "--s", "5", "--d", "12", "--l", "14"], "--data file requires --file PATH"),
    (["sweep"], "sweep requires --budget"),
    (["sweep", "--data", "file", "--budget", "30"], "sweep runs on synthetic dataset specs"),
]


@pytest.mark.parametrize("argv, problem", _MISSING_FLAGS)
def test_a_missing_flag_exits_before_any_data_is_made(argv, problem, monkeypatch, capsys):
    made = []
    monkeypatch.setattr(synthetic, "generate", lambda spec: made.append(spec))
    with pytest.raises(SystemExit) as exit_:
        bench_cli.main(argv + ["--m", "60", "--n", "50", "--rank", "3", "--trials", "1"])
    assert exit_.value.code == problem
    assert capsys.readouterr() == ("", "") and made == []


_BAD_SETTINGS = [
    (["--sparsity", "2"], r"invalid settings: sparsity must be in \(0, 1\], got 2.0"),
    (["--test-matrix", "sparse_rademacher", "--sparsity", "0"],
     r"invalid settings: sparsity must be in \(0, 1\], got 0.0"),
    (["--q", "-1"], "invalid settings: power iteration count must be >= 0, got -1"),
]
# Manual sizes and ranks the pipeline refuses; the sweep takes neither.
_BAD_RUN_SIZES = [
    (["--s", "10", "--d", "20", "--l", "30", "--rank", "12"],
     r"invalid settings: target rank must satisfy 1 <= r <= s, got r=12, s=10"),
    (["--s", "10", "--d", "20", "--l", "30", "--rank", "-2"],
     r"invalid settings: target rank must satisfy 1 <= r <= s, got r=-2, s=10"),
    (["--algo", "tyuc17", "--s", "12", "--d", "8"], r"invalid settings: tyuc17: size rule d >= s fails with d=8"),
    (["--s", "0", "--d", "20", "--l", "30"], r"invalid settings: tyuc17_spi: size rule 1 <= s <= min\(m, n\)"),
]
# Sizes that --guidance auto and the sweep resolve themselves are refused, not dropped.
_GIVEN_SIZES = [
    (["--guidance", "auto", "--s", "5"], "resolves the sketch sizes itself and does not take --s$"),
    (["--guidance", "auto", "--s", "5", "--d", "7", "--l", "9"],
     "resolves the sketch sizes itself and does not take --s, --d, --l$"),
    (["--guidance", "auto", "--l", "9"], "resolves the sketch sizes itself and does not take --l$"),
]
_BAD_SWEEP_SIZES = [
    (["--s", "5", "--d", "12"], "^sweep resolves the sketch sizes itself and does not take --s, --d$"),
]
_BAD_BY_COMMAND = {"run": _BAD_SETTINGS + _GIVEN_SIZES + _BAD_RUN_SIZES,
                   "sweep": _BAD_SETTINGS + _GIVEN_SIZES + _BAD_SWEEP_SIZES, "ledger": _GIVEN_SIZES}


@pytest.mark.parametrize("command, flags, problem",
                         [(c, f, p) for c, cases in _BAD_BY_COMMAND.items() for f, p in cases],
                         ids=[f"{c}-flags{i}-{p}" for c, cases in _BAD_BY_COMMAND.items()
                              for i, (_, p) in enumerate(cases)])
def test_bad_settings_exit_once_before_any_data_is_made(command, flags, problem, capsys, monkeypatch):
    made = []
    monkeypatch.setattr(synthetic, "generate", lambda spec: made.append(spec))
    with pytest.raises(SystemExit, match=problem):
        bench_cli.main([command, "--budget", "40", "--rank", "3", "--m", "60", "--n", "50", "--trials", "2", *flags])
    assert capsys.readouterr() == ("", "") and made == []


def test_bad_run_settings_print_one_message_and_no_trial_lines():
    src = str(Path(bench_cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "sketchpower.bench_cli", "run", "--sparsity", "2", "--trials", "2",
         "--m", "60", "--n", "50", "--budget", "30", "--rank", "3"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "invalid settings: sparsity must be in (0, 1], got 2.0\n"


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


@pytest.mark.parametrize("kind", [k.value for k in PipelineKind])
def test_run_and_sweep_write_the_q_their_pipeline_applies(kind, tmp_path):
    """A kind with no power sketch applies no power iteration: ``run``
    writes q=0 for it, as ``sweep`` does, with the errors of a --q 0 run."""
    powered = PIPELINES[kind].uses("l")
    common = ["run", "--data", "poly", "--rank", "3", "--algo", kind, "--s", "4", "--d", "10", "--l", "12",
              "--trials", "2", "--m", "40", "--n", "30"]
    _, q3 = _run_cli([*common, "--q", "3"], tmp_path / "q3.csv")
    _, q0 = _run_cli([*common, "--q", "0"], tmp_path / "q0.csv")
    rows = list(csv.DictReader(q3.decode().splitlines()))
    assert len(rows) == 4 and {row["q"] for row in rows} == {"3" if powered else "0"}
    assert (q3 == q0) is not powered
    if kind in ("tyuc17", "tyuc17_spi"):
        _run_cli(["sweep", "--data", "poly", "--rank", "3", "--algo", kind, "--q", "3", "--budget", "30",
                  "--trials", "1", "--m", "40", "--n", "30"], tmp_path / "sweep.csv")
        sweep = list(csv.DictReader((tmp_path / "sweep.csv").read_text().splitlines()))
        assert {row["q"] for row in sweep} == {"3" if powered else "0"}


def test_ledger_on_a_file_resolves_the_sizes_run_resolves(tmp_path):
    spec = SyntheticSpec(Family.POLY_DECAY, m=60, n=45, plateau=5, alpha=1.0, base_seed=8)
    path = tmp_path / "d.spim"
    write_spim(path, generate(spec)[0])
    common = ["--data", "file", "--file", str(path), "--rank", "5", "--algo", "tyuc17_spi",
              "--budget", "20", "--guidance", "auto"]
    assert _run_cli(["run", *common, "--trials", "1"], tmp_path / "run.csv")[0] == 0
    row = next(csv.DictReader((tmp_path / "run.csv").read_text().splitlines()))
    assert _run_cli(["ledger", *common], tmp_path / "ledger.csv")[0] == 0
    ledger = list(csv.reader((tmp_path / "ledger.csv").read_text().splitlines()))
    plan = PIPELINES["tyuc17_spi"].default_plan
    expected = simulate_storage("tyuc17_spi", plan, 60, 45, int(row["s"]), int(row["d"]), int(row["l"]))
    assert [r[:3] for r in ledger[1:-1]] == [[str(x) for x in r[:3]] for r in expected.csv_rows()]


@pytest.mark.parametrize("precision", [None, Precision.BINARY32])
def test_manual_ledger_of_a_file_reads_no_spectrum(precision, tmp_path, monkeypatch):
    # Manual sizes need only the file's shape: the file is walked and
    # checked, and no SVD is taken.
    import scipy.linalg

    path = tmp_path / "d.spim"
    write_spim(path, np.random.default_rng(9).standard_normal((60, 45)), precision)
    argv = ["ledger", "--data", "file", "--file", str(path), "--algo", "tyuc17_spi", "--s", "6", "--d", "14",
            "--l", "20"]
    rc, want = _run_cli(argv, tmp_path / "want.csv")

    def no_svd(*args, **kwargs):
        raise AssertionError("svdvals called")

    monkeypatch.setattr(scipy.linalg, "svdvals", no_svd)
    assert rc == 0 and _run_cli(argv, tmp_path / "got.csv") == (0, want)
    plan = PIPELINES["tyuc17_spi"].default_plan
    expected = simulate_storage("tyuc17_spi", plan, 60, 45, 6, 14, 20)
    ledger = list(csv.reader(want.decode().splitlines()))
    assert [r[:3] for r in ledger[1:-1]] == [[str(x) for x in r[:3]] for r in expected.csv_rows()]


@pytest.mark.parametrize("budget", ["inf", "nan", "-5", "0"])
@pytest.mark.parametrize("command", ["run", "sweep", "ledger"])
def test_budget_must_be_positive_and_finite(command, budget):
    with pytest.raises(SystemExit, match="--budget must be a positive finite number"):
        bench_cli.main([command, "--algo", "tyuc17_spi", "--budget", budget, "--guidance", "auto",
                        "--m", "40", "--n", "40", "--rank", "3", "--trials", "1"])


@pytest.mark.parametrize("flags, problem", [
    (["--alpha", "-1"], "alpha must be a non-negative finite number, got -1.0"),
    (["--alpha", "nan"], "alpha must be a non-negative finite number, got nan"),
    (["--data", "exp", "--alpha", "inf"], "alpha must be a non-negative finite number, got inf"),
    (["--data", "lowrank", "--gamma", "-1"], "snr .*must be a non-negative finite number, got -1.0"),
    (["--plateau", "-1"], "plateau must be non-negative, got -1"),
    (["--m", "-5", "--plateau", "0"], "m must be at least 1, got -5"),
])
@pytest.mark.parametrize("command, sizes", [
    ("run", ["--s", "12", "--d", "20", "--l", "30", "--rank", "5"]),
    ("run", ["--budget", "40", "--rank", "5"]),
    ("sweep", ["--budget", "40", "--rank", "5"]),
    ("spectrum", []),
    ("ledger", ["--budget", "40", "--rank", "5"]),
])
def test_impossible_synthetic_specs_exit_with_the_field_named(command, sizes, flags, problem, capsys):
    with pytest.raises(SystemExit, match=f"invalid dataset: {problem}"):
        bench_cli.main([command, "--m", "60", "--n", "50", "--trials", "1", *sizes, *flags])
    assert capsys.readouterr().out == ""


def test_csv_does_not_depend_on_the_blas_thread_count():
    # The library holds BLAS at one thread whatever the environment says, and
    # on two or more CPUs shares the trials with a forked child and builds
    # the data factors on a helper thread inside each trial.
    src = str(Path(bench_cli.__file__).resolve().parents[1])
    base = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for blas in ("1", "3", None):
        env = dict(base)
        if blas is not None:
            env.update(OPENBLAS_NUM_THREADS=blas, OMP_NUM_THREADS=blas)
        proc = subprocess.run(
            [sys.executable, "-m", "sketchpower.bench_cli", "run", "--algo", "tyuc17_spi", "--data", "poly",
             "--m", "300", "--n", "300", "--budget", "60", "--guidance", "auto", "--trials", "3"],
            capture_output=True, timeout=300, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == outputs[2]


_AUTO_300 = ["--data", "lowrank", "--m", "300", "--n", "200", "--budget", "40", "--guidance", "auto",
             "--trials", "3", "--rank", "5"]


@pytest.mark.parametrize("algo, args", [
    ("tyuc17_spi", _AUTO_300),
    ("tyuc19", _AUTO_300),
    ("tyuc17", ["--data", "lowrank", "--gamma", "0.01", "--rank", "3", "--s", "6", "--d", "14",
                "--trials", "4", "--m", "60", "--n", "50"]),
], ids=["tyuc17_spi", "tyuc19", "tyuc17"])
def test_csv_bytes_do_not_depend_on_the_helper_thread(algo, args, tmp_path, monkeypatch):
    # The data's two factors are built on two threads, and the run's trials
    # and the sweep's grid points shared with a child; tyuc19 has no
    # range/extra split, so its cells stay empty.
    run = ["run", "--algo", algo, *args]
    sweep = ["sweep", "--algo", "tyuc17_spi", "--data", "poly", "--alpha", "2", "--m", "120", "--n", "120",
             "--budget", "40", "--trials", "2", "--rank", "5", "--test-matrix", "gaussian"]
    outputs = set()
    for gate in (False, True):
        monkeypatch.setattr(matrix_core, "_TWO_CPUS", gate)
        outputs.add((_run_cli(run, tmp_path / "run.csv"), _run_cli(sweep, tmp_path / "sweep.csv")))
    assert len(outputs) == 1
    (rc_run, run_csv), (rc_sweep, _) = outputs.pop()
    assert rc_run == rc_sweep == 0
    cells = [row[14] for row in csv.reader(run_csv.decode().splitlines()[1:])]
    assert all(cells) if algo != "tyuc19" else not any(cells)


def test_parser_built_once_gives_the_bytes_of_fresh_parsers(tmp_path, monkeypatch):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"algo": "tyuc17", "s": 6, "d": 14, "trials": 2, "m": 50, "n": 50, "rank": 3}))
    calls = (["run", "--config", str(cfgfile), "--q", "2"],
             ["ledger", "--algo", "tyuc17_spi", "--budget", "48", "--m", "200", "--n", "200"])

    def outputs(fresh):
        got = []
        for i, argv in enumerate(calls):
            if fresh:
                bench_cli._build_parser.cache_clear()
            got.append(_run_cli(list(argv), tmp_path / f"{fresh}-{i}.csv"))
        return got

    cached = outputs(False)
    assert bench_cli._build_parser() is bench_cli._build_parser()
    assert outputs(True) == cached
    assert [rc for rc, _ in cached] == [0, 0]


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_public_functions_are_never_open_on_two_threads_at_once(command, tmp_path, monkeypatch):
    # A profiler that wraps the package's public functions keeps one stack of
    # open calls, so the helper thread must not enter one while another
    # thread is inside one: it takes only private code, NumPy/SciPy kernels
    # and the leaf helpers, which call no other function of the package.
    # (The run's trials and the sweep's grid points are shared with a forked
    # child process, whose calls a profiler of this process does not see.)
    leaves = {"as_f64", "all_finite", "binary_exponent", "fro_norm", "stream_seed", "rng_for"}
    lock, depth, overlaps = threading.Lock(), {}, []

    def wrap(fn):
        def wrapper(*args, **kwargs):
            me = threading.get_ident()
            with lock:
                if any(n for t, n in depth.items() if t != me):
                    overlaps.append(fn.__qualname__)
                depth[me] = depth.get(me, 0) + 1
            try:
                return fn(*args, **kwargs)
            finally:
                with lock:
                    depth[me] -= 1
        return wrapper

    mods = [importlib.import_module(f"sketchpower.{name}") for name in
            ("approximators", "bench_cli", "guidance", "matrix_core", "metrics", "precision_model", "spi",
             "stream_ingest", "synthetic", "test_matrices")]
    for mod in mods:
        for name in getattr(mod, "__all__", ()):
            fn = getattr(mod, name)
            if callable(fn) and not isinstance(fn, type) and name not in leaves:
                wrapped = wrap(fn)
                for owner in mods + [sketchpower]:
                    for key, val in list(vars(owner).items()):
                        if val is fn:
                            monkeypatch.setattr(owner, key, wrapped)
    stream_cls = importlib.import_module("sketchpower.stream_ingest").SketchStream
    for name in ("ingest", "finalize"):
        monkeypatch.setattr(stream_cls, name, wrap(getattr(stream_cls, name)))
    forks, fork = [], os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    args = {"run": ["run", "--algo", "tyuc17_spi", "--data", "lowrank", "--m", "600", "--n", "500",
                    "--budget", "40", "--guidance", "auto", "--trials", "2", "--rank", "5"],
            "sweep": ["sweep", "--algo", "tyuc17_spi", "--data", "poly", "--alpha", "2", "--m", "120",
                      "--n", "120", "--budget", "40", "--trials", "2", "--rank", "5"]}[command]
    for gate in (True, False):
        monkeypatch.setattr(matrix_core, "_TWO_CPUS", gate)
        forks.clear()
        rc, _ = _run_cli(args, tmp_path / "out.csv")
        assert rc == 0
        assert overlaps == []
        assert bool(forks) is gate  # the trials or grid points were shared with a child


@pytest.mark.parametrize("gate", [True, False])
def test_a_failing_trial_is_reported_and_the_others_written(gate, tmp_path, monkeypatch, capsys):
    # Trial 1 is the forked child's share; its exception cannot be pickled,
    # so only its message comes back.
    class Unpicklable(Exception):
        pass

    open_stream = bench_cli.open_stream

    def failing_at_trial_1(*args, trial, **kwargs):
        if trial == 1:
            raise Unpicklable("made to fail")
        return open_stream(*args, trial=trial, **kwargs)

    monkeypatch.setattr(bench_cli, "open_stream", failing_at_trial_1)
    monkeypatch.setattr(matrix_core, "_TWO_CPUS", gate)
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    args = ["run", "--algo", "tyuc17", "--data", "poly", "--rank", "3", "--s", "6", "--d", "14",
            "--trials", "4", "--m", "60", "--n", "50"]
    rc, out = _run_cli(args, tmp_path / "f.csv")
    assert rc == 1
    assert bool(forks) is gate
    assert capsys.readouterr().err == "trial 1 failed: made to fail\n"
    rows = list(csv.reader(out.decode().splitlines()))
    assert [row[10] for row in rows[1:]] == ["0", "2", "3", "mean", "std"]
    assert all(row[12] for row in rows[1:])


@pytest.mark.parametrize("argv, problem", [
    (["--algo", "tyuc17_spi", "--budget", "5"], "minimal feasible T is 6"),
])
def test_sweep_refuses_what_the_oracle_sweep_cannot_run(argv, problem, capsys):
    with pytest.raises(SystemExit, match=f"sweep: .*{problem}"):
        bench_cli.main(["sweep", *argv, "--m", "60", "--n", "60", "--rank", "3"])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("algo", ["tyuc17_spi_variant", "rsvd_onepass", "tyuc19", "tyuc19_spi"])
def test_sweep_of_every_kind_writes_one_oracle_and_one_guided_row(algo, tmp_path):
    rc, out = _run_cli(["sweep", "--algo", algo, "--budget", "30", "--m", "60", "--n", "60", "--rank", "3",
                        "--trials", "2"], tmp_path / "s.csv")
    rows = list(csv.DictReader(out.decode().splitlines()))
    assert rc == 0 and len(rows) > 2
    assert [r["is_oracle"] for r in rows].count("1") == 1 and [r["is_guided"] for r in rows].count("1") == 1


def test_sweep_without_a_guided_row_writes_the_table_and_fails_with_runs_message(tmp_path, capsys):
    """An affordable grid whose budget ``--guidance auto`` cannot resolve
    still gets its table, with an oracle row and no guided row; the exit
    status is 1 and stderr carries the message ``run`` exits with."""
    argv = ["--algo", "tyuc17_spi", "--budget", "6", "--m", "60", "--n", "60", "--rank", "3", "--trials", "1"]
    rc, out = _run_cli(["sweep", *argv], tmp_path / "s.csv")
    err = capsys.readouterr().err
    rows = list(csv.DictReader(out.decode().splitlines()))
    assert rc == 1 and rows
    assert [r["is_oracle"] for r in rows].count("1") == 1 and all(r["is_guided"] == "0" for r in rows)
    with pytest.raises(SystemExit) as run_exit:
        bench_cli.main(["run", *argv, "--guidance", "auto"])
    assert "minimal feasible T is 7" in str(run_exit.value.code)
    assert err == f"no guided row: {run_exit.value.code}\n"


@pytest.mark.parametrize("command", ["run", "ledger"])
def test_auto_guidance_refuses_a_file_spectrum_it_cannot_classify(command, tmp_path, capsys):
    rng = np.random.default_rng(5)
    path = tmp_path / "rank5.spim"
    write_spim(path, rng.standard_normal((60, 5)) @ rng.standard_normal((5, 40)))
    with pytest.raises(SystemExit, match=f"--guidance auto .*{path}.*got 5"):
        bench_cli.main([command, "--data", "file", "--file", str(path), "--guidance", "auto",
                        "--budget", "20", "--rank", "3"])
    assert capsys.readouterr().out == ""
