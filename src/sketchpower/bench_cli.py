"""Benchmark harness: dataset generation, pipeline runs, guidance, sweeps, CSV.

Budget convention: ``--budget T`` is the total sketch storage T*n in
double-precision words, each sketch's words counted from the pipeline table
under the chosen plan (a binary32 entry is half a word).  ``--guidance auto``
resolves sizes with :func:`guidance.budget_sizes`, a pure function of the
pipeline, plan, dataset spec, T and r, so identical invocations produce
identical CSVs; a budget that cannot afford r is an error.

Timing is opt-in (``--timing``): the wall_ms column is left empty by default
so that equal seeds give byte-identical output across runs and worker-pool
sizes (workers come from the SKETCHPOWER_WORKERS environment variable).
"""
from __future__ import annotations

import argparse
import concurrent.futures
import csv
import dataclasses
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg as la

from . import guidance, metrics, synthetic
from .approximators import approximate
from .precision_model import PIPELINES, LedgerError, PrecisionPlan, simulate_storage
from .spi import SpiParams
from .stream_ingest import LinearUpdate, PipelineKind, open_stream, read_matrix
from .test_matrices import GAUSSIAN, SeedSpec, Stream, TestMatrixKind, stream_seed

CSV_HEADER = [
    "algo", "dataset", "param", "alpha_or_gamma", "budget_T", "r", "s", "d", "l", "q",
    "trial", "seed", "S_F", "S_inf", "range_err_F", "range_err_S",
    "extra_err_F", "extra_err_S", "wall_ms",
]

SWEEP_HEADER = ["s", "d", "l", "q", "mean_SF", "mean_Sinf", "is_oracle", "is_guided"]


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


@dataclass
class RunConfig:
    algo: str
    data: str = "poly"
    file: Optional[str] = None
    alpha: float = 1.0
    gamma: float = 1e-2
    rank: int = 10
    plateau: int = 10
    m: int = 1000
    n: int = 1000
    budget: Optional[float] = None
    s: Optional[int] = None
    d: Optional[int] = None
    l: Optional[int] = None
    q: int = 1
    trials: int = 20
    base_seed: int = 0
    precision: Optional[str] = None
    guidance_mode: str = "manual"
    test_matrix: str = "sparse_rademacher"
    sparsity: float = 0.01
    stabilize: str = "auto"
    timing: bool = False
    out: Optional[str] = None

    def __post_init__(self):
        if self.budget is not None and not (math.isfinite(self.budget) and self.budget > 0):
            raise SystemExit(f"--budget must be a positive finite number, got {self.budget!r}")
        if self.trials < 1:
            raise SystemExit(f"--trials must be at least 1, got {self.trials}")


def _plan_of(cfg: RunConfig, kind: PipelineKind) -> PrecisionPlan:
    if cfg.precision is None:
        return PIPELINES[kind.value].default_plan
    return {"double": PrecisionPlan.ALL_DOUBLE, "mixed": PrecisionPlan.MIXED_SINGLE_DOUBLE}[cfg.precision]


def _test_kind(cfg: RunConfig) -> TestMatrixKind:
    if cfg.test_matrix == "gaussian":
        return GAUSSIAN
    return TestMatrixKind(cfg.test_matrix, cfg.sparsity)


def _dataset_spec(cfg: RunConfig) -> Optional[synthetic.SyntheticSpec]:
    if cfg.data == "file":
        return None
    family = {
        "lowrank": synthetic.Family.LOWRANK_NOISE,
        "poly": synthetic.Family.POLY_DECAY,
        "exp": synthetic.Family.EXP_DECAY,
    }[cfg.data]
    return synthetic.SyntheticSpec(
        family=family, m=cfg.m, n=cfg.n, plateau=cfg.plateau,
        alpha=cfg.alpha, snr=cfg.gamma, base_seed=cfg.base_seed,
    )


def _spectrum_class(cfg: RunConfig, file_sv: Optional[np.ndarray]) -> guidance.SpectrumClass:
    if cfg.data == "lowrank":
        return guidance.SpectrumClass(guidance.DecayKind.FLAT)
    if cfg.data == "poly":
        return guidance.SpectrumClass(guidance.DecayKind.POLY, cfg.alpha)
    if cfg.data == "exp":
        return guidance.SpectrumClass(guidance.DecayKind.EXP, cfg.alpha)
    return guidance.classify_spectrum(file_sv[file_sv > file_sv[0] * 1e-14])


def _auto_sizes(cfg: RunConfig, kind: PipelineKind, plan: PrecisionPlan, file_sv) -> tuple[int, int, int]:
    if cfg.budget is None:
        raise SystemExit("--guidance auto requires --budget")
    cls = _spectrum_class(cfg, file_sv)
    try:
        return guidance.budget_sizes(kind, plan, cls, float(cfg.budget), cfg.m, cfg.n, cfg.rank)
    except ValueError as exc:
        raise SystemExit(f"infeasible parameter resolution: {exc}")


def _resolve_sizes(cfg: RunConfig, kind: PipelineKind, plan: PrecisionPlan, file_sv) -> tuple[int, int, int]:
    if cfg.guidance_mode == "auto":
        return _auto_sizes(cfg, kind, plan, file_sv)
    if cfg.s is None:
        raise SystemExit("manual guidance requires --s (and --d/--l as the algorithm needs)")
    s = cfg.s
    d = cfg.d if cfg.d is not None else 0
    l = cfg.l if cfg.l is not None else 0
    for name, size in (("d", d), ("l", l)):
        if size == 0 and PIPELINES[kind.value].uses(name):
            raise SystemExit(f"{kind.value} requires --{name}")
    return s, d, l


def _spi_params(cfg: RunConfig) -> SpiParams:
    return SpiParams(q=cfg.q, stabilize={"auto": None, "on": True, "off": False}[cfg.stabilize])


def _dataset_columns(cfg: RunConfig) -> tuple[str, str, Optional[float]]:
    if cfg.data == "file":
        return "file", cfg.file or "", None
    return cfg.data, str(cfg.plateau), cfg.gamma if cfg.data == "lowrank" else cfg.alpha


def _load_file(cfg: RunConfig) -> tuple[RunConfig, np.ndarray, np.ndarray]:
    """The file's matrix, cfg sized to it, and its singular values.

    One SVD of the file serves both the baselines and the guidance.
    """
    if not cfg.file:
        raise SystemExit("--data file requires --file PATH")
    a = read_matrix(cfg.file).data
    cfg = dataclasses.replace(cfg, m=a.shape[0], n=a.shape[1])
    return cfg, a, la.svdvals(a, check_finite=False)


def _run_one_trial(cfg, kind, plan, sizes, trial, shared_a, shared_base):
    s, d, l = sizes
    if shared_a is None:
        spec = _dataset_spec(cfg).with_trial(trial)
        a = synthetic.generate(spec).data
        base = metrics.spec_baselines(spec, a, cfg.rank)
    else:
        a, base = shared_a, shared_base
    stream = open_stream(
        kind, a.shape[0], a.shape[1], s, d, l,
        base_seed=cfg.base_seed, trial=trial, test_kind=_test_kind(cfg), plan=plan,
    )
    sk = stream.ingest(LinearUpdate.row_block(0, a)).finalize()
    t0 = time.perf_counter()
    result = approximate(sk, cfg.rank, _spi_params(cfg))
    wall_ms = (time.perf_counter() - t0) * 1e3
    rel = metrics.relative_error(a, result, cfg.rank, baselines=base)
    try:
        re = metrics.range_extra_errors(a, result, cfg.rank, baselines=base)
        range_f, range_s, extra_f, extra_s = re.range_f, re.range_s, re.extra_f, re.extra_s
    except metrics.MetricUnsupportedError:
        range_f = range_s = extra_f = extra_s = None
    return {
        "trial": trial,
        "seed": stream_seed(SeedSpec(cfg.base_seed, Stream.OMEGA, trial)),
        "S_F": rel.s_f,
        "S_inf": rel.s_inf,
        "range_err_F": range_f,
        "range_err_S": range_s,
        "extra_err_F": extra_f,
        "extra_err_S": extra_s,
        "wall_ms": wall_ms if cfg.timing else None,
    }


def _workers() -> int:
    value = os.environ.get("SKETCHPOWER_WORKERS", "1")
    if not value.strip().isdecimal() or int(value) < 1:
        raise SystemExit(f"SKETCHPOWER_WORKERS must be an integer >= 1, got {value!r}")
    return int(value)


def run(cfg: RunConfig, out=None) -> int:
    """Execute one benchmark configuration; returns a process exit code."""
    kind = PipelineKind(cfg.algo)
    plan = _plan_of(cfg, kind)

    shared_a = shared_base = file_sv = None
    if cfg.data == "file":
        cfg, shared_a, file_sv = _load_file(cfg)
        shared_base = metrics.baselines_from_spectrum(file_sv, cfg.rank)

    sizes = _resolve_sizes(cfg, kind, plan, file_sv)
    dataset, param, alpha_or_gamma = _dataset_columns(cfg)
    prefix = [cfg.algo, dataset, param, alpha_or_gamma, cfg.budget, cfg.rank,
              sizes[0], sizes[1] or None, sizes[2] or None, cfg.q]

    rows = [None] * cfg.trials
    failures = []
    with concurrent.futures.ThreadPoolExecutor(max_workers=_workers()) as pool:
        futs = [pool.submit(_run_one_trial, cfg, kind, plan, sizes, t, shared_a, shared_base)
                for t in range(cfg.trials)]
        for t, fut in enumerate(futs):
            try:
                rows[t] = fut.result()
            except Exception as exc:  # noqa: BLE001 - enumerate failing trials
                failures.append((t, exc))

    metric_keys = ["S_F", "S_inf", "range_err_F", "range_err_S", "extra_err_F", "extra_err_S", "wall_ms"]
    lines = [CSV_HEADER] + [
        [_fmt(x) for x in prefix] + [str(t), str(row["seed"])] + [_fmt(row[k]) for k in metric_keys]
        for t, row in enumerate(rows) if row is not None
    ]
    done = [r for r in rows if r is not None]
    if done:
        for label, reducer in (("mean", np.mean), ("std", lambda v: np.std(v, ddof=0))):
            stats = []
            for k in metric_keys:
                vals = [r[k] for r in done if r[k] is not None]
                stats.append(float(reducer(vals)) if vals else None)
            lines.append([_fmt(x) for x in prefix] + [label, ""] + [_fmt(x) for x in stats])

    _emit(lines, cfg.out if out is None else out)
    for t, exc in failures:
        print(f"trial {t} failed: {exc}", file=sys.stderr)
    return 0 if not failures else 1


def run_sweep(cfg: RunConfig, out=None) -> int:
    """Oracle sweep over s at fixed budget; marks the oracle and guided rows."""
    kind = PipelineKind(cfg.algo)
    if kind not in (PipelineKind.TYUC17, PipelineKind.TYUC17_SPI):
        raise SystemExit("sweep supports tyuc17 and tyuc17_spi")
    if cfg.budget is None:
        raise SystemExit("sweep requires --budget")
    if cfg.data == "file":
        raise SystemExit("sweep runs on synthetic dataset specs")
    plan = _plan_of(cfg, kind)
    spec = _dataset_spec(cfg)
    table = metrics.oracle_sweep(
        spec, kind, float(cfg.budget), cfg.rank,
        q_set=(cfg.q,), trials=cfg.trials, test_kind=_test_kind(cfg), plan=plan,
    )
    try:
        guided = _auto_sizes(cfg, kind, plan, None)
    except SystemExit:
        guided = None
    best = table.best()
    lines = [SWEEP_HEADER] + [
        [row.s, row.d or "", row.l or "", row.q, _fmt(row.mean_s_f), _fmt(row.mean_s_inf),
         "1" if row is best else "0", "1" if (row.s, row.d, row.l) == guided else "0"]
        for row in table.rows
    ]
    _emit(lines, cfg.out if out is None else out)
    return 0


def emit_spectrum(cfg: RunConfig, out=None) -> int:
    """Index, sigma_i pairs: prescribed for synthetic specs, computed for files."""
    if cfg.data == "file":
        sv = _load_file(cfg)[2]
    else:
        sv = synthetic.prescribed_spectrum(_dataset_spec(cfg))
    lines = [["index", "sigma"]] + [[i, _fmt(float(v))] for i, v in enumerate(sv, start=1)]
    _emit(lines, cfg.out if out is None else out)
    return 0


def emit_ledger(cfg: RunConfig, out=None) -> int:
    """Storage-ledger dump (label, rows, cols, precision, words) for a pipeline."""
    kind = PipelineKind(cfg.algo)
    plan = _plan_of(cfg, kind)
    file_sv = None
    if cfg.data == "file":
        cfg, _, file_sv = _load_file(cfg)
    sizes = _resolve_sizes(cfg, kind, plan, file_sv)
    try:
        PIPELINES[kind.value].check_sizes(cfg.m, cfg.n, *sizes)
        led = simulate_storage(kind.value, plan, cfg.m, cfg.n, *sizes)
    except (ValueError, LedgerError) as exc:
        raise SystemExit(f"ledger: {exc}")
    lines = [["label", "rows", "cols", "precision", "words"]]
    lines += [[*row[:4], _fmt(float(row[4]))] for row in led.csv_rows()]
    lines.append(["peak", "", "", "", _fmt(led.peak_words)])
    _emit(lines, cfg.out if out is None else out)
    return 0


def _emit(lines, out: Optional[str]) -> None:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(lines)
    text = buf.getvalue()
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# The flags of every subcommand, as (flag words, add_argument keywords).  The
# keys of a --config file are their destinations.
_FLAGS = (
    (("--algo",), dict(default="tyuc17_spi", choices=[k.value for k in PipelineKind])),
    (("--data",), dict(default="poly", choices=["lowrank", "poly", "exp", "file"])),
    (("--file",), dict(help="input matrix (SPIM binary or MatrixMarket)")),
    (("--alpha",), dict(type=float, default=1.0, help="decay rate of poly/exp data")),
    (("--gamma",), dict(type=float, default=1e-2, help="noise level of lowrank data")),
    (("--rank",), dict(type=int, default=10, help="target rank r")),
    (("--plateau",), dict(type=int, default=10, help="number of leading unit singular values")),
    (("--m",), dict(type=int, default=1000)),
    (("--n",), dict(type=int, default=1000)),
    (("--budget",), dict(type=float, help="storage budget T (words per column)")),
    (("--s",), dict(type=int)),
    (("--d",), dict(type=int)),
    (("--l",), dict(type=int)),
    (("--q",), dict(type=int, default=1, help="power-iteration count")),
    (("--trials",), dict(type=int, default=20)),
    (("--base-seed",), dict(type=int, default=0, dest="base_seed")),
    (("--precision",), dict(choices=["double", "mixed"],
                            help="storage plan (default: mixed for the powered pipelines, double otherwise)")),
    (("--guidance",), dict(default=None, choices=["manual", "auto"], dest="guidance_mode",
                           help="auto: sizes from --budget; manual: --s/--d/--l (default: manual when --s is given)")),
    (("--test-matrix",), dict(default="sparse_rademacher", dest="test_matrix",
                              choices=["gaussian", "sparse_rademacher", "sparse_sign", "countsketch"])),
    (("--sparsity",), dict(type=float, default=0.01)),
    (("--stabilize",), dict(default="auto", choices=["auto", "on", "off"])),
    (("--timing",), dict(action="store_true", help="fill wall_ms (breaks byte-reproducibility of the CSV)")),
    (("--out", "-o"), dict(help="output CSV path (default: stdout)")),
)

# Config key -> (flag, whether the flag is a switch).
_CONFIG_KEYS = {kw.get("dest", f[0][2:]): (f[0], kw.get("action") == "store_true") for f, kw in _FLAGS}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sketchpower-bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("run", "run trials of one pipeline and emit per-trial CSV rows"),
        ("sweep", "oracle sweep of the rangefinder size at a fixed budget"),
        ("spectrum", "emit the singular-value spectrum of a dataset"),
        ("ledger", "emit the storage-ledger accounting of a pipeline"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="JSON file of flag values keyed by destination (flags override)")
        for flags, kw in _FLAGS:
            p.add_argument(*flags, **kw)
    return parser


def _config_words(path) -> list[str]:
    """A config file's values as flag words, so that argparse checks them as
    it checks flags.  A null value leaves its flag unset."""
    with open(path, "r", encoding="utf-8") as fh:
        values = json.load(fh)
    unknown = set(values) - set(_CONFIG_KEYS)
    if unknown:
        raise SystemExit(f"unknown keys in config file: {sorted(unknown)}")
    words = []
    for key, value in values.items():
        flag, switch = _CONFIG_KEYS[key]
        if switch and isinstance(value, bool):
            words += [flag] if value else []
        elif value is not None:
            words.append(f"{flag}={value}")
    return words


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config:  # config values go between the command and the flags, so flags win
        args = parser.parse_args(argv[:1] + _config_words(args.config) + argv[1:])
    command = args.command
    fields = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    if fields.get("guidance_mode") is None:
        fields["guidance_mode"] = "manual" if fields.get("s") is not None else "auto"
    cfg = RunConfig(**fields)
    if command == "run":
        return run(cfg)
    if command == "sweep":
        return run_sweep(cfg)
    if command == "spectrum":
        return emit_spectrum(cfg)
    return emit_ledger(cfg)


if __name__ == "__main__":
    raise SystemExit(main())
