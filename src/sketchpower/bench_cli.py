"""Benchmark harness: dataset generation, pipeline runs, guidance, sweeps, CSV.

Budget convention: ``--budget T`` is the total sketch storage T*n in
double-precision words, each sketch's words counted from the pipeline table
under the chosen plan (a binary32 entry is half a word).  ``--guidance auto``
resolves sizes with :func:`guidance.budget_sizes`, a pure function of the
pipeline, plan, dataset spec, T and r, so identical invocations produce
identical CSVs; a budget that cannot afford r is an error, as are
``--s``, ``--d`` and ``--l`` given beside it or to ``sweep``.

The trials of ``run`` are shared out between the process and a forked copy
of it when a second CPU is free (:func:`matrix_core._in_two_processes`).
Timing is opt-in (``--timing``): the wall_ms column is left empty by default
so that equal seeds give byte-identical output across runs, whichever
process made each trial.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import time
from typing import Optional

import numpy as np
import scipy.linalg as la

from . import guidance, metrics, synthetic
from .approximators import approximate
from .matrix_core import _in_two_processes, _one_blas_thread
from .precision_model import PIPELINES, LedgerError, PrecisionPlan, simulate_storage
from .spi import SpiParams
from .stream_ingest import LinearUpdate, PipelineKind, open_stream, read_matrix
from .test_matrices import SeedSpec, Stream, TestMatrixKind, stream_seed

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


def _plan_of(args: argparse.Namespace, kind: PipelineKind) -> PrecisionPlan:
    if args.precision is None:
        return PIPELINES[kind.value].default_plan
    return {"double": PrecisionPlan.ALL_DOUBLE, "mixed": PrecisionPlan.MIXED_SINGLE_DOUBLE}[args.precision]


def _test_kind(args: argparse.Namespace) -> TestMatrixKind:
    return TestMatrixKind(args.test_matrix, args.sparsity)


def _dataset_spec(args: argparse.Namespace) -> Optional[synthetic.SyntheticSpec]:
    if args.data == "file":
        return None
    family = {
        "lowrank": synthetic.Family.LOWRANK_NOISE,
        "poly": synthetic.Family.POLY_DECAY,
        "exp": synthetic.Family.EXP_DECAY,
    }[args.data]
    try:
        return synthetic.SyntheticSpec(
            family=family, m=args.m, n=args.n, plateau=args.plateau,
            alpha=args.alpha, snr=args.gamma, base_seed=args.base_seed,
        )
    except ValueError as exc:
        raise SystemExit(f"invalid dataset: {exc}")


def _spectrum_class(args: argparse.Namespace, file_sv: Optional[np.ndarray]) -> guidance.SpectrumClass:
    if args.data == "lowrank":
        return guidance.SpectrumClass(guidance.DecayKind.FLAT)
    if args.data == "poly":
        return guidance.SpectrumClass(guidance.DecayKind.POLY, args.alpha)
    if args.data == "exp":
        return guidance.SpectrumClass(guidance.DecayKind.EXP, args.alpha)
    try:
        return guidance.classify_spectrum(file_sv[file_sv > file_sv[0] * 1e-14])
    except ValueError as exc:
        raise SystemExit(f"--guidance auto cannot classify the spectrum of {args.file}: {exc}")


def _auto_sizes(args: argparse.Namespace, kind: PipelineKind, plan: PrecisionPlan, file_sv) -> tuple[int, int, int]:
    if args.budget is None:
        raise SystemExit("--guidance auto requires --budget")
    cls = _spectrum_class(args, file_sv)
    try:
        return guidance.budget_sizes(kind, plan, cls, float(args.budget), args.m, args.n, args.rank)
    except ValueError as exc:
        raise SystemExit(f"infeasible parameter resolution: {exc}")


def _resolve_sizes(args: argparse.Namespace, kind: PipelineKind, plan: PrecisionPlan, file_sv) -> tuple[int, int, int]:
    if args.guidance_mode == "auto":
        return _auto_sizes(args, kind, plan, file_sv)
    if args.s is None:
        raise SystemExit("manual guidance requires --s (and --d/--l as the algorithm needs)")
    s = args.s
    d = args.d if args.d is not None else 0
    l = args.l if args.l is not None else 0
    for name, size in (("d", d), ("l", l)):
        if size == 0 and PIPELINES[kind.value].uses(name):
            raise SystemExit(f"{kind.value} requires --{name}")
    return s, d, l


def _dataset_columns(args: argparse.Namespace) -> tuple[str, str, Optional[float]]:
    if args.data == "file":
        return "file", args.file or "", None
    return args.data, str(args.plateau), args.gamma if args.data == "lowrank" else args.alpha


@_one_blas_thread()
def _load_file(args: argparse.Namespace) -> tuple[argparse.Namespace, np.ndarray, np.ndarray]:
    """A copy of args sized to the file, the file's matrix and its singular values.

    One SVD of the file serves both the baselines and the guidance.  A file
    the reader refuses (missing, unreadable, not SPIM or MatrixMarket,
    complex, with non-finite entries) exits with the reason.
    """
    if not args.file:
        raise SystemExit("--data file requires --file PATH")
    try:
        a = read_matrix(args.file)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"--file: {exc}")
    args = argparse.Namespace(**{**vars(args), "m": a.shape[0], "n": a.shape[1]})
    return args, a, la.svdvals(a, check_finite=False)


def _run_one_trial(args, kind, plan, sizes, trial, shared_a, shared_base):
    """One trial's CSV values from the trial column on, or the message of the
    exception it raised (a message pickles, so a trial a forked child made
    reports it too)."""
    try:
        s, d, l = sizes
        if shared_a is None:
            spec = _dataset_spec(args).with_trial(trial)
            a, base, factors = metrics._trial_data(spec, args.rank)
        else:
            a, base, factors = shared_a, shared_base, None
        stream = open_stream(
            kind, a.shape[0], a.shape[1], s, d, l,
            base_seed=args.base_seed, trial=trial, test_kind=_test_kind(args), plan=plan,
        )
        sk = stream.ingest(LinearUpdate.row_block(0, a)).finalize()
        t0 = time.perf_counter()
        result = approximate(sk, args.rank, SpiParams(args.q))
        wall_ms = (time.perf_counter() - t0) * 1e3
        err = metrics.evaluate(a, result, args.rank, baselines=base, factors=factors)
    except Exception as exc:  # noqa: BLE001 - enumerate failing trials
        return str(exc)
    return [trial, stream_seed(SeedSpec(args.base_seed, Stream.OMEGA, trial)), err.s_f, err.s_inf,
            err.range_f, err.range_s, err.extra_f, err.extra_s, wall_ms if args.timing else None]


@_one_blas_thread()
def run(args: argparse.Namespace) -> int:
    """Run the trials of one configuration, shared out between this process
    and a forked copy of it; returns a process exit code.  Sizes and a rank
    the pipeline refuses exit once, before any data is made."""
    kind = PipelineKind(args.algo)
    plan = _plan_of(args, kind)

    shared_a = shared_base = file_sv = None
    if args.data == "file":
        args, shared_a, file_sv = _load_file(args)

    sizes = _resolve_sizes(args, kind, plan, file_sv)
    try:
        PIPELINES[kind.value].check_sizes(args.m, args.n, *sizes)
        if not 1 <= args.rank <= sizes[0]:
            raise ValueError(f"target rank must satisfy 1 <= r <= s, got r={args.rank}, s={sizes[0]}")
    except ValueError as exc:
        raise SystemExit(f"invalid settings: {exc}")
    if file_sv is not None:
        shared_base = metrics.baselines_from_spectrum(file_sv, args.rank)
    dataset, param, alpha_or_gamma = _dataset_columns(args)
    prefix = [args.algo, dataset, param, alpha_or_gamma, args.budget, args.rank,
              sizes[0], sizes[1] or None, sizes[2] or None, PIPELINES[kind.value].applied_q(args.q)]
    outcomes = _in_two_processes([
        functools.partial(_run_one_trial, args, kind, plan, sizes, t, shared_a, shared_base)
        for t in range(args.trials)
    ])
    rows = [row for row in outcomes if isinstance(row, list)]

    lines = [CSV_HEADER] + [[_fmt(x) for x in prefix + row] for row in rows]
    if rows:
        for label, reducer in (("mean", np.mean), ("std", lambda v: np.std(v, ddof=0))):
            stats = []
            for column in list(zip(*rows))[2:]:  # S_F to wall_ms
                vals = [x for x in column if x is not None]
                stats.append(float(reducer(vals)) if vals else None)
            lines.append([_fmt(x) for x in prefix + [label, ""] + stats])

    _emit(lines, args.out)
    for t, outcome in enumerate(outcomes):
        if isinstance(outcome, str):
            print(f"trial {t} failed: {outcome}", file=sys.stderr)
    return 0 if len(rows) == args.trials else 1


def run_sweep(args: argparse.Namespace) -> int:
    """Oracle sweep over s at fixed budget; marks the oracle and guided rows.

    If ``--guidance auto`` cannot resolve sizes at the budget (the grid may
    still be affordable), the table is written without a guided row, ``run``'s
    message follows on stderr and the exit status is 1.
    """
    if args.budget is None:
        raise SystemExit("sweep requires --budget")
    if args.data == "file":
        raise SystemExit("sweep runs on synthetic dataset specs")
    kind = PipelineKind(args.algo)
    plan = _plan_of(args, kind)
    try:
        table = metrics.oracle_sweep(
            _dataset_spec(args), kind, float(args.budget), args.rank,
            q=args.q, trials=args.trials, test_kind=_test_kind(args), plan=plan,
        )
    except ValueError as exc:
        raise SystemExit(f"sweep: {exc}")
    try:
        guided, unguided = _auto_sizes(args, kind, plan, None), None
    except SystemExit as exc:
        guided, unguided = None, exc.code
    best = table.best()
    lines = [SWEEP_HEADER] + [
        [row.s, row.d or "", row.l or "", row.q, _fmt(row.mean_s_f), _fmt(row.mean_s_inf),
         "1" if row is best else "0", "1" if (row.s, row.d, row.l) == guided else "0"]
        for row in table.rows
    ]
    _emit(lines, args.out)
    if unguided is not None:
        print(f"no guided row: {unguided}", file=sys.stderr)
        return 1
    return 0


def emit_spectrum(args: argparse.Namespace) -> int:
    """Index, sigma_i pairs: prescribed for synthetic specs, computed for files."""
    if args.data == "file":
        sv = _load_file(args)[2]
    else:
        sv = synthetic.prescribed_spectrum(_dataset_spec(args))
    lines = [["index", "sigma"]] + [[i, _fmt(float(v))] for i, v in enumerate(sv, start=1)]
    _emit(lines, args.out)
    return 0


def emit_ledger(args: argparse.Namespace) -> int:
    """Storage-ledger dump (label, rows, cols, precision, words) for a pipeline."""
    kind = PipelineKind(args.algo)
    plan = _plan_of(args, kind)
    file_sv = None
    if args.data == "file":
        args, _, file_sv = _load_file(args)
    sizes = _resolve_sizes(args, kind, plan, file_sv)
    try:
        PIPELINES[kind.value].check_sizes(args.m, args.n, *sizes)
        led = simulate_storage(kind.value, plan, args.m, args.n, *sizes)
    except (ValueError, LedgerError) as exc:
        raise SystemExit(f"ledger: {exc}")
    lines = [["label", "rows", "cols", "precision", "words"]]
    lines += [[*row[:4], _fmt(float(row[4]))] for row in led.csv_rows()]
    lines.append(["peak", "", "", "", _fmt(led.peak_words)])
    _emit(lines, args.out)
    return 0


def _emit(lines, out: Optional[str]) -> None:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(lines)
    text = buf.getvalue()
    if out:
        try:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise SystemExit(f"--out: {exc}")
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
    (("--sparsity",), dict(type=float, default=0.01, help="nonzero fraction; only sparse_rademacher reads it")),
    (("--timing",), dict(action="store_true", help="fill wall_ms (breaks byte-reproducibility of the CSV)")),
    (("--out", "-o"), dict(help="output CSV path (default: stdout)")),
)

# Config key -> (flag, whether the flag is a switch).
_CONFIG_KEYS = {kw.get("dest", f[0][2:]): (f[0], kw.get("action") == "store_true") for f, kw in _FLAGS}


@functools.cache
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
    it checks flags.  A null value leaves its flag unset.  A file that
    cannot be read, is not JSON or does not hold an object exits with the
    reason."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            values = json.load(fh)
    except (OSError, ValueError) as exc:  # a JSONDecodeError is a ValueError
        raise SystemExit(f"--config: {path}: {exc}")
    if not isinstance(values, dict):
        raise SystemExit(f"--config: {path}: a JSON {type(values).__name__}, not an object")
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
    if args.budget is not None and not (math.isfinite(args.budget) and args.budget > 0):
        raise SystemExit(f"--budget must be a positive finite number, got {args.budget!r}")
    if args.trials < 1:
        raise SystemExit(f"--trials must be at least 1, got {args.trials}")
    if args.guidance_mode is None:
        args.guidance_mode = "manual" if args.s is not None else "auto"
    given = [f"--{name}" for name in "sdl" if getattr(args, name) is not None]
    if given and (args.command == "sweep" or args.command in ("run", "ledger") and args.guidance_mode == "auto"):
        sizer = "sweep" if args.command == "sweep" else "--guidance auto"
        raise SystemExit(f"{sizer} resolves the sketch sizes itself and does not take {', '.join(given)}")
    _dataset_spec(args)  # a synthetic spec the generator cannot make exits here
    try:  # as do test matrices and power iterations the library refuses
        _test_kind(args), SpiParams(args.q)
    except ValueError as exc:
        raise SystemExit(f"invalid settings: {exc}")
    command = {"run": run, "sweep": run_sweep, "spectrum": emit_spectrum, "ledger": emit_ledger}
    return command[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
