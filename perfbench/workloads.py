"""The four benchmark workloads: inputs from the seed, timed operations, output checks.

Every workload runs closed loop with one client in one process: the next
operation starts when the previous one has returned.  An operation returns an
:class:`Op`; an output check that fails is recorded in ``Op.problems`` (or
returned by ``Op.check``, which runs after the operation, outside its timing
and tracing) and makes that operation count as failed.

Why these four (the mapping to per-layer metrics is in ``BENCHMARK.json``):

* ``paper_trial``: the paper's headline experiment through the CLI, every
  input unique; evaluation (``metrics``, ``synthetic``) dominates the time.
* ``budget_sweep``: the CLI oracle sweep of criterion 6's shape; one data
  matrix serves 20-40 sketch configurations, so shared work shows here.
* ``tall_file_stream``: a binary32 SPIM file about 5x the last-level cache
  streamed through ``ingest_file`` in row blocks; ``metrics`` does nothing.
* ``turnstile``: many small rank-one and column-block updates into two live
  streams, then repeated finishing of the factors.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

# The frozen CSV schemas the CLI promises (README "Row schema").
CSV_HEADER = [
    "algo", "dataset", "param", "alpha_or_gamma", "budget_T", "r", "s", "d", "l", "q",
    "trial", "seed", "S_F", "S_inf", "range_err_F", "range_err_S",
    "extra_err_F", "extra_err_S", "wall_ms",
]
SWEEP_HEADER = ["s", "d", "l", "q", "mean_SF", "mean_Sinf", "is_oracle", "is_guided"]
SPIM_HEADER_BYTES = 24


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; ``FULL`` is the benchmark, ``TINY`` the smoke test."""

    trial_m: int = 1000
    trial_budget: int = 96
    trial_sizes: tuple = (24, 72, 96)      # what --guidance auto must resolve to
    sweep_m: int = 400
    sweep_budgets: tuple = (60, 100)
    sweep_warmup_budget: int = 30
    tall_rows: int = 1 << 17
    tall_cols: int = 1000
    tall_sizes: tuple = (24, 72, 96)
    tall_check_rows: int = 256
    turn_m: int = 1000
    turn_updates: int = 1050
    turn_sizes: tuple = (24, 72, 96)
    turn_qs: tuple = (0, 1, 2, 3)
    turn_ranks: tuple = (5, 10, 20)
    rank: int = 10


FULL = Sizes()
TINY = Sizes(
    trial_m=200, trial_budget=48, trial_sizes=(12, 36, 48),
    sweep_m=120, sweep_budgets=(30, 40), sweep_warmup_budget=24,
    tall_rows=2048, tall_cols=100, tall_sizes=(12, 36, 48), tall_check_rows=64,
    turn_m=100, turn_updates=60, turn_sizes=(12, 36, 48), turn_ranks=(5, 10),
)


@dataclass
class Op:
    seconds: float                 # wall time of the operation
    items: int                     # work items it completed (trials, points, rows, updates)
    latencies: list = None         # per-request seconds; defaults to [seconds]
    problems: list = field(default_factory=list)
    acc: dict = field(default_factory=dict)   # deterministic outputs kept for reporting
    check: object = None           # callable returning further problems


def derive_seed(*words: int) -> int:
    """A 31-bit seed that is a pure function of the workload seed and indices."""
    return int(np.random.SeedSequence([int(w) & 0xFFFFFFFF for w in words]).generate_state(1)[0] >> 1)


def _finite(x) -> bool:
    return bool(np.all(np.isfinite(x)))


def _close(name, got, want, eps, count, problems):
    """Norm-wise agreement allowing one storage rounding per update plus binary64 reordering."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    tol = (count * eps + 1e3 * np.finfo(np.float64).eps) * max(np.linalg.norm(want), 1e-300)
    err = float(np.linalg.norm(got - want))
    if not err <= tol:
        problems.append(f"{name}: |streamed - reference| = {err:.3e} > {tol:.3e}")


def _cli(bench_cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = bench_cli.main(argv)
    return rc, buf.getvalue()


class Workload:
    min_ops = 1

    def __init__(self, seed: int, child: int, sizes: Sizes, workdir: str):
        self.seed, self.child, self.sizes, self.workdir = seed, child, sizes, workdir

    def op_seed(self, i: int) -> int:
        return derive_seed(self.seed, self.child, i)

    def close(self) -> None:
        pass


class PaperTrial(Workload):
    """One CLI trial per operation at 1000x1000, poly alpha=1, T=96, guided sizes."""

    min_ops = 2   # s_f_mean averages the first two trials of every process

    def setup(self):
        from sketchpower import bench_cli
        self.cli = bench_cli
        self.op(-1)  # warm-up

    def op(self, i):
        z = self.sizes
        argv = ["run", "--data", "poly", "--alpha", "1", "--rank", str(z.rank), "--algo", "tyuc17_spi",
                "--q", "1", "--budget", str(z.trial_budget), "--guidance", "auto", "--trials", "1",
                "--m", str(z.trial_m), "--n", str(z.trial_m), "--base-seed", str(self.op_seed(i))]
        t0 = time.perf_counter()
        rc, text = _cli(self.cli, argv)
        dt = time.perf_counter() - t0
        problems = []
        rows = list(csv.reader(io.StringIO(text)))
        if rc != 0:
            problems.append(f"CLI exit code {rc}")
        if not rows or rows[0] != CSV_HEADER:
            problems.append(f"CSV header {rows[:1]} differs from the frozen schema")
            return Op(dt, 1, problems=problems)
        trials = [dict(zip(CSV_HEADER, r)) for r in rows[1:] if r[CSV_HEADER.index("trial")].isdigit()]
        if len(trials) != 1:
            return Op(dt, 1, problems=problems + [f"expected 1 trial row, got {len(trials)}"])
        row = trials[0]
        s_f, s_inf = float(row["S_F"] or "nan"), float(row["S_inf"] or "nan")
        if not (math.isfinite(s_f) and math.isfinite(s_inf)):
            problems.append(f"S_F={row['S_F']!r}, S_inf={row['S_inf']!r} not finite")
        sizes = tuple(int(row[k]) for k in ("s", "d", "l"))
        if sizes != z.trial_sizes:
            problems.append(f"guided sizes {sizes} != expected {z.trial_sizes}")
        return Op(dt, 1, problems=problems, acc={"s_f": s_f})


class BudgetSweep(Workload):
    """One operation is a CLI oracle sweep at each budget on one data seed."""

    def setup(self):
        from sketchpower import bench_cli
        self.cli = bench_cli
        self._sweep(self.sizes.sweep_warmup_budget, self.op_seed(-1))

    def _sweep(self, budget, base_seed):
        z = self.sizes
        argv = ["sweep", "--data", "poly", "--alpha", "2", "--rank", str(z.rank), "--algo", "tyuc17_spi",
                "--q", "1", "--budget", str(budget), "--trials", "1", "--m", str(z.sweep_m),
                "--n", str(z.sweep_m), "--test-matrix", "gaussian", "--base-seed", str(base_seed)]
        return _cli(self.cli, argv)

    def op(self, i):
        base = self.op_seed(i)
        problems, points, acc = [], 0, {}
        t0 = time.perf_counter()
        outputs = [(budget, self._sweep(budget, base)) for budget in self.sizes.sweep_budgets]
        dt = time.perf_counter() - t0
        for budget, (rc, text) in outputs:
            lines = text.splitlines()
            if rc != 0 or not lines or lines[0].split(",") != SWEEP_HEADER:
                problems.append(f"T={budget}: exit code {rc}, header {lines[:1]}")
                continue
            rows = list(csv.DictReader(io.StringIO(text)))
            points += len(rows)
            oracle = [r for r in rows if r["is_oracle"] == "1"]
            guided = [r for r in rows if r["is_guided"] == "1"]
            sf = {r["s"]: float(r["mean_SF"]) for r in rows}
            if len(oracle) != 1 or len(guided) != 1:
                problems.append(f"T={budget}: {len(oracle)} oracle rows, {len(guided)} guided rows")
                continue
            if not _finite(list(sf.values())) or not _finite([float(r["mean_Sinf"]) for r in rows]):
                problems.append(f"T={budget}: non-finite sweep errors")
            if float(oracle[0]["mean_SF"]) != min(sf.values()):
                problems.append(f"T={budget}: oracle row is not the minimum mean_SF")
            acc[str(budget)] = {"guided_s": guided[0]["s"], "sf": sf}
        return Op(dt, points, problems=problems, acc=acc)


def guided_over_oracle(rounds) -> float:
    """Worse budget's mean-S_F ratio of the guided row to the oracle row, pooled over rounds."""
    worst = 0.0
    for budget in rounds[0]:
        per = [r[budget] for r in rounds if budget in r]
        mean = {s: float(np.mean([p["sf"][s] for p in per])) for s in per[0]["sf"]}
        worst = max(worst, mean[per[0]["guided_s"]] / min(mean.values()))
    return worst


class TallFileStream(Workload):
    """Stream a binary32 SPIM file through ``ingest_file`` into two pipelines."""

    def setup(self):
        from sketchpower import approximators, spi, stream_ingest, test_matrices
        from sketchpower.precision_model import PrecisionPlan
        self.ap, self.spi, self.si = approximators, spi, stream_ingest
        self.sparse = test_matrices.TestMatrixKind("sparse_rademacher", 0.01)
        self.mixed, self.double = PrecisionPlan.MIXED_SINGLE_DOUBLE, PrecisionPlan.ALL_DOUBLE
        z = self.sizes
        os.makedirs(self.workdir, exist_ok=True)
        self.path = os.path.join(self.workdir, f"tall-{self.child}.spim")
        write_lowrank_spim(self.path, z.tall_rows, z.tall_cols, self.seed)
        warm = os.path.join(self.workdir, f"warm-{self.child}.spim")
        write_lowrank_spim(warm, max(z.tall_rows // 64, 4 * z.tall_sizes[2]), z.tall_cols, self.seed + 1)
        self._round(warm, self.op_seed(-1), starts=())
        os.remove(warm)

    def _round(self, path, base, starts):
        """Stream the file into each pipeline in turn and finish it.

        Of a finished pipeline only what the checks read is kept, so one
        pipeline's buffers are live at a time, as in an application.
        """
        s, d, l = self.sizes.tall_sizes
        r, h = self.sizes.rank, self.sizes.tall_check_rows
        kinds = self.si.PipelineKind
        runs = ((kinds.TYUC17_SPI, (s, d, l), self.mixed, lambda sk: self.ap.tyuc17_spi(sk, self.spi.SpiParams(q=1), r)),
                (kinds.RSVD_ONEPASS, (s,), self.double, lambda sk: self.ap.rsvd_onepass(sk, r)))
        busy = finish = 0.0
        kept = []
        for kind, sizes, plan, factor in runs:
            t0 = time.perf_counter()
            sk = self.si.ingest_file(path, kind, *sizes, base_seed=base, test_kind=self.sparse, plan=plan)
            t1 = time.perf_counter()
            res = factor(sk)
            t2 = time.perf_counter()
            busy, finish = busy + (t2 - t0), finish + (t2 - t1)
            y = np.asarray(sk.y.data)
            kept.append({"name": kind.value, "pass_count": sk.pass_count, "eps": float(np.finfo(y.dtype).eps),
                         "omega": np.array(sk.omega.data, dtype=np.float64),
                         "y": {a: y[a:a + h].copy() for a in starts}, "u_shape": res.u.shape,
                         "finite": _finite(res.u) and _finite(res.sv) and _finite(res.v)})
            del sk, res
        return busy, finish * 1e3, kept

    def op(self, i):
        z = self.sizes
        h = z.tall_check_rows
        starts = (0, int(np.random.default_rng(self.op_seed(i)).integers(0, z.tall_rows - h)), z.tall_rows - h)
        dt, finish_ms, kept = self._round(self.path, self.op_seed(i), starts)
        return Op(dt, 2 * z.tall_rows, acc={"finish_ms": [finish_ms]}, check=lambda: self._check(kept))

    def _check(self, kept):
        z = self.sizes
        problems = []
        for k in kept:
            if k["pass_count"] != 1:
                problems.append(f"{k['name']}: pass_count = {k['pass_count']}")
            if k["u_shape"] != (z.tall_rows, z.rank) or not k["finite"]:
                problems.append(f"{k['name']}: factors of shape {k['u_shape']} or not finite")
            for start, y in k["y"].items():
                block = read_spim_rows(self.path, start, len(y), z.tall_cols)
                _close(f"{k['name']} Y[{start}:{start + len(y)}]", y, block @ k["omega"], k["eps"], 1, problems)
        return problems

    def close(self):
        if os.path.exists(getattr(self, "path", "")):
            os.remove(self.path)


def write_lowrank_spim(path, rows, cols, seed, rank=10, noise=1e-3, block=4096):
    """A rows x cols binary32 SPIM file: rank-``rank`` signal with decaying scales plus noise.

    Written in row blocks, so generation memory stays about ``block * cols``
    values whatever ``rows`` is.
    """
    rng = np.random.default_rng(derive_seed(seed, 0xF11E))
    right = rng.standard_normal((rank, cols)) * (2.0 ** -np.arange(rank))[:, None]
    header = b"SPIM" + np.array([1], "<u2").tobytes() + bytes([1, 0]) + np.array([rows, cols], "<u8").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        for start in range(0, rows, block):
            count = min(block, rows - start)
            g = np.random.default_rng(derive_seed(seed, 0xB10C, start))
            data = (g.standard_normal((count, rank)) @ right).astype("<f4")
            data += np.float32(noise) * g.standard_normal((count, cols), dtype=np.float32)
            data.tofile(fh)


def read_spim_rows(path, start, count, cols) -> np.ndarray:
    data = np.fromfile(path, dtype="<f4", count=count * cols, offset=SPIM_HEADER_BYTES + 4 * start * cols)
    return data.reshape(count, cols).astype(np.float64)


class Turnstile(Workload):
    """Small updates into a mixed ``tyuc17_spi`` and a binary64 ``tyuc19`` stream,
    then repeated finishing; one operation is one such round."""

    def setup(self):
        from sketchpower import approximators, spi, stream_ingest
        from sketchpower.precision_model import PrecisionPlan
        self.ap, self.spi, self.si = approximators, spi, stream_ingest
        self.mixed, self.double = PrecisionPlan.MIXED_SINGLE_DOUBLE, PrecisionPlan.ALL_DOUBLE
        z = self.sizes
        m = n = z.turn_m
        rng = np.random.default_rng(derive_seed(self.seed, 0x7E57))
        lu = stream_ingest.LinearUpdate
        self.updates, left, right, blocks = [], [], [], []
        for k in range(z.turn_updates):
            if k % 3 == 2:   # one in three is a block of 8 columns, the rest rank-one
                c = int(rng.integers(0, n - 8))
                blocks.append((c, rng.standard_normal((m, 8))))
                self.updates.append(lu.column_block(*blocks[-1]))
            else:
                left.append(rng.standard_normal(m))
                right.append(rng.standard_normal(n))
                self.updates.append(lu.rank_one(left[-1], right[-1]))
        self.total = np.array(left).T @ np.array(right)   # the summed matrix, for the checks
        for c, h in blocks:
            self.total[:, c:c + 8] += h
        self._round(self.op_seed(-1))

    def _open(self, base):
        s, d, l = self.sizes.turn_sizes
        m = self.sizes.turn_m
        kinds = self.si.PipelineKind
        return (self.si.open_stream(kinds.TYUC17_SPI, m, m, s, d, l, base_seed=base, plan=self.mixed),
                self.si.open_stream(kinds.TYUC19, m, m, s, d, base_seed=base, plan=self.double))

    def _round(self, base):
        z = self.sizes
        lat, finish = [], []
        t0 = time.perf_counter()
        spi_stream, t19_stream = self._open(base)
        for upd in self.updates:
            a = time.perf_counter()
            spi_stream.ingest(upd)
            t19_stream.ingest(upd)
            lat.append(time.perf_counter() - a)
        results = []
        a = time.perf_counter()
        sk1 = spi_stream.finalize()
        for q in z.turn_qs:
            for r in z.turn_ranks:
                results.append(self.ap.tyuc17_spi(sk1, self.spi.SpiParams(q=q), r))
                finish.append(time.perf_counter() - a)
                a = time.perf_counter()
        sk2 = t19_stream.finalize()
        for r in z.turn_ranks:
            results.append(self.ap.tyuc19(sk2, r))
            finish.append(time.perf_counter() - a)
            a = time.perf_counter()
        return time.perf_counter() - t0, lat, finish, (sk1, sk2), results

    def op(self, i):
        base = self.op_seed(i)
        dt, lat, finish, streamed, results = self._round(base)
        return Op(dt, len(self.updates), latencies=lat, acc={"finish_ms": [f * 1e3 for f in finish]},
                  check=lambda: self._check(base, streamed, results))

    def _check(self, base, streamed, results):
        problems = []
        for res in results:
            if not (_finite(res.u) and _finite(res.sv) and _finite(res.v)):
                problems.append(f"{res.kind.value}: non-finite factors")
        lu = self.si.LinearUpdate
        for sk, ref_stream in zip(streamed, self._open(base)):
            ref = ref_stream.ingest(lu.dense(self.total)).finalize()
            for name in ("y", "w", "z", "x", "k"):
                got = getattr(sk, name)
                if got is not None:
                    eps = float(np.finfo(np.asarray(got.data).dtype).eps)
                    _close(f"{sk.kind.value} {name}", got.data, getattr(ref, name).data,
                           eps, len(self.updates), problems)
        return problems


WORKLOADS = {
    "paper_trial": PaperTrial,
    "budget_sweep": BudgetSweep,
    "tall_file_stream": TallFileStream,
    "turnstile": Turnstile,
}
