"""Benchmark of the sketchpower package, run from the root of a source checkout.

    python3 perfbench/run.py --workload paper_trial --seed 1 --seconds 20 --trace 0

Workloads: ``paper_trial``, ``budget_sweep``, ``tall_file_stream`` and
``turnstile`` (see ``workloads.py``).  The package is imported from
``src/`` of the checkout; nothing is installed.

A run starts ``PROCESSES`` fresh Python processes one after another.  Each
sets up (imports, inputs made from the seed, one warm-up operation), then
runs operations closed loop for its share of ``--seconds``, checks every
operation's outputs and reports to this process.  The set-up is thus
repeated ``PROCESSES`` times per run and ``setup_s`` is the median;
``peak_rss_mb`` is the largest maximum resident set of those processes.
BLAS runs one thread (``BLAS_THREAD_ENV``) and ``SKETCHPOWER_WORKERS`` is
removed, so the CLI uses one worker: on a host of a few shared cores a second
BLAS thread made the small factorizations of ``turnstile`` three times slower
and its rate spread by a quarter from run to run.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics, the same four on every workload:

* ``setup_s``: median set-up time of the processes;
* ``items_per_s``: median over operations of work items per second, where
  an item is a CLI trial (``paper_trial``), a (trial, s) sweep point
  (``budget_sweep``), a streamed file row (``tall_file_stream``) or a linear
  update (``turnstile``, counting the finishing of its round);
* ``op_ms_p50``: median latency of an operation: a trial, a sweep round
  (both budgets), a file round (both pipelines, ingest to factors) or one
  update ingested into both streams;
* ``peak_rss_mb``.

Failed operations are the ``failed`` count of the result line.  With ``--trace 1`` every other operation runs with spans around the
calls into each module (``tracer.py``) and the line holds the per-layer
metrics, each per operation, plus ``trace_overhead_frac``: the median traced
operation time over the median untraced one, minus 1.  The lines before it
record the environment, the sample counts and the diagnostic figures.
Exits non-zero without a result when the sources are missing or a process
fails outside an operation.
"""
from __future__ import annotations

import time

PROCESS_START = time.perf_counter()   # set-up time counts the imports below

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback

from tracer import PIPELINES, UPDATE_KINDS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PROCESSES = 2
RUN_LIMIT_S = 170.0
BLAS_THREAD_ENV = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

WORKLOAD_NAMES = ("paper_trial", "budget_sweep", "tall_file_stream", "turnstile")

# (name, unit) in the order BENCHMARK.json lists them.
END_TO_END = [
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
]
PER_LAYER = [
    ("synthetic.generate.ms", "ms"),
    ("synthetic.generate.calls", "count"),
    ("synthetic.generate.repeat_frac", "fraction"),
    ("test_matrices.generate.ms", "ms"),
    ("test_matrices.generate.calls", "count"),
    ("test_matrices.words", "words"),
    ("stream_ingest.open_stream.ms", "ms"),
    *[(f"stream_ingest.ingest.{k}.{x}", u) for k in UPDATE_KINDS for x, u in (("ms", "ms"), ("calls", "count"))],
    ("stream_ingest.ingest.payload_mb", "MB"),
    ("stream_ingest.ingest.sketch_mb_touched", "MB"),
    ("stream_ingest.ingest_file.read_self_ms", "ms"),
    ("stream_ingest.finalize.ms", "ms"),
    ("stream_ingest.errors", "count"),
    ("precision_model.modeled_peak_mb", "MB"),
    ("precision_model.binary32_words_frac", "fraction"),
    ("spi.spi_plain.ms", "ms"),
    ("spi.spi_stabilized.ms", "ms"),
    ("spi.spi_variant.ms", "ms"),
    ("spi.flops", "flop"),
    *[(f"matrix_core.{f}.{x}", u) for f in ("qr_economy", "lstsq", "svd_truncated")
      for x, u in (("ms", "ms"), ("calls", "count"))],
    ("matrix_core.flops", "flop"),
    ("matrix_core.flags", "count"),
    *[(f"approximators.{p}.self_ms", "ms") for p in PIPELINES],
    ("approximators.calls", "count"),
    ("approximators.flags_raised", "count"),
    ("approximators.s_f_mean", "ratio"),
    ("metrics._baselines.ms", "ms"),
    ("metrics.relative_error.ms", "ms"),
    ("metrics.range_extra_errors.ms", "ms"),
    ("metrics.oracle_sweep.self_ms", "ms"),
    ("metrics.baselines.repeat_frac", "fraction"),
    ("guidance.select_sizes.ms", "ms"),
    ("guidance.guided_over_oracle", "ratio"),
    ("bench_cli.run.self_ms", "ms"),
    ("bench_cli.run_sweep.self_ms", "ms"),
    ("trace_overhead_frac", "fraction"),
]


class RunError(RuntimeError):
    pass


def _parser():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes (not a benchmark)")
    p.add_argument("--child", type=int, help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    return p


# -- one measuring process ---------------------------------------------------------

def child_main(args) -> int:
    sys.path.insert(0, SRC)
    import numpy as np

    from workloads import FULL, TINY, WORKLOADS, Op

    wl = WORKLOADS[args.workload](args.seed, args.child, TINY if args.tiny else FULL, args.workdir)
    tracer = Tracer() if args.trace else None
    min_ops = max(wl.min_ops, 2 if tracer else 1)
    ops = []
    try:
        wl.setup()
        setup_s = time.perf_counter() - PROCESS_START
        setup_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        deadline = time.perf_counter() + args.seconds
        while len(ops) < min_ops or time.perf_counter() < deadline:
            traced = tracer is not None and (len(ops) + args.child) % 2 == 0
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            try:
                op = wl.op(len(ops))
            except Exception as exc:  # noqa: BLE001 - an operation that raises is a failed operation
                traceback.print_exc()
                op = Op(time.perf_counter() - t0, 0, problems=[f"raised {exc!r}"])
            finally:
                if traced:
                    tracer.uninstall()
                    tracer.wall_s += time.perf_counter() - t0
            if op.check is not None:
                try:
                    op.problems += op.check()
                except Exception as exc:  # noqa: BLE001 - a check that raises is a failed check
                    traceback.print_exc()
                    op.problems.append(f"check raised {exc!r}")
            for p in op.problems:
                print(f"[{args.workload} process {args.child} op {len(ops)}] check failed: {p}", file=sys.stderr)
            ops.append({"seconds": op.seconds, "items": op.items, "traced": traced,
                        "latencies": op.latencies or [op.seconds], "failed": bool(op.problems),
                        "acc": op.acc})
            del op   # the next operation starts without this one's outputs alive
    finally:
        wl.close()
    report = {"setup_s": setup_s, "setup_rss_mb": setup_rss_mb, "ops": ops, "env": environment(np)}
    if tracer is not None:
        report["trace"] = {
            "time_s": tracer.time_s, "self_s": tracer.self_s, "calls": tracer.calls,
            "counters": tracer.counters, "wall_s": tracer.wall_s,
            "modeled_peak_mb": _modeled_peak_mb(tracer.stream_configs),
        }
    print(json.dumps(report))
    return 0


def _modeled_peak_mb(configs) -> float:
    """Largest storage-ledger peak, in MB of binary64 words, over the streams opened."""
    from sketchpower.precision_model import PrecisionPlan, simulate_storage

    peak = 0.0
    for kind, plan, m, n, s, d, l in configs:
        led = simulate_storage(kind, PrecisionPlan(plan), m, n, s, d, l)
        peak = max(peak, led.peak_words * 8 / 1e6)
    return peak


def environment(np) -> dict:
    import platform

    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "git_commit": _git_commit(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, asked through its C API."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


# -- the coordinating process -------------------------------------------------------

def _run_children(args, workdir) -> list:
    env = {k: v for k, v in os.environ.items() if k != "SKETCHPOWER_WORKERS"}
    env.update(BLAS_THREAD_ENV)
    deadline = time.monotonic() + RUN_LIMIT_S
    reports = []
    for child in range(PROCESSES):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds / PROCESSES), "--trace", str(args.trace),
               "--child", str(child), "--workdir", workdir] + (["--tiny"] if args.tiny else [])
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env)
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RunError(f"process {child} exceeded the {RUN_LIMIT_S:.0f} s limit")
        if proc.returncode != 0:
            raise RunError(f"process {child} exited with code {proc.returncode}")
        reports.append(json.loads(out.decode().strip().splitlines()[-1]))
    return reports


def _ops(reports, traced=None):
    return [op for r in reports for op in r["ops"] if traced is None or op["traced"] == traced]


def _accuracy(workload, reports) -> float:
    """Deterministic per seed: only the operations every process is guaranteed to run."""
    from workloads import PaperTrial, guided_over_oracle

    if workload == "paper_trial":
        firsts = [op["acc"]["s_f"] for r in reports for op in r["ops"][:PaperTrial.min_ops] if "s_f" in op["acc"]]
        return statistics.fmean(firsts) if firsts else float("nan")
    if workload == "budget_sweep":
        rounds = [r["ops"][0]["acc"] for r in reports if r["ops"][0]["acc"]]
        return guided_over_oracle(rounds) if rounds else float("nan")
    return 0.0


def end_to_end(reports) -> dict:
    ops = _ops(reports)
    latencies = [x for op in ops for x in op["latencies"]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "items_per_s": statistics.median(op["items"] / op["seconds"] for op in ops),
        "op_ms_p50": statistics.median(latencies) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6,
    }


def per_layer(workload, reports) -> dict:
    traces = [r["trace"] for r in reports]
    n_ops = len(_ops(reports, traced=True))

    def total(key, name):
        return sum(t[key].get(name, 0.0) for t in traces)

    def ms(name):
        return total("time_s", name) * 1e3 / n_ops

    def self_ms(name):
        return total("self_s", name) * 1e3 / n_ops

    def calls(name):
        return total("calls", name) / n_ops

    def counter(name):
        return total("counters", name)

    def frac(num, den):
        return num / den if den else 0.0

    out = {}
    for name, _ in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "ms":
            out[name] = ms(base)
        elif field == "self_ms":
            out[name] = self_ms(base)
        elif field == "calls":
            out[name] = calls(base)
    out["stream_ingest.ingest_file.read_self_ms"] = self_ms("stream_ingest.ingest_file")
    pipelines = [n for n in out if n.startswith("approximators.") and n.endswith(".self_ms")]
    out["approximators.calls"] = sum(calls(n[: -len(".self_ms")]) for n in pipelines)
    for name in ("test_matrices.words", "spi.flops", "matrix_core.flops", "matrix_core.flags",
                 "approximators.flags_raised", "stream_ingest.errors"):
        out[name] = counter(name) / n_ops
    out["stream_ingest.ingest.payload_mb"] = counter("stream_ingest.ingest.payload_bytes") / 1e6 / n_ops
    out["stream_ingest.ingest.sketch_mb_touched"] = counter("stream_ingest.ingest.sketch_bytes_touched") / 1e6 / n_ops
    out["synthetic.generate.repeat_frac"] = frac(counter("synthetic.generate.repeats"),
                                                 total("calls", "synthetic.generate"))
    out["metrics.baselines.repeat_frac"] = frac(counter("metrics.baselines.repeats"),
                                                total("calls", "metrics._baselines"))
    out["precision_model.modeled_peak_mb"] = max(t["modeled_peak_mb"] for t in traces)
    out["precision_model.binary32_words_frac"] = frac(counter("sketch_words_binary32"), counter("sketch_words"))
    accuracy = _accuracy(workload, reports)
    out["approximators.s_f_mean"] = accuracy if workload == "paper_trial" else 0.0
    out["guidance.guided_over_oracle"] = accuracy if workload == "budget_sweep" else 0.0
    traced = statistics.median(op["seconds"] for op in _ops(reports, traced=True))
    untraced = statistics.median(op["seconds"] for op in _ops(reports, traced=False))
    out["trace_overhead_frac"] = traced / untraced - 1.0
    return {name: out[name] for name, _ in PER_LAYER}


# The end-to-end metrics under the workload-specific names they are also reported as.
NAMED = {
    "paper_trial": ("trials_per_s", "trial_ms_p50"),
    "budget_sweep": ("sweep_points_per_s", "sweep_round_ms_p50"),
    "tall_file_stream": ("stream_rows_per_s", "file_round_ms_p50"),
    "turnstile": ("updates_per_s", "update_ms_p50"),
}


def _named(workload, reports, metrics) -> dict:
    ops = _ops(reports)
    rate, p50 = NAMED[workload]
    out = {rate: metrics["items_per_s"], p50: metrics["op_ms_p50"]}
    if workload == "paper_trial":
        out["s_f_mean"] = _accuracy(workload, reports)
    if workload == "budget_sweep":
        out["guided_over_oracle"] = _accuracy(workload, reports)
    finish = [x for op in ops for x in op["acc"].get("finish_ms", [])]
    if finish:
        out["finish_ms_p50"] = statistics.median(finish)
    lat = sorted(x for op in ops for x in op["latencies"])
    if len(lat) >= 1000:   # at least ten samples beyond the 99th percentile
        out["update_ms_p99"] = lat[int(0.99 * (len(lat) - 1))] * 1e3
    return out


def _print_diagnostics(args, reports, metrics) -> None:
    ops = _ops(reports)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"processes={PROCESSES} tiny={args.tiny}")
    print("env " + json.dumps(dict(reports[0]["env"], workload_seed=args.seed,
                                   sketchpower_workers=os.environ.get("SKETCHPOWER_WORKERS", "unset (CLI default 1)"))))
    failed = sum(op["failed"] for op in ops)
    samples = {"operations": len(ops), "latency_samples": sum(len(op["latencies"]) for op in ops),
               "setup_samples": len(reports), "failed": failed, "fail_rate": failed / max(len(ops), 1)}
    print("samples " + json.dumps(samples))
    extra = {"setup_rss_mb": max(r["setup_rss_mb"] for r in reports)}
    if not args.trace:
        extra.update(_named(args.workload, reports, metrics))
    else:
        traces = [r["trace"] for r in reports]
        self_ms = sum(v for t in traces for v in t["self_s"].values()) * 1e3
        wall_ms = sum(t["wall_s"] for t in traces) * 1e3
        extra.update({"traced_self_ms_sum": self_ms, "traced_wall_ms": wall_ms,
                      "min_self_ms": min((v * 1e3 for t in traces for v in t["self_s"].values()), default=0.0)})
    print("extra " + json.dumps(extra))
    units = dict(END_TO_END + PER_LAYER)
    for name, value in metrics.items():
        print(f"  {name:45s} {value:14.6g} {units[name]}")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.child is not None:
        return child_main(args)
    if not os.path.isfile(os.path.join(SRC, "sketchpower", "__init__.py")):
        print(f"perfbench: no sketchpower sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    try:
        reports = _run_children(args, workdir)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        parent_dir = os.path.dirname(workdir)
        if os.path.isdir(parent_dir) and not os.listdir(parent_dir):
            os.rmdir(parent_dir)
    metrics = per_layer(args.workload, reports) if args.trace else end_to_end(reports)
    _print_diagnostics(args, reports, metrics)
    ops = _ops(reports)
    failed = sum(op["failed"] for op in ops)
    units = dict(END_TO_END + PER_LAYER)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
