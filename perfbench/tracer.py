"""Spans around the calls into each sketchpower module, installed from outside.

The tracer never edits the package: it replaces a public function with a
timing wrapper wherever a caller looks the name up (the defining module and
every ``sketchpower`` module that imported it by name, e.g.
``approximators.qr_economy``, ``bench_cli.tyuc17_spi`` and
``metrics.open_stream``), and swaps the originals back afterwards.  Targets
are found by identity, so a function re-exported under another name is
wrapped too; a target that no longer exists is skipped and its metrics read 0.

Per span name the tracer keeps the inclusive time, the self time (inclusive
time minus the time covered by child spans) and the call count.  Work
counters (flops, words, bytes) are computed from argument shapes in the
wrappers, so they are labelled "computed": they ignore cache misses and the
library's real kernels.
"""
from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

import numpy as np

UPDATE_KINDS = ("dense", "row_block", "rank_one", "column_block")
PIPELINES = ("tyuc17", "tyuc17_spi", "tyuc17_spi_variant", "rsvd_onepass", "tyuc19", "tyuc19_spi")


class Tracer:
    """Aggregated spans and counters of one process; enable per operation."""

    def __init__(self):
        self.time_s = defaultdict(float)     # inclusive seconds per span name
        self.self_s = defaultdict(float)     # self seconds per span name
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        self.wall_s = 0.0                    # wall time of the traced operations
        self._open = []                      # child-time accumulators of open spans
        self._seen_specs = set()
        self._seen_baselines = set()
        self._stream_updates = {}
        self.stream_configs = set()          # (kind, plan, m, n, s, d, l) of every opened stream
        self._patches = []

    # -- spans ---------------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        self._open.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            if name.startswith("stream_ingest.") and not getattr(exc, "_perfbench_counted", False):
                self.counters["stream_ingest.errors"] += 1
                exc._perfbench_counted = True   # count once, at the innermost span
            raise
        finally:
            dt = time.perf_counter() - t0
            child = self._open.pop()
            self.time_s[name] += dt
            self.self_s[name] += dt - child
            self.calls[name] += 1
            if self._open:
                self._open[-1] += dt

    # -- installation ----------------------------------------------------------

    def install(self):
        """Wrap every target; undo with :meth:`uninstall`."""
        if self._patches:
            return
        mods = [m for n, m in list(sys.modules.items()) if n == "sketchpower" or n.startswith("sketchpower.")]
        for modname, attr, make in _targets(self):
            try:
                owner = importlib.import_module(f"sketchpower.{modname}")
                orig = getattr(owner, attr)
            except (ImportError, AttributeError):
                continue
            wrapped = make(orig)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapped)
        cls = getattr(importlib.import_module("sketchpower.stream_ingest"), "SketchStream", None)
        if cls is not None:
            for attr, make in (("ingest", self._wrap_ingest), ("finalize", self._wrap_finalize)):
                orig = cls.__dict__.get(attr)
                if orig is not None:
                    self._patches.append((cls, attr, orig))
                    setattr(cls, attr, make(orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches = []

    # -- wrappers with counters --------------------------------------------------

    def _plain(self, name, before=None, after=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(*args, **kwargs)
                out = self.call(name, fn, args, kwargs)
                if after is not None:
                    after(out)
                return out
            wrapper.__wrapped__ = fn
            return wrapper
        return make

    def _wrap_ingest(self, fn):
        def ingest(stream, upd, *args, **kwargs):
            kind = getattr(upd, "kind", "unknown")
            payload = sum(a.size for a in (upd.h, upd.u, upd.v) if a is not None) * 8
            self.counters["stream_ingest.ingest.payload_bytes"] += payload
            out = self.call(f"stream_ingest.ingest.{kind}", fn, (stream, upd) + args, kwargs)
            self._stream_updates.setdefault(id(stream), []).append(_region(upd))
            return out
        ingest.__wrapped__ = fn
        return ingest

    def _wrap_finalize(self, fn):
        def finalize(stream, *args, **kwargs):
            sk = self.call("stream_ingest.finalize", fn, (stream,) + args, kwargs)
            updates = self._stream_updates.pop(id(stream), [])
            self.counters["stream_ingest.ingest.sketch_bytes_touched"] += _touched_bytes(sk, updates)
            for name in ("y", "w", "z", "x", "k"):
                arr = getattr(getattr(sk, name, None), "data", None)
                if arr is not None:
                    self.counters["sketch_words"] += arr.size
                    self.counters["sketch_words_binary32"] += arr.size * (arr.dtype == np.float32)
            return sk
        finalize.__wrapped__ = fn
        return finalize

    def _record_stream(self, stream):
        self.stream_configs.add((stream.kind.value, stream.plan.value, stream.m, stream.n,
                                 stream.s, stream.d, stream.l))

    def _count_spec(self, spec, *args, **kwargs):
        self.counters["synthetic.generate.repeats"] += spec in self._seen_specs
        self._seen_specs.add(spec)

    def _count_baselines(self, a, r, *args, **kwargs):
        a = np.asarray(getattr(a, "data", a))
        key = (a.shape, r, a.ravel()[:: max(1, a.size // 64)].tobytes())
        self.counters["metrics.baselines.repeats"] += key in self._seen_baselines
        self._seen_baselines.add(key)

    def _count_words(self, kind, rows, cols, *args, **kwargs):
        self.counters["test_matrices.words"] += rows * cols

    def _count_flops(self, layer, flops):
        def before(*args, **kwargs):
            self.counters[f"{layer}.flops"] += flops(*args, **kwargs)
        return before

    def _count_flag(self, attr):
        def after(out):
            self.counters["matrix_core.flags"] += bool(getattr(out, attr, False))
        return after

    def _count_result(self, out):
        self.counters["approximators.flags_raised"] += len(getattr(out, "flags", ()))


def _targets(tr: Tracer):
    """(module, attribute, wrapper factory) for every traced public function."""
    p = tr._plain
    out = [
        ("synthetic", "generate", p("synthetic.generate", before=tr._count_spec)),
        ("test_matrices", "generate", p("test_matrices.generate", before=tr._count_words)),
        ("stream_ingest", "open_stream", p("stream_ingest.open_stream", after=tr._record_stream)),
        ("stream_ingest", "ingest_file", p("stream_ingest.ingest_file")),
        ("stream_ingest", "read_matrix", p("stream_ingest.read_matrix")),
        ("precision_model", "simulate_storage", p("precision_model.simulate_storage")),
        ("spi", "spi_plain", p("spi.spi_plain", before=tr._count_flops("spi", _flops_spi_plain))),
        ("spi", "spi_stabilized", p("spi.spi_stabilized", before=tr._count_flops("spi", _flops_spi_stabilized))),
        ("spi", "spi_variant", p("spi.spi_variant", before=tr._count_flops("spi", _flops_spi_variant))),
        ("matrix_core", "qr_economy", p("matrix_core.qr_economy", before=tr._count_flops("matrix_core", _flops_qr),
                                        after=tr._count_flag("rank_deficient"))),
        ("matrix_core", "lstsq", p("matrix_core.lstsq", before=tr._count_flops("matrix_core", _flops_lstsq),
                                   after=tr._count_flag("ill_conditioned"))),
        ("matrix_core", "svd_truncated", p("matrix_core.svd_truncated",
                                           before=tr._count_flops("matrix_core", _flops_svd))),
        ("metrics", "_baselines", p("metrics._baselines", before=tr._count_baselines)),
        ("metrics", "relative_error", p("metrics.relative_error")),
        ("metrics", "range_extra_errors", p("metrics.range_extra_errors")),
        ("metrics", "oracle_sweep", p("metrics.oracle_sweep")),
        ("guidance", "select_sizes", p("guidance.select_sizes")),
        ("guidance", "select_sizes_double", p("guidance.select_sizes_double")),
        ("guidance", "classify_spectrum", p("guidance.classify_spectrum")),
        ("bench_cli", "run", p("bench_cli.run")),
        ("bench_cli", "run_sweep", p("bench_cli.run_sweep")),
    ]
    out += [("approximators", name, p(f"approximators.{name}", after=tr._count_result)) for name in PIPELINES]
    return out


# -- computed work (leading-order counts from argument shapes) ------------------

def _shape(x):
    return np.shape(getattr(x, "data", x))


def _flops_spi_plain(z, y, q, *args, **kwargs):
    (m, l), s = _shape(z), _shape(y)[1]
    return 2 * m * l * s * 2 * q


def _flops_spi_stabilized(z, y, q, *args, **kwargs):
    (m, l), s = _shape(z), _shape(y)[1]
    return q * (2 * m * l * s * 2 + _qr_count(l, s))


def _flops_spi_variant(z, o, q, *args, **kwargs):
    (m, l), s = _shape(z), _shape(o)[1]
    gram = 2 * m * l * l + q * 2 * l * l * s if q > 0 else 0
    return gram + 2 * m * l * s


def _qr_count(m, n):
    return 4 * m * n * n - 4 * n ** 3 // 3            # Householder QR plus forming Q


def _flops_qr(a, *args, **kwargs):
    return _qr_count(*_shape(a))


def _flops_svd(a, *args, **kwargs):
    big, small = max(_shape(a)), min(_shape(a))
    return 4 * big * small * small + 22 * small ** 3  # R-SVD with both factors


def _flops_lstsq(c, rhs, *args, **kwargs):
    m, n = _shape(c)
    k = _shape(rhs)[1] if len(_shape(rhs)) > 1 else 1
    return 4 * m * n * n + 22 * n ** 3 + 4 * m * n * k


# -- computed sketch traffic -------------------------------------------------------

def _region(upd):
    """(update kind, number of rows or columns) a row or column block covers."""
    if upd.kind == "row_block":
        return upd.kind, upd.h.shape[0]
    if upd.kind == "column_block":
        return upd.kind, upd.h.shape[1]
    return upd.kind, 0


def _touched_bytes(sk, updates) -> float:
    """Sketch storage bytes the stream's updates read-modify-wrote, each touched
    element counted once per update, from the finalized shapes and dtypes."""
    kind = getattr(sk.kind, "value", str(sk.kind))
    total = 0.0
    for name in ("y", "w", "z", "x", "k"):
        mat = getattr(sk, name, None)
        if mat is None:
            continue
        arr = np.asarray(getattr(mat, "data", mat))
        rows, cols = arr.shape
        row_side = name in ("y", "z")
        col_side = name in ("w", "x") and kind != "rsvd_onepass"
        for upd_kind, extent in updates:
            elems = rows * cols
            if row_side and upd_kind == "row_block":
                elems = extent * cols
            elif col_side and upd_kind == "column_block":
                elems = rows * extent
            total += elems * arr.itemsize
    return total
