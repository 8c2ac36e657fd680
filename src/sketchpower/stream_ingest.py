"""One-pass sketch construction over a stream of linear updates.

The data matrix is only ever seen as a sum of additive updates (dense
increments, rank-one terms, row blocks, column blocks).  Each update touches
every requested sketch once, by linearity; the matrix itself is never stored.
After :meth:`SketchStream.finalize` the resulting :class:`SketchSet` is
immutable and certifies ``pass_count == 1``.

Sketches declared binary32 are accumulated in binary64 per update and rounded
to binary32 at the update boundary, bounding rounding drift independent of
how the stream is blocked.
"""
from __future__ import annotations

import enum
import os
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .matrix_core import DenseMatrix
from .precision_model import PrecisionPlan, sketch_precisions
from .test_matrices import GAUSSIAN, SeedSpec, Stream, TestMatrixKind, generate

__all__ = [
    "PipelineKind",
    "LinearUpdate",
    "SketchSet",
    "SketchStream",
    "open_stream",
    "ingest_file",
    "read_matrix",
    "default_block_rows",
]


class PipelineKind(enum.Enum):
    TYUC17 = "tyuc17"
    TYUC17_SPI = "tyuc17_spi"
    TYUC17_SPI_VARIANT = "tyuc17_spi_variant"
    RSVD_ONEPASS = "rsvd_onepass"
    TYUC19 = "tyuc19"
    TYUC19_SPI = "tyuc19_spi"


@dataclass(frozen=True)
class LinearUpdate:
    """One additive term of the stream; use the named constructors."""

    kind: str
    h: Optional[np.ndarray] = None
    u: Optional[np.ndarray] = None
    v: Optional[np.ndarray] = None
    start: int = 0

    @staticmethod
    def dense(h) -> "LinearUpdate":
        return LinearUpdate("dense", h=np.asarray(h, dtype=np.float64))

    @staticmethod
    def rank_one(u, v) -> "LinearUpdate":
        return LinearUpdate(
            "rank_one",
            u=np.asarray(u, dtype=np.float64).ravel(),
            v=np.asarray(v, dtype=np.float64).ravel(),
        )

    @staticmethod
    def row_block(start_row: int, block) -> "LinearUpdate":
        return LinearUpdate("row_block", h=np.atleast_2d(np.asarray(block, dtype=np.float64)), start=start_row)

    @staticmethod
    def column_block(start_col: int, block) -> "LinearUpdate":
        return LinearUpdate("column_block", h=np.atleast_2d(np.asarray(block, dtype=np.float64)), start=start_col)


@dataclass(frozen=True)
class SketchSet:
    """Finalized one-pass sketches plus the test matrices that produced them.

    Only the sketches a pipeline defines are present; the rest are None.
    ``w`` is the corange sketch: d x n for the oblique pipelines, n x s for
    the orthogonal-projection pipeline, l x n for the two-sided power
    variant.
    """

    kind: PipelineKind
    m: int
    n: int
    s: int
    d: int
    l: int
    plan: PrecisionPlan
    y: Optional[DenseMatrix]
    w: Optional[DenseMatrix]
    z: Optional[DenseMatrix]
    x: Optional[DenseMatrix]
    k: Optional[DenseMatrix]
    omega: Optional[DenseMatrix]
    psi: Optional[DenseMatrix]
    phi: Optional[DenseMatrix]
    gamma: Optional[DenseMatrix]
    test_kind: TestMatrixKind
    pass_count: int
    base_seed: int = 0
    trial: int = 0


def _test_matrix_shapes(kind: PipelineKind, m: int, n: int, s: int, d: int, l: int) -> dict:
    if kind is PipelineKind.TYUC17:
        return {"omega": (n, s), "psi": (d, m)}
    if kind is PipelineKind.TYUC17_SPI:
        return {"omega": (n, s), "psi": (d, m), "phi": (n, l)}
    if kind is PipelineKind.TYUC17_SPI_VARIANT:
        return {"psi": (d, m), "phi": (n, l)}
    if kind is PipelineKind.RSVD_ONEPASS:
        return {"omega": (n, s)}
    if kind is PipelineKind.TYUC19:
        return {"omega": (n, s), "gamma": (s, m), "phi": (d, m), "psi": (d, n)}
    if kind is PipelineKind.TYUC19_SPI:
        return {"omega": (n, l), "gamma": (l, m), "phi": (d, m), "psi": (d, n)}
    raise ValueError(kind)


class SketchStream:
    """Single-writer accumulator for one pass over the data matrix."""

    def __init__(
        self,
        kind: PipelineKind,
        m: int,
        n: int,
        s: int,
        d: int = 0,
        l: int = 0,
        *,
        plan: PrecisionPlan = PrecisionPlan.ALL_DOUBLE,
        test_matrices: dict[str, DenseMatrix],
        test_kind: TestMatrixKind = GAUSSIAN,
    ):
        if m < 1 or n < 1:
            raise ValueError(f"data dimensions must be >= 1, got {m}x{n}")
        self.kind = kind
        self.m, self.n, self.s, self.d, self.l = m, n, s, d, l
        self.plan = plan
        self.test_kind = test_kind
        self.base_seed = 0
        self.trial = 0
        self._finalized = False

        shapes = _test_matrix_shapes(kind, m, n, s, d, l)
        self._t = {}
        for name, shape in shapes.items():
            tm = test_matrices[name]
            if (tm.rows, tm.cols) != shape:
                raise ValueError(f"test matrix {name} has shape {(tm.rows, tm.cols)}, expected {shape}")
            self._t[name] = tm.as_f64()

        prec = sketch_precisions(kind.value, plan)
        self._sk: dict[str, np.ndarray] = {}

        def new(name, rows, cols):
            self._sk[name] = np.zeros((rows, cols), dtype=prec[name].dtype)

        if kind in (PipelineKind.TYUC17, PipelineKind.TYUC17_SPI):
            new("y", m, s)
            new("w", d, n)
        if kind is PipelineKind.TYUC17_SPI:
            new("z", m, l)
        if kind is PipelineKind.TYUC17_SPI_VARIANT:
            new("w", d, n)
            new("z", m, l)
        if kind is PipelineKind.RSVD_ONEPASS:
            new("y", m, s)
            new("w", n, s)
            self._rows_seen = np.zeros(m, dtype=bool)
        if kind is PipelineKind.TYUC19:
            new("y", m, s)
            new("x", s, n)
            new("k", d, d)
        if kind is PipelineKind.TYUC19_SPI:
            new("z", m, l)
            new("w", l, n)
            new("k", d, d)

    # -- accumulation helpers (binary64 staging, round at the boundary) -----

    def _add(self, name: str, sl, inc: np.ndarray) -> None:
        dst = self._sk[name]
        if dst.dtype == np.float64:
            dst[sl] += inc
        else:
            dst[sl] = (dst[sl].astype(np.float64) + inc).astype(np.float32)

    def _right_update(self, name: str, t: np.ndarray, upd: LinearUpdate) -> None:
        """sketch += H @ t for a sketch whose rows follow the data rows."""
        if upd.kind == "dense":
            self._add(name, slice(None), upd.h @ t)
        elif upd.kind == "rank_one":
            self._add(name, slice(None), np.outer(upd.u, upd.v @ t))
        elif upd.kind == "row_block":
            a, b = upd.start, upd.start + upd.h.shape[0]
            self._add(name, slice(a, b), upd.h @ t)
        else:  # column_block
            a, b = upd.start, upd.start + upd.h.shape[1]
            self._add(name, slice(None), upd.h @ t[a:b])

    def _left_update(self, name: str, t: np.ndarray, upd: LinearUpdate) -> None:
        """sketch += t @ H for a sketch whose columns follow the data columns."""
        if upd.kind == "dense":
            self._add(name, slice(None), t @ upd.h)
        elif upd.kind == "rank_one":
            self._add(name, slice(None), np.outer(t @ upd.u, upd.v))
        elif upd.kind == "row_block":
            a, b = upd.start, upd.start + upd.h.shape[0]
            self._add(name, slice(None), t[:, a:b] @ upd.h)
        else:
            a, b = upd.start, upd.start + upd.h.shape[1]
            self._add(name, (slice(None), slice(a, b)), t @ upd.h)

    def _two_sided_update(self, name: str, tl: np.ndarray, tr: np.ndarray, upd: LinearUpdate) -> None:
        """sketch += tl @ H @ tr^T, never materializing an m x d product."""
        if upd.kind == "dense":
            self._add(name, slice(None), (tl @ upd.h) @ tr.T)
        elif upd.kind == "rank_one":
            self._add(name, slice(None), np.outer(tl @ upd.u, tr @ upd.v))
        elif upd.kind == "row_block":
            a, b = upd.start, upd.start + upd.h.shape[0]
            self._add(name, slice(None), (tl[:, a:b] @ upd.h) @ tr.T)
        else:
            a, b = upd.start, upd.start + upd.h.shape[1]
            self._add(name, slice(None), (tl @ upd.h) @ tr[:, a:b].T)

    def _check_shape(self, upd: LinearUpdate) -> None:
        m, n = self.m, self.n
        if upd.kind == "dense":
            if upd.h.shape != (m, n):
                raise ValueError(f"dense update shape {upd.h.shape} != {(m, n)}")
        elif upd.kind == "rank_one":
            if upd.u.shape != (m,) or upd.v.shape != (n,):
                raise ValueError(
                    f"rank-one update vectors have shapes {upd.u.shape}, {upd.v.shape}; expected ({m},), ({n},)"
                )
        elif upd.kind == "row_block":
            if upd.h.shape[1] != n or upd.start < 0 or upd.start + upd.h.shape[0] > m:
                raise ValueError(f"row block [{upd.start}, {upd.start + upd.h.shape[0]}) x {upd.h.shape[1]} out of range for {m}x{n}")
        elif upd.kind == "column_block":
            if upd.h.shape[0] != m or upd.start < 0 or upd.start + upd.h.shape[1] > n:
                raise ValueError(f"column block out of range for {m}x{n}")
        else:
            raise ValueError(f"unknown update kind {upd.kind!r}")

    def ingest(self, upd: LinearUpdate) -> "SketchStream":
        """Fold one linear update into every sketch of this stream."""
        if self._finalized:
            raise RuntimeError("stream already finalized; the single pass is over")
        self._check_shape(upd)
        if self.kind is PipelineKind.RSVD_ONEPASS:
            return self._ingest_rowwise(upd)
        t = self._t
        if "y" in self._sk:
            self._right_update("y", t["omega"], upd)
        if self.kind in (PipelineKind.TYUC17, PipelineKind.TYUC17_SPI, PipelineKind.TYUC17_SPI_VARIANT):
            self._left_update("w", t["psi"], upd)
        if "z" in self._sk:
            zt = t["phi"] if self.kind is not PipelineKind.TYUC19_SPI else t["omega"]
            self._right_update("z", zt, upd)
        if "x" in self._sk:
            self._left_update("x", t["gamma"], upd)
        if self.kind is PipelineKind.TYUC19_SPI:
            self._left_update("w", t["gamma"], upd)
        if "k" in self._sk:
            self._two_sided_update("k", t["phi"], t["psi"], upd)
        return self

    def _ingest_rowwise(self, upd: LinearUpdate) -> "SketchStream":
        # The corange sketch here is quadratic in the data (sum of per-row
        # outer products), so the stream must deliver whole rows: each row
        # arrives once, in a row block or as a rank-one term whose left
        # vector has exactly one nonzero entry.
        omega = self._t["omega"]
        if upd.kind == "rank_one":
            rows = np.flatnonzero(upd.u)
            if rows.size != 1:
                raise ValueError(
                    "row-wise sketching accepts a rank-one term only when its left vector "
                    f"has exactly one nonzero entry (one whole row); got {rows.size}"
                )
            i = int(rows[0])
            return self._ingest_rowwise(LinearUpdate.row_block(i, upd.u[i] * upd.v))
        if upd.kind == "row_block":
            a, b = upd.start, upd.start + upd.h.shape[0]
            if self._rows_seen[a:b].any():
                raise ValueError("row-wise stream delivered some row twice")
            self._rows_seen[a:b] = True
            yo = upd.h @ omega
            self._add("y", slice(a, b), yo)
            self._add("w", slice(None), upd.h.T @ yo)
        else:
            raise ValueError(
                "row-wise sketching accepts only row_block or rank_one updates"
            )
        return self

    def finalize(self) -> SketchSet:
        if self._finalized:
            raise RuntimeError("stream already finalized")
        self._finalized = True
        sk = {name: DenseMatrix(arr) for name, arr in self._sk.items()}
        tm = {name: DenseMatrix(arr) for name, arr in self._t.items()}
        return SketchSet(
            kind=self.kind,
            m=self.m,
            n=self.n,
            s=self.s,
            d=self.d,
            l=self.l,
            plan=self.plan,
            y=sk.get("y"),
            w=sk.get("w"),
            z=sk.get("z"),
            x=sk.get("x"),
            k=sk.get("k"),
            omega=tm.get("omega"),
            psi=tm.get("psi"),
            phi=tm.get("phi"),
            gamma=tm.get("gamma"),
            test_kind=self.test_kind,
            pass_count=1,
            base_seed=self.base_seed,
            trial=self.trial,
        )


def open_stream(
    kind: PipelineKind,
    m: int,
    n: int,
    s: int,
    d: int = 0,
    l: int = 0,
    *,
    base_seed: int = 0,
    trial: int = 0,
    test_kind: TestMatrixKind = GAUSSIAN,
    plan: PrecisionPlan = PrecisionPlan.ALL_DOUBLE,
) -> SketchStream:
    """Draw the pipeline's test matrices from seeded streams and open a stream."""
    tags = {"omega": Stream.OMEGA, "psi": Stream.PSI, "phi": Stream.PHI, "gamma": Stream.GAMMA}
    mats = {}
    for name, shape in _test_matrix_shapes(kind, m, n, s, d, l).items():
        mats[name] = generate(test_kind, shape[0], shape[1], SeedSpec(base_seed, tags[name], trial))
    stream = SketchStream(kind, m, n, s, d, l, plan=plan, test_matrices=mats, test_kind=test_kind)
    stream.base_seed = base_seed
    stream.trial = trial
    return stream


def default_block_rows(n: int) -> int:
    """Bounded working memory: about 2^24 elements per block regardless of m."""
    return max(1, (1 << 24) // max(n, 1))


# -- file ingestion ---------------------------------------------------------

_SPIM_MAGIC = b"SPIM"
_SPIM_HEADER_BYTES = 24


def _read_spim_header(fh, path):
    head = fh.read(_SPIM_HEADER_BYTES)
    if len(head) == 0:
        raise ValueError(f"{path}: empty file")
    if len(head) < _SPIM_HEADER_BYTES or head[:4] != _SPIM_MAGIC:
        raise ValueError(f"{path}: not a SPIM file (bad magic or truncated header)")
    version = int(np.frombuffer(head[4:6], dtype="<u2")[0])
    if version != 1:
        raise ValueError(f"{path}: unsupported SPIM version {version}")
    elem = head[6]
    if elem not in (0, 1):
        raise ValueError(f"{path}: unknown element code {elem}")
    rows, cols = (int(x) for x in np.frombuffer(head[8:24], dtype="<u8"))
    if rows < 1 or cols < 1:
        raise ValueError(f"{path}: invalid dimensions {rows}x{cols}")
    if rows * cols > (1 << 48):
        raise ValueError(f"{path}: dimension overflow ({rows}x{cols})")
    dtype = np.dtype("<f8" if elem == 0 else "<f4")
    expected = _SPIM_HEADER_BYTES + rows * cols * dtype.itemsize
    actual = os.fstat(fh.fileno()).st_size
    if actual != expected:
        raise ValueError(
            f"{path}: header says {rows}x{cols} ({expected} bytes) but file has {actual} bytes"
        )
    return rows, cols, dtype


def _spim_row_blocks(path, block_rows: Optional[int]) -> Iterable[tuple[int, np.ndarray]]:
    with open(path, "rb") as fh:
        rows, cols, dtype = _read_spim_header(fh, path)
        blk = block_rows or default_block_rows(cols)
        start = 0
        while start < rows:
            count = min(blk, rows - start)
            data = np.fromfile(fh, dtype=dtype, count=count * cols)
            if data.size != count * cols:
                raise ValueError(f"{path}: truncated payload at row {start}")
            block = data.reshape(count, cols).astype(np.float64)
            if not np.isfinite(block).all():
                raise ValueError(f"{path}: non-finite entries in rows [{start}, {start + count})")
            yield start, block
            start += count


def _file_dims(path) -> tuple[int, int, str]:
    with open(path, "rb") as fh:
        head = fh.read(14)
    if len(head) == 0:
        raise ValueError(f"{path}: empty file")
    if head[:4] == _SPIM_MAGIC:
        with open(path, "rb") as fh:
            rows, cols, _ = _read_spim_header(fh, path)
        return rows, cols, "spim"
    if head.startswith(b"%%MatrixMarket"):
        import scipy.io

        rows, cols = scipy.io.mminfo(path)[:2]
        if rows < 1 or cols < 1:
            raise ValueError(f"{path}: invalid dimensions {rows}x{cols}")
        return int(rows), int(cols), "matrixmarket"
    raise ValueError(f"{path}: unrecognized format (expected SPIM or MatrixMarket)")


def read_matrix(path) -> DenseMatrix:
    """Fully load a SPIM or MatrixMarket file, validating finiteness."""
    rows, cols, fmt = _file_dims(path)
    if fmt == "spim":
        parts = [b for _, b in _spim_row_blocks(path, None)]
        return DenseMatrix.from_array(np.vstack(parts), check_finite=False)
    import scipy.io
    import scipy.sparse

    a = scipy.io.mmread(path)
    if scipy.sparse.issparse(a):
        a = a.toarray()
    a = np.asarray(a, dtype=np.float64)
    if not np.isfinite(a).all():
        raise ValueError(f"{path}: non-finite entries")
    return DenseMatrix.from_array(a, check_finite=False)


def ingest_file(
    path,
    kind: PipelineKind,
    s: int,
    d: int = 0,
    l: int = 0,
    *,
    base_seed: int = 0,
    trial: int = 0,
    test_kind: TestMatrixKind = GAUSSIAN,
    plan: PrecisionPlan = PrecisionPlan.ALL_DOUBLE,
    block_rows: Optional[int] = None,
) -> SketchSet:
    """Row-block ingestion of a matrix file; equivalent to streaming the whole
    file through :meth:`SketchStream.ingest` and finalizing."""
    rows, cols, fmt = _file_dims(path)
    stream = open_stream(
        kind, rows, cols, s, d, l, base_seed=base_seed, trial=trial, test_kind=test_kind, plan=plan
    )
    if fmt == "spim":
        blocks = _spim_row_blocks(path, block_rows)
    else:
        full = read_matrix(path).data
        blk = block_rows or default_block_rows(cols)
        blocks = ((start, full[start : start + blk]) for start in range(0, rows, blk))
    for start, block in blocks:
        stream.ingest(LinearUpdate.row_block(start, block))
    return stream.finalize()
