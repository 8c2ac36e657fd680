"""One-pass sketch construction over a stream of linear updates.

The data matrix is only ever seen as a sum of additive updates (dense
increments, rank-one terms, row blocks, column blocks).  Each update is added
to every requested sketch once, by linearity; the matrix itself is never
stored.
Which sketches a stream keeps, their shapes, update rules and test matrices,
and the size rules it must meet all come from the pipeline's entry in
:data:`~sketchpower.precision_model.PIPELINES`.  :func:`open_stream` is the
one way to open a stream: it checks the sizes before it draws the test
matrices from their seeded streams, and :meth:`SketchStream.ingest` rejects
updates of the wrong shape or with non-finite entries.  :func:`ingest_file`
and :func:`read_matrix` read a SPIM or MatrixMarket file through one reader
that opens it once and checks each piece it reads.  After
:meth:`SketchStream.finalize` the resulting :class:`SketchSet` is immutable
(its arrays are read-only) and certifies ``pass_count == 1``.

Rank-one terms and column blocks are staged: a stream keeps up to k of their
columns as a binary64 pair U (m x k) and V (n x k) and folds the pending
U V^T into every sketch with one product per sketch, when the next term
would not fit, before a dense or row-block update and in
:meth:`SketchStream.finalize`.  k is ``min(32, sketch entries // (m + n))``,
so the pair never holds more entries than the sketches; it is allocated at
the first staged term and released at finalize.  Row-only streams (those with
a ``gram`` sketch) stage nothing.

Dense updates and row blocks are folded one row chunk of about 2^18
entries (2 MiB of binary64) at a time.  Each chunk is upcast to binary64
once and read by every sketch while it is in cache: a right sketch gets the
chunk's rows directly, and the increments of the other sketches are summed
in binary64 over the chunks and added once.  A binary32 row block (the
rows of a binary32 SPIM file, say) stays binary32 until its chunks are
upcast.  A file is one row-block update, but a SPIM file is read in pieces
of a few whole chunks into one reused buffer, so the read holds one piece,
not the file, and the sketches get the bytes of the whole file.  The sparse
test-matrix kinds are held as CSC arrays and applied with sparse products.
The finalized :class:`SketchSet` keeps a sparse test matrix with m columns
(the corange Psi of the ``tyuc17`` kinds, Phi and Gamma of the two-sided
kinds) in that CSC form, so its storage grows with its nonzeros, not with
m; the finishers and the metrics apply it as they would a dense array.  The
test matrices on the n side are small and are held dense.

Sketches declared binary32 are accumulated in binary64 and rounded to
binary32 at each fold: once per dense or row-block update (a file is one)
and once per flush of the staging pair (about N/k roundings for N staged
terms), bounding rounding drift independent of how the stream is blocked.
"""
from __future__ import annotations

import contextlib
import enum
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np
import scipy.sparse

from .matrix_core import _CHUNK, DenseMatrix, _one_blas_thread, _row_chunks, all_finite
from .precision_model import PIPELINES, PrecisionPlan
from .test_matrices import GAUSSIAN, SeedSpec, Stream, TestMatrixKind, generate

__all__ = [
    "PipelineKind",
    "LinearUpdate",
    "SketchSet",
    "SketchStream",
    "open_stream",
    "ingest_file",
    "read_matrix",
]


# Widest staging pair, in columns.  1050 rank-one terms and 8-column blocks
# into a mixed tyuc17_spi and a binary64 tyuc19 stream (1000 x 1000, sizes
# (24, 72, 96), one BLAS thread) took about 1150 ms unstaged and 750, 480,
# 380 and 380 ms at k = 8, 16, 32 and 64.
_STAGE_COLS = 32


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
        """Rows starting at ``start_row``; a binary32 block is kept binary32
        and upcast one chunk at a time as it is folded."""
        h = np.asarray(block)
        h = h if h.dtype == np.float32 else h.astype(np.float64, copy=False)
        return LinearUpdate("row_block", h=np.atleast_2d(h), start=start_row)

    @staticmethod
    def column_block(start_col: int, block) -> "LinearUpdate":
        return LinearUpdate("column_block", h=np.atleast_2d(np.asarray(block, dtype=np.float64)), start=start_col)


@dataclass(frozen=True)
class SketchSet:
    """Finalized one-pass sketches plus the test matrices that produced them.

    Only the sketches a pipeline defines are present; the rest are None.
    ``w`` is the corange sketch: d x n for the oblique pipelines, n x s for
    the orthogonal-projection pipeline, l x n for the two-sided power
    variant.  Each sketch is a :class:`DenseMatrix` record of its read-only
    array.  A test matrix with m columns (``psi`` of the ``tyuc17`` kinds,
    ``phi`` and ``gamma`` of the two-sided kinds) of a sparse kind is a
    ``scipy.sparse.csc_array`` with read-only arrays; every other test matrix
    is a read-only binary64 ndarray.
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
    omega: Optional[np.ndarray]
    psi: Optional[np.ndarray | scipy.sparse.csc_array]
    phi: Optional[np.ndarray | scipy.sparse.csc_array]
    gamma: Optional[np.ndarray | scipy.sparse.csc_array]
    test_kind: TestMatrixKind
    pass_count: int
    base_seed: int = 0
    trial: int = 0


def _right_terms(upd: LinearUpdate, t):
    """(region, H t) of a sketch whose rows follow the data rows, for a staged
    U V^T (u, v: the m x p and n x p columns) or a column block H."""
    if upd.kind == "rank_one":
        return slice(None), upd.u @ (upd.v.T @ t)
    return slice(None), upd.h @ t[upd.start : upd.start + upd.h.shape[1]]


def _left_terms(upd: LinearUpdate, t):
    """(region, t H) of a sketch whose columns follow the data columns."""
    if upd.kind == "rank_one":
        return slice(None), (t @ upd.u) @ upd.v.T
    return (slice(None), slice(upd.start, upd.start + upd.h.shape[1])), t @ upd.h


def _two_sided_terms(upd: LinearUpdate, tl, tr):
    """(region, tl H tr^T), never materializing an m x d product."""
    if upd.kind == "rank_one":
        return slice(None), (tl @ upd.u) @ (tr @ upd.v).T
    return slice(None), (tl @ upd.h) @ tr[:, upd.start : upd.start + upd.h.shape[1]].T


# Row-only streams (those with a gram sketch) take no rank-one term or column
# block as such, so gram has no kernel here.
_TERM_KERNELS = {"right": _right_terms, "left": _left_terms, "two_sided": _two_sided_terms}


def _columns(t, a: int, b: int):
    """Columns [a, b) of a test matrix: a view of a dense one, or a CSC array
    sharing the arrays of a sparse one."""
    if isinstance(t, np.ndarray):
        return t[:, a:b]
    p, q = t.indptr[a], t.indptr[b]
    return scipy.sparse.csc_array((t.data[p:q], t.indices[p:q], t.indptr[a : b + 1] - p), shape=(t.shape[0], b - a))


def _test_matrix_seed(name: str, base_seed: int, trial: int) -> SeedSpec:
    """The seeded stream a stream's test matrix ``name`` is drawn from."""
    return SeedSpec(base_seed, Stream[name.upper()], trial)


class SketchStream:
    """Single-writer accumulator for one pass over the data matrix.

    The constructor checks the sizes against the pipeline's rules before it
    draws a test matrix, then draws each test matrix from the seeded stream
    of the same name (``omega`` from ``Stream.OMEGA``, ...), so the draws do
    not depend on which other test matrices the pipeline has.  A sparse kind
    is held as a CSC array and applied with sparse products.
    """

    def __init__(
        self,
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
        _taken: Optional[dict] = None,
    ):
        spec = PIPELINES[kind.value]
        spec.check_sizes(m, n, s, d, l)  # also rejects m < 1 or n < 1
        self.kind = kind
        self.m, self.n, self.s, self.d, self.l = m, n, s, d, l
        self.plan = plan
        self.test_kind = test_kind
        self.base_seed = base_seed
        self.trial = trial
        self._finalized = False

        # The oracle sweep hands a stream, in ``_taken``, test matrices and
        # finalized sketches (arrays, by name) it shares with a stream of the
        # same seed that ingested the same data; they are kept as they are,
        # and only the other sketches are folded.
        taken = _taken or {}
        shapes = spec.shapes(m, n, s, d, l)
        self._t = {
            name: taken[name] if name in taken
            else generate(test_kind, *shapes[name], _test_matrix_seed(name, base_seed, trial))
            for name, _ in spec.test_matrices
        }
        self._sk = {
            sk.name: taken[sk.name] if sk.name in taken
            else np.zeros(shapes[sk.name], dtype=spec.precision(sk.name, plan).dtype)
            for sk in spec.sketches
        }
        folded = [sk for sk in spec.sketches if sk.name not in taken]
        # A gram sketch reuses the increment of the sketch it names, so that
        # increment is kept for the rest of the update; the others are not.
        reused = {o for sk in folded if sk.update == "gram" for o in sk.operands}
        self._steps = [(sk.name, sk.update, sk.operands, sk.name in reused) for sk in folded]
        # A sparse right product T^T H^T reads a row chunk by columns, so it
        # takes T^T in CSR form and a transposed copy of the chunk, made once
        # for all of them.
        right = [o for sk in folded if sk.update == "right" for o in sk.operands]
        self._right_csr = {o: self._t[o].T for o in right if not isinstance(self._t[o], np.ndarray)}
        # A gram sketch is quadratic in the data, so its stream takes whole rows.
        self._rows_seen = np.zeros(m, dtype=bool) if reused else None
        # Every other pipeline has a right sketch of m rows and a left one of
        # n columns, so k >= 1 there; a row-only stream stages nothing.
        entries = sum(a.size for a in self._sk.values())
        self._stage_cols = 0 if reused else min(_STAGE_COLS, entries // (m + n))
        self._stage: Optional[tuple[np.ndarray, np.ndarray]] = None
        self._pending = 0

    def _add(self, name: str, sl, inc: np.ndarray) -> None:
        """sketch[sl] += inc: one binary64 add and, for a binary32 sketch, one
        rounding, in place; ``inc`` is left intact."""
        dst = self._sk[name][sl]
        np.add(dst, inc, out=dst, casting="unsafe")

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

    def _check_finite(self, upd: LinearUpdate) -> None:
        if all(x is None or all_finite(x) for x in (upd.h, upd.u, upd.v)):
            return
        if upd.kind == "row_block":
            where = f"rows [{upd.start}, {upd.start + upd.h.shape[0]})"
        elif upd.kind == "column_block":
            where = f"columns [{upd.start}, {upd.start + upd.h.shape[1]})"
        else:
            where = f"rows [0, {self.m}) x columns [0, {self.n})"
        raise ValueError(_non_finite(upd.kind, where))

    def ingest(self, upd: LinearUpdate) -> "SketchStream":
        """Add one linear update to this stream.

        The update is checked first; a refused one leaves the stream as it
        was.  A rank-one term or a column block of at most k columns is
        copied into the staging pair; anything else flushes the pair and is
        folded into every sketch at once.
        """
        if self._finalized:
            raise RuntimeError("stream already finalized; the single pass is over")
        self._check_shape(upd)
        self._check_finite(upd)
        if self._rows_seen is not None:
            upd = self._whole_rows(upd)
        width = 1 if upd.kind == "rank_one" else upd.h.shape[1] if upd.kind == "column_block" else None
        if width is not None and width <= self._stage_cols:
            if self._pending + width > self._stage_cols:
                self._flush()
            self._push(upd, width)
        else:
            self._flush()
            self._fold(upd)
        return self

    @_one_blas_thread()
    def _fold(self, upd: LinearUpdate) -> None:
        """Add an update to every sketch, in the table's order."""
        if upd.kind in ("dense", "row_block"):
            self._fold_rows(upd.start, (upd.h,))
            return
        for name, update, operands, _ in self._steps:
            self._add(name, *_TERM_KERNELS[update](upd, *(self._t[o] for o in operands)))

    def _fold_rows(self, start: int, pieces: Iterable[np.ndarray]) -> None:
        """Add the rows from ``start`` on, given as consecutive pieces, as one
        update, one chunk of about ``_CHUNK`` entries at a time.

        An update held in memory is one piece; ``ingest_file`` reads a file
        in pieces of whole chunks, so the chunks are the ones of the whole
        file.  Each chunk is upcast to binary64 once and read by every
        sketch while it is in cache.  A right sketch gets the chunk's rows
        directly; the increments of the other sketches are summed in binary64
        over the chunks of every piece and added once, so each sketch entry
        is rounded once per update.  An update of one chunk is folded
        directly, without a copy if it is binary64 and the test matrices are
        dense.
        """
        sums = {}
        for i, c, ct in _row_chunks(pieces, max(1, _CHUNK // self.n), bool(self._right_csr)):
            a, b = start + i, start + i + c.shape[0]
            done = {}
            for name, update, operands, reused in self._steps:
                if update == "right":
                    o = operands[0]
                    inc = (self._right_csr[o] @ ct).T if o in self._right_csr else c @ self._t[o]
                    self._add(name, slice(a, b), inc)
                else:  # left, the left factor of two_sided, or gram
                    inc = ct @ done[operands[0]] if update == "gram" else _columns(self._t[operands[0]], a, b) @ c
                    if name in sums:
                        sums[name] += inc
                    else:
                        sums[name] = inc
                if reused:
                    done[name] = inc
        for name, update, operands, _ in self._steps:
            if name in sums:
                inc = sums[name] @ self._t[operands[1]].T if update == "two_sided" else sums[name]
                self._add(name, slice(None), inc)

    def _push(self, upd: LinearUpdate, width: int) -> None:
        """Copy a rank-one term, or a column block H as H [e_a ... e_{a+w-1}]^T,
        into the next columns of the staging pair."""
        if self._stage is None:
            k = self._stage_cols
            self._stage = (np.empty((self.m, k), order="F"), np.empty((self.n, k), order="F"))
        u, v = self._stage
        p = self._pending
        if upd.kind == "rank_one":
            u[:, p] = upd.u
            v[:, p] = upd.v
        else:
            u[:, p : p + width] = upd.h
            v[:, p : p + width] = 0.0
            j = np.arange(width)
            v[upd.start + j, p + j] = 1.0
        self._pending += width

    def _flush(self) -> None:
        """Fold the pending U V^T into every sketch as one rank-p term."""
        if self._pending:
            u, v = self._stage
            p = self._pending
            self._fold(LinearUpdate("rank_one", u=u[:, :p], v=v[:, :p]))
            self._pending = 0

    def _whole_rows(self, upd: LinearUpdate) -> LinearUpdate:
        """The update as a row block of rows not delivered before.

        A gram sketch is a sum of per-row outer products, so each row must
        arrive once and whole: in a row block, or as a rank-one term whose
        left vector has exactly one nonzero entry.
        """
        if upd.kind == "rank_one":
            rows = np.flatnonzero(upd.u)
            if rows.size != 1:
                raise ValueError(
                    "row-wise sketching accepts a rank-one term only when its left vector "
                    f"has exactly one nonzero entry (one whole row); got {rows.size}"
                )
            i = int(rows[0])
            upd = LinearUpdate.row_block(i, upd.u[i] * upd.v)
        elif upd.kind != "row_block":
            raise ValueError("row-wise sketching accepts only row_block or rank_one updates")
        a, b = upd.start, upd.start + upd.h.shape[0]
        if self._rows_seen[a:b].any():
            raise ValueError("row-wise stream delivered some row twice")
        self._rows_seen[a:b] = True
        return upd

    def finalize(self) -> SketchSet:
        if self._finalized:
            raise RuntimeError("stream already finalized")
        self._flush()
        self._stage = None
        self._finalized = True
        sk = {name: DenseMatrix(_frozen(arr)) for name, arr in self._sk.items()}
        tm = {name: _frozen(self._t[name], cols == "m") for name, (_, cols) in PIPELINES[self.kind.value].test_matrices}
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


def _non_finite(kind: str, where: str) -> str:
    return f"non-finite entries in {kind} update of {where}"


def _frozen(t, keep_sparse: bool = False):
    """A sketch or test matrix as the sketch set holds it, its arrays
    read-only: a CSC array if it is sparse and ``keep_sparse``, else a
    C-ordered ndarray."""
    if not isinstance(t, np.ndarray) and not keep_sparse:
        t = t.toarray(order="C")
    for a in (t,) if isinstance(t, np.ndarray) else (t.data, t.indices, t.indptr):
        a.flags.writeable = False
    return t


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
    """Open a stream of the pipeline ``kind``; see :class:`SketchStream`."""
    return SketchStream(kind, m, n, s, d, l, base_seed=base_seed, trial=trial, test_kind=test_kind, plan=plan)


# Row chunks per piece of a SPIM read: 8 chunks are 8 MiB of binary32.  On a
# 131,072 x 1000 binary32 file a block of 16,777 rows (67 MB) read whole took
# 0.98 s; in pieces of 2,048 or 512 rows, 0.92 and 0.98 s.
_PIECE_CHUNKS = 8


# -- file ingestion ---------------------------------------------------------

_SPIM_MAGIC = b"SPIM"
_SPIM_HEADER_BYTES = 24


def _spim_header(head: bytes, size: int, path) -> tuple[int, int, np.dtype]:
    """(rows, cols, element dtype) from a SPIM file's first bytes and its size."""
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
    if size != expected:
        raise ValueError(
            f"{path}: header says {rows}x{cols} ({expected} bytes) but file has {size} bytes"
        )
    return rows, cols, dtype


def _row_pieces(path) -> Iterator:
    """Yield the shape (rows, cols) of a SPIM or MatrixMarket file, then its
    rows in consecutive pieces of :data:`_PIECE_CHUNKS` row chunks, each
    checked for finiteness (a refusal names the piece's rows).

    The file is opened once.  A SPIM header is read once and the payload is
    read, in the file's precision, one piece at a time into the same buffer,
    so a piece is valid only until the next one.  A MatrixMarket file is
    loaded once as binary64 and its pieces are slices of it.  Close the
    generator to close the file before it is spent.
    """
    with open(path, "rb") as fh:
        head = fh.read(_SPIM_HEADER_BYTES)
        if len(head) == 0:
            raise ValueError(f"{path}: empty file")
        if head[:4] == _SPIM_MAGIC:
            rows, cols, dtype = _spim_header(head, os.fstat(fh.fileno()).st_size, path)
            full = None
        elif head.startswith(b"%%MatrixMarket"):
            import scipy.io

            fh.seek(0)
            full = scipy.io.mmread(fh)
            full = np.asarray(full.toarray() if scipy.sparse.issparse(full) else full, dtype=np.float64)
            rows, cols = full.shape
            if rows < 1 or cols < 1:
                raise ValueError(f"{path}: invalid dimensions {rows}x{cols}")
        else:
            raise ValueError(f"{path}: unrecognized format (expected SPIM or MatrixMarket)")
        yield rows, cols
        step = min(rows, _PIECE_CHUNKS * max(1, _CHUNK // cols))
        buf = np.empty((step, cols), dtype=dtype) if full is None else None
        for a in range(0, rows, step):
            b = min(a + step, rows)
            if full is not None:
                piece = full[a:b]
            else:
                piece = buf[: b - a]
                if fh.readinto(piece) != piece.nbytes:
                    raise ValueError(f"{path}: truncated payload at row {a}")
            if not all_finite(piece):
                raise ValueError(f"{path}: {_non_finite('row_block', f'rows [{a}, {b})')}")
            yield piece


def read_matrix(path) -> np.ndarray:
    """Fully load a SPIM or MatrixMarket file as a C-ordered binary64 array,
    validating finiteness."""
    with contextlib.closing(_row_pieces(path)) as pieces:
        a = np.empty(next(pieces))
        start = 0
        for piece in pieces:
            a[start : start + piece.shape[0]] = piece
            start += piece.shape[0]
    return a


@_one_blas_thread()
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
) -> SketchSet:
    """Ingestion of a matrix file as one update; equivalent to
    ``open_stream(...).ingest(LinearUpdate.row_block(0, rows)).finalize()``
    on the file's rows, which stay binary32 for a binary32 SPIM file.

    A SPIM file is read, checked and folded in pieces of whole row chunks
    into one reused buffer, so beside the sketches the read holds one piece
    and a few chunks, whatever the file's rows.  Errors in a piece
    (non-finite entries, say) name the file and the piece's rows, and the
    file is closed by the time they reach the caller."""
    with contextlib.closing(_row_pieces(path)) as pieces:
        rows, cols = next(pieces)
        stream = open_stream(
            kind, rows, cols, s, d, l, base_seed=base_seed, trial=trial, test_kind=test_kind, plan=plan
        )
        stream._fold_rows(0, pieces)
    return stream.finalize()
