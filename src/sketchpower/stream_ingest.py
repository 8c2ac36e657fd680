"""One-pass sketch construction over a stream of linear updates.

The data matrix is only ever seen as a sum of additive updates (dense
increments, rank-one terms, row blocks, column blocks).  Each update is added
to every requested sketch once, by linearity; the matrix itself is never
stored.
Which sketches a stream keeps, their shapes, update rules and test matrices,
and the size rules it must meet all come from the pipeline's entry in
:data:`~sketchpower.precision_model.PIPELINES`.  :func:`open_stream` is the
one way to open a stream: it checks the sizes before it draws the test
matrices from their seeded streams.  The :class:`LinearUpdate` constructors
refuse complex payloads and a rank-one operand that is not a vector, and
:meth:`SketchStream.ingest` rejects updates of the wrong shape, with a
payload that is not binary32 or binary64, or with non-finite entries.
Finiteness is decided by one BLAS self-dot per operand (a finite sum of
squares shows every entry finite); only a non-finite sum, from a bad entry
or an overflow, takes the exact elementwise test, which also phrases the
refusal (:func:`~sketchpower.matrix_core.all_finite`).  :func:`ingest_file`
and :func:`read_matrix` read a SPIM or MatrixMarket file through one reader
that checks each piece it reads the same way; :func:`write_spim` writes a
SPIM file in the header format that reader unpacks.
:meth:`SketchStream.finalize` refuses a sketch that the updates overflowed,
by name; after it the resulting :class:`SketchSet` is immutable (its arrays
are read-only) and certifies ``pass_count == 1``.

Rank-one terms and column blocks are staged in two binary64 buffers of k
columns: the pair U (m x k), V (n x k) holds rank-one terms, and H (m x k)
holds column blocks of at most k columns with the start and width of each.
A flush folds a buffer into every sketch with one product per sketch: U V^T
as such, and H through the test-matrix rows or columns of the blocks'
columns, gathered (H T[idx] for a right sketch, T H added into each block's
own columns for a left one).  Each buffer flushes when its next term would
not fit; both flush before a dense or row-block update, before a block wider
than k (folded with the same kernels, as one block) and in
:meth:`SketchStream.finalize`.  k is ``min(32, sketch entries // (m + n))``,
so the two buffers hold at most k(2m + n) binary64 words, less than twice
the sketches' entries; each is allocated at its first staged term and
released at finalize; a binary32 column block stays binary32 until it is
copied into H or folded.  A row-only stream (of a pipeline with a ``gram``
sketch) stages nothing: it takes each row once, in a dense update (rows
[0, m)), a row block or a one-row rank-one term, and refuses column blocks.

Dense updates and row blocks are folded one row chunk of about 2^18
entries (2 MiB of binary64) at a time.  Each chunk is upcast to binary64
once and read by every sketch while it is in cache.  Its product H T with
a test matrix is taken once, for every right and gram sketch that reads
it: a right sketch gets its rows directly, and the increments of the other
sketches (H^T (H T) for a gram one) are summed in binary64 over the chunks
and added once.  A binary32 row block (the rows of a binary32 SPIM file,
say) stays binary32 until its chunks are upcast.  A file is one row-block
update, but a SPIM file is read in pieces of a few whole chunks into one
reused buffer, so the read holds one piece, not the file, and the sketches
get the bytes of the whole file.  The sparse
test-matrix kinds are held as CSC arrays and applied with sparse products.
The finalized :class:`SketchSet` keeps a sparse test matrix with m columns
(the corange Psi of the ``tyuc17`` kinds, Phi and Gamma of the two-sided
kinds) in that CSC form, which stores its nonzeros and m + 1 column
pointers, not d·m entries; the finishers and the metrics apply it as they
would a dense array.  The test matrices on the n side are small and are
held dense.

Sketches declared binary32 are accumulated in binary64 and rounded to
binary32 at each fold: once per dense or row-block update (a file is one)
and once per flush that touches the entry (about N/k roundings for N staged
terms); a left-sketch column that several blocks of one flush cover is
rounded once per such block.  This bounds rounding drift independent of how
the stream is blocked.
"""
from __future__ import annotations

import contextlib
import enum
import os
import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np
import scipy.sparse

from .matrix_core import _CHUNK, DenseMatrix, Precision, _finite_vector, _integer, _one_blas_thread, _row_chunks, all_finite
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
    "write_spim",
]


# Widest staging buffer, in columns.  1050 rank-one terms and 8-column blocks
# into a mixed tyuc17_spi and a binary64 tyuc19 stream (1000 x 1000, sizes
# (24, 72, 96), one BLAS thread) took about 1510, 340, 260, 190 and 170 ms
# at k = 1, 8, 16, 32 and 64; past 32 the buffers grow faster than the time
# falls.
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
        """The whole matrix; a binary32 one is kept binary32 and upcast one
        chunk at a time as it is folded."""
        return LinearUpdate("dense", h=_real("dense", h))

    @staticmethod
    def rank_one(u, v) -> "LinearUpdate":
        """The term u v^T; each operand is a vector, or an array with one
        axis longer than 1 ((m, 1) or (1, m), say)."""
        return LinearUpdate("rank_one", u=_vector(u), v=_vector(v))

    @staticmethod
    def row_block(start_row: int, block) -> "LinearUpdate":
        """Rows starting at ``start_row``; a binary32 block is kept binary32
        and upcast one chunk at a time as it is folded."""
        return LinearUpdate("row_block", h=np.atleast_2d(_real("row_block", block)), start=start_row)

    @staticmethod
    def column_block(start_col: int, block) -> "LinearUpdate":
        """Columns starting at ``start_col``; a binary32 block is kept binary32."""
        return LinearUpdate("column_block", h=np.atleast_2d(_real("column_block", block)), start=start_col)


def _real(kind: str, x) -> np.ndarray:
    """x as a binary32 array if it is one, else as binary64; refused if it is
    complex: casting would drop the imaginary parts."""
    a = np.asarray(x)
    if a.dtype.kind == "c":
        raise ValueError(f"{kind} update has complex entries; only real ones are supported")
    return a if a.dtype == np.float32 else a.astype(np.float64, copy=False)


def _vector(x) -> np.ndarray:
    """A rank-one operand as a binary64 vector, refused if more than one of
    its axes is longer than 1 (flattening would make a vector of a matrix)."""
    a = _real("rank_one", x)
    if sum(side > 1 for side in a.shape) > 1:
        raise ValueError(f"rank_one update operand has shape {a.shape}; expected a vector")
    return a.astype(np.float64, copy=False).ravel()


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


def _right_terms(h, cols, t):
    """(region, increment) pairs of a sketch whose rows follow the data rows,
    for staged terms H C^T: U (V^T T) for rank-one terms (h = U, cols = V),
    H T[idx] for column blocks (cols their segments, idx their columns)."""
    if isinstance(cols, np.ndarray):
        return [(slice(None), h @ (cols.T @ t))]
    return [(slice(None), h @ t[_gathered(cols)])]


def _left_terms(h, cols, t):
    """(region, increment) pairs of a sketch whose columns follow the data
    columns: (T U) V^T, or T H added into each block's own columns."""
    if isinstance(cols, np.ndarray):
        return [(slice(None), (t @ h) @ cols.T)]
    th = t @ h
    return [((slice(None), slice(a, a + w)), th[:, o : o + w]) for o, a, w in cols]


def _two_sided_terms(h, cols, tl, tr):
    """(region, tl H C^T tr^T), never materializing an m x d product."""
    if isinstance(cols, np.ndarray):
        return [(slice(None), (tl @ h) @ (tr @ cols).T)]
    return [(slice(None), (tl @ h) @ tr[:, _gathered(cols)].T)]


def _gathered(segments) -> np.ndarray:
    """The data columns of staged column blocks, in the order of H's columns."""
    return np.concatenate([np.arange(a, a + w) for _, a, w in segments])


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
        self._steps = [(sk.name, sk.update, sk.operands) for sk in folded]
        # A chunk's product H T with a test matrix that a right or gram sketch
        # reads is taken once; a sparse T as (T^T H^T)^T, T^T in CSR form
        # reading a transposed copy of the chunk made once for all of them.
        self._right = {o for sk in folded if sk.update in ("right", "gram") for o in sk.operands}
        self._right_csr = {o: self._t[o].T for o in self._right if not isinstance(self._t[o], np.ndarray)}
        # A gram sketch is quadratic in the data, so its stream takes whole rows.
        rows_only = any(sk.update == "gram" for sk in spec.sketches)
        self._rows_seen = np.zeros(m, dtype=bool) if rows_only else None
        # Every other pipeline has a right sketch of m rows and a left one of
        # n columns, so k >= 1 there; a row-only stream stages nothing.
        entries = sum(a.size for a in self._sk.values())
        self._stage_cols = 0 if rows_only else min(_STAGE_COLS, entries // (m + n))
        # The rank-one pair (U, V) with its pending columns, and the block
        # buffer H with the (offset in H, start, width) of each staged block.
        self._stage: Optional[tuple[np.ndarray, np.ndarray]] = None
        self._pending = 0
        self._blocks: Optional[np.ndarray] = None
        self._segments: list[tuple[int, int, int]] = []
        self._block_cols = 0

    def _add(self, name: str, sl, inc: np.ndarray) -> None:
        """sketch[sl] += inc: one binary64 add and, for a binary32 sketch, one
        rounding, in place; ``inc`` is left intact."""
        dst = self._sk[name][sl]
        np.add(dst, inc, out=dst, casting="unsafe")

    def _check(self, upd: LinearUpdate) -> None:
        """Refuse an update of the wrong shape or start, with a payload that is
        not binary32 or binary64, or with a non-finite entry (decided by one
        self-dot per operand, see :func:`~sketchpower.matrix_core.all_finite`)."""
        m, n, kind = self.m, self.n, upd.kind
        where = None  # a block names its rows or columns; other updates cover the matrix
        if kind == "rank_one":
            u, v = upd.u, upd.v
            if u.shape != (m,) or v.shape != (n,):
                raise ValueError(
                    f"rank-one update vectors have shapes {u.shape}, {v.shape}; expected ({m},), ({n},)"
                )
            _check_dtype(kind, u, v)
            if _finite_vector(u) and _finite_vector(v):
                return
        else:
            h = upd.h
            if kind == "dense":
                if h.shape != (m, n):
                    raise ValueError(f"dense update shape {h.shape} != {(m, n)}")
            elif kind not in ("row_block", "column_block"):
                raise ValueError(f"unknown update kind {kind!r}")
            elif h.ndim != 2:
                raise ValueError(f"{kind} update has shape {h.shape}; expected two axes")
            elif kind == "row_block":
                start = _integer(upd.start, "row block start")
                if h.shape[1] != n or start < 0 or start + h.shape[0] > m:
                    raise ValueError(f"row block [{start}, {start + h.shape[0]}) x {h.shape[1]} out of range for {m}x{n}")
                where = f"rows [{start}, {start + h.shape[0]})"
            else:
                start = _integer(upd.start, "column block start")
                if h.shape[0] != m or start < 0 or start + h.shape[1] > n:
                    raise ValueError(f"column block out of range for {m}x{n}")
                where = f"columns [{start}, {start + h.shape[1]})"
            _check_dtype(kind, h)
            if all_finite(h):
                return
        raise ValueError(_non_finite(kind, where or f"rows [0, {m}) x columns [0, {n})"))

    def ingest(self, upd: LinearUpdate) -> "SketchStream":
        """Add one linear update to this stream.

        The update is checked first; a refused one leaves the stream as it
        was.  A rank-one term is copied into the staging pair and a column
        block of at most k columns into the block buffer; anything else
        flushes both and is folded into every sketch at once.
        """
        if self._finalized:
            raise RuntimeError("stream already finalized; the single pass is over")
        self._check(upd)
        if self._rows_seen is not None:
            upd = self._whole_rows(upd)
        k = self._stage_cols
        if upd.kind == "rank_one":  # a row-only stream took it as a row block
            if self._pending == k:
                self._flush_pair()
            self._push_pair(upd)
        elif upd.kind == "column_block" and upd.h.shape[1] <= k:
            if self._block_cols + upd.h.shape[1] > k:
                self._flush_blocks()
            self._push_block(upd)
        else:
            self._flush()
            if upd.kind == "column_block":
                self._fold_terms(upd.h, [(0, upd.start, upd.h.shape[1])])
            else:
                self._fold_rows(upd.start, (upd.h,))
        return self

    @_one_blas_thread()
    def _fold_terms(self, h: np.ndarray, cols) -> None:
        """Add staged terms H C^T to every sketch, in the table's order: C is
        V (n x p) for rank-one terms, or for column blocks the (offset in H,
        start, width) of each block, which adds H[:, o : o + w] to the data
        columns [a, a + w)."""
        for name, update, operands in self._steps:
            for region, inc in _TERM_KERNELS[update](h, cols, *(self._t[o] for o in operands)):
                self._add(name, region, inc)

    @_one_blas_thread()
    def _fold_rows(self, start: int, pieces: Iterable[np.ndarray]) -> None:
        """Add the rows from ``start`` on, given as consecutive pieces, as one
        update, one chunk of about ``_CHUNK`` entries at a time.

        An update held in memory is one piece; ``ingest_file`` reads a file
        in pieces of whole chunks, so the chunks are the ones of the whole
        file.  Each chunk is upcast to binary64 once and read by every
        sketch while it is in cache, and its product with a test matrix is
        taken once for every right and gram sketch that reads it.  A right
        sketch gets the product's rows directly; the increments of the other
        sketches are summed in binary64 over the chunks of every piece and
        added once, so each sketch entry is rounded once per update.  An
        update of one chunk is folded directly, without a copy if it is
        binary64 and the test matrices are dense.
        """
        sums = {}
        for i, c, ct in _row_chunks(pieces, max(1, _CHUNK // self.n), bool(self._right_csr)):
            a, b = start + i, start + i + c.shape[0]
            right = {o: (self._right_csr[o] @ ct).T if o in self._right_csr else c @ self._t[o] for o in self._right}
            for name, update, operands in self._steps:
                if update == "right":
                    self._add(name, slice(a, b), right[operands[0]])
                else:  # left, the left factor of two_sided, or gram
                    inc = ct @ right[operands[0]] if update == "gram" else _columns(self._t[operands[0]], a, b) @ c
                    if name in sums:
                        sums[name] += inc
                    else:
                        sums[name] = inc
        for name, update, operands in self._steps:
            if name in sums:
                inc = sums[name] @ self._t[operands[1]].T if update == "two_sided" else sums[name]
                self._add(name, slice(None), inc)

    def _push_pair(self, upd: LinearUpdate) -> None:
        """Copy a rank-one term into the next column of the staging pair."""
        if self._stage is None:
            k = self._stage_cols
            self._stage = (np.empty((self.m, k), order="F"), np.empty((self.n, k), order="F"))
        u, v = self._stage
        u[:, self._pending] = upd.u
        v[:, self._pending] = upd.v
        self._pending += 1

    def _push_block(self, upd: LinearUpdate) -> None:
        """Copy a column block into the next columns of the block buffer."""
        if self._blocks is None:
            self._blocks = np.empty((self.m, self._stage_cols), order="F")
        p, w = self._block_cols, upd.h.shape[1]
        self._blocks[:, p : p + w] = upd.h
        self._segments.append((p, upd.start, w))
        self._block_cols += w

    def _flush_pair(self) -> None:
        """Fold the pending U V^T into every sketch as one rank-p term."""
        if self._pending:
            u, v = self._stage
            self._fold_terms(u[:, : self._pending], v[:, : self._pending])
            self._pending = 0

    def _flush_blocks(self) -> None:
        """Fold the pending column blocks into every sketch with one product
        per sketch."""
        if self._segments:
            self._fold_terms(self._blocks[:, : self._block_cols], self._segments)
            self._segments, self._block_cols = [], 0

    def _flush(self) -> None:
        """Flush both staging buffers, the pair first."""
        self._flush_pair()
        self._flush_blocks()

    def _whole_rows(self, upd: LinearUpdate) -> LinearUpdate:
        """The update as a dense update or row block of rows not delivered before.

        A gram sketch is a sum of per-row outer products, so each row must
        arrive once and whole: in a dense update (rows [0, m)), a row block,
        or a rank-one term whose left vector has exactly one nonzero entry.
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
        elif upd.kind == "column_block":
            raise ValueError("row-wise sketching accepts only dense, row_block or rank_one updates")
        a, b = upd.start, upd.start + upd.h.shape[0]
        if self._rows_seen[a:b].any():
            raise ValueError("row-wise stream delivered some row twice")
        self._rows_seen[a:b] = True
        return upd

    def finalize(self) -> SketchSet:
        """End the pass: flush the staged terms and freeze the sketches.

        Finite updates can still sum past a sketch's range; a sketch this
        stream folded that is not finite then refuses the pass, by name.
        """
        if self._finalized:
            raise RuntimeError("stream already finalized")
        self._flush()
        self._stage = self._blocks = None
        self._finalized = True
        spec = PIPELINES[self.kind.value]
        for name, _, _ in self._steps:
            if not all_finite(self._sk[name]):
                precision = spec.precision(name, self.plan)
                hint = "; the all_double plan holds larger values" if precision is Precision.BINARY32 else ""
                raise ValueError(
                    f"{self.kind.value} sketch {name} ({precision.value}, {self.plan.value} plan) has "
                    f"non-finite entries: the updates overflowed it{hint}"
                )
        sk = {name: DenseMatrix(_frozen(arr)) for name, arr in self._sk.items()}
        tm = {name: _frozen(self._t[name], cols == "m") for name, (_, cols) in spec.test_matrices}
        return SketchSet(
            kind=self.kind, m=self.m, n=self.n, s=self.s, d=self.d, l=self.l, plan=self.plan,
            **{name: sk.get(name) for name in ("y", "w", "z", "x", "k")},
            **{name: tm.get(name) for name in ("omega", "psi", "phi", "gamma")},
            test_kind=self.test_kind, pass_count=1, base_seed=self.base_seed, trial=self.trial,
        )


def _check_dtype(kind: str, *payload: np.ndarray) -> None:
    for x in payload:
        if x.dtype.char not in "fd":  # binary32, binary64
            raise ValueError(f"{kind} update has {x.dtype} entries; only binary32 and binary64 are supported")


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

# The SPIM header, little-endian: magic "SPIM", version u16 (= 1), element
# code u8 (0 = binary64, 1 = binary32), a reserved byte, rows u64, cols u64;
# the row-major payload follows.
_SPIM = struct.Struct("<4sHBxQQ")
_SPIM_DTYPES = (np.dtype("<f8"), np.dtype("<f4"))


def write_spim(path, a, precision: Precision | None = None) -> None:
    """Write the 2-D array ``a`` (both dimensions >= 1) as a SPIM file, in
    ``precision`` if given, else binary32 for a binary32 array and binary64
    for any other (a non-float array is cast to binary64 first)."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"matrix dimensions must be >= 1, got {a.shape}")
    if a.dtype != np.float32:
        a = a.astype(np.float64, copy=False)
    if precision is not None:
        a = a.astype(precision.dtype, copy=False)
    code = 1 if a.dtype == np.float32 else 0
    with open(path, "wb") as fh:
        fh.write(_SPIM.pack(b"SPIM", 1, code, *a.shape))
        fh.write(np.ascontiguousarray(a, dtype=_SPIM_DTYPES[code]).tobytes())


def _spim_header(head: bytes, size: int, path) -> tuple[int, int, np.dtype]:
    """(rows, cols, element dtype) from a SPIM file's first bytes and its size."""
    if len(head) < _SPIM.size or head[:4] != b"SPIM":
        raise ValueError(f"{path}: not a SPIM file (bad magic or truncated header)")
    _, version, elem, rows, cols = _SPIM.unpack(head)
    if version != 1:
        raise ValueError(f"{path}: unsupported SPIM version {version}")
    if elem not in (0, 1):
        raise ValueError(f"{path}: unknown element code {elem}")
    if rows < 1 or cols < 1:
        raise ValueError(f"{path}: invalid dimensions {rows}x{cols}")
    if rows * cols > (1 << 48):
        raise ValueError(f"{path}: dimension overflow ({rows}x{cols})")
    dtype = _SPIM_DTYPES[elem]
    expected = _SPIM.size + rows * cols * dtype.itemsize
    if size != expected:
        raise ValueError(
            f"{path}: header says {rows}x{cols} ({expected} bytes) but file has {size} bytes"
        )
    return rows, cols, dtype


def _row_pieces(path) -> Iterator:
    """Yield the shape (rows, cols) of a SPIM or MatrixMarket file, then its
    rows in consecutive pieces of :data:`_PIECE_CHUNKS` row chunks, each
    checked for finiteness (a refusal names the piece's rows).

    A SPIM header is read once and the payload is read, in the file's
    precision, one piece at a time into the same buffer, so a piece is valid
    only until the next one.  A MatrixMarket file's size is read from its
    header, then it is loaded once as binary64 (a complex one is refused) and
    its pieces are slices of it.  Close the generator to close the file early.
    """
    with open(path, "rb") as fh:
        head = fh.read(_SPIM.size)
        if len(head) == 0:
            raise ValueError(f"{path}: empty file")
        if head[:4] == b"SPIM":
            rows, cols, dtype = _spim_header(head, os.fstat(fh.fileno()).st_size, path)
            full = None
        elif head.startswith(b"%%MatrixMarket"):
            import scipy.io

            # By name: mminfo aborts on an open file, mmread on an array of no rows.
            rows, cols = scipy.io.mminfo(path)[:2]
            if rows < 1 or cols < 1:
                raise ValueError(f"{path}: invalid dimensions {rows}x{cols}")
            fh.seek(0)
            full = scipy.io.mmread(fh)
            if np.iscomplexobj(full):
                raise ValueError(f"{path}: complex entries are not supported")
            full = np.asarray(full.toarray() if scipy.sparse.issparse(full) else full, dtype=np.float64)
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
