"""The three numerical kernels everything else uses, and the record of a sketch.

Data matrices, files and test matrices are plain ndarrays (a sparse test
matrix a CSC array); only a finalized sketch is wrapped, in a
:class:`DenseMatrix` record of its read-only array.  The kernels (economy
QR; truncated SVD, through a QR first for a matrix at least twice as long as
it is wide; least squares by a QR and one triangular solve, or by the
pseudoinverse when ill conditioned) run exclusively in binary64; binary32
exists only as a *storage* precision.  A tall binary32 matrix, held whole or
read in pieces, is taken one row chunk at a time (:func:`_row_chunks`), each
chunk upcast into a reused binary64 buffer, so no binary64 copy of the whole
matrix is made; small matrices are upcast whole (:func:`as_f64`).
:func:`qr_economy` factors a matrix its caller hands over in place.  Rank
deficiency and ill conditioning are reported through flags on the result
objects, never as exceptions: the caller decides what to do.

The library runs BLAS on one thread and uses a second CPU at its own
level.  Its entry points (data generation, the stream folds, the finishers,
the evaluators, the oracle sweep and the CLI) hold :func:`_one_blas_thread`,
which sets each loaded OpenBLAS build to one thread and restores the
previous counts when the last holder leaves; under any other BLAS it does
nothing ("unmanaged").  Inside, :func:`_concurrently` runs independent calls
on the caller's thread and one helper thread (data generation's two factors,
then the two column blocks of its product, split at a multiple of 8 and
written into one output, which has the same bits on one thread or two), and
:func:`_in_two_processes` shares calls that run public functions or spend
most of their time in the interpreter (the CLI's trials, the oracle sweep's
grid points) out between the process and a forked copy of it, when
:data:`_TWO_CPUS` allows it: a spare CPU and a managed BLAS, held at one
thread.  A one-thread BLAS gives each call the bits it has alone, so
results do not depend on the thread or process that ran them, nor on the
thread count the environment sets.  The helper thread runs only private
code, NumPy/SciPy kernels and the package's leaf helpers (the norms and
exponents here, the seeds of ``test_matrices``): no public function that
calls others is open on two threads at once, so a profiler that wraps them
sees nested calls.
"""
from __future__ import annotations

import contextlib
import ctypes
import enum
import glob
import math
import os
import pickle
import signal
import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np
import scipy
import scipy.linalg as la

__all__ = [
    "Precision",
    "DenseMatrix",
    "QrResult",
    "TruncatedSvd",
    "LstsqResult",
    "qr_economy",
    "svd_truncated",
    "lstsq",
    "as_f64",
    "all_finite",
    "binary_exponent",
    "fro_norm",
]

# Rank-deficiency / conditioning thresholds of the kernel contracts.
QR_RANK_TOL = 1e-14
LSTSQ_COND_TOL = 1e-12

# Entries of a row chunk: 2 MiB of binary64, which stays in a 2 MiB-per-core
# L2 cache while every product that reads the chunk runs.
_CHUNK = 1 << 18

_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

_T = TypeVar("_T")


def _openblas_builds() -> list[tuple[Callable[[], int], Callable[[int], None]]]:
    """(get, set) thread-count functions of the OpenBLAS builds numpy and
    SciPy load: numpy's 64-bit-integer build in ``numpy.libs`` and SciPy's
    in ``scipy.libs``.  Empty under any other BLAS."""
    builds = []
    for pkg, pattern, suffix in ((np, "libscipy_openblas64_-*.so", "64_"), (scipy, "libscipy_openblas-*.so", "")):
        libs = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)), f"{pkg.__name__}.libs")
        for path in glob.glob(os.path.join(libs, pattern)):
            try:  # the library numpy or SciPy loaded, never a second copy
                lib = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            builds.append((get, put))
    return builds


_BLAS = _openblas_builds()
_pin_lock = threading.Lock()
_pin_holders = 0
_pin_saved: list[int] = []


@contextlib.contextmanager
def _one_blas_thread():
    """Hold every managed OpenBLAS build at one thread; also a decorator.

    Holders are counted, so calls on several threads may enter and leave in
    any order: the first holder sets the counts to one and the last restores
    the counts the first found, also when the call raised.
    """
    global _pin_holders, _pin_saved
    with _pin_lock:
        if _pin_holders == 0:
            _pin_saved = [get() for get, _ in _BLAS]
            for (_, put), n in zip(_BLAS, _pin_saved):
                if n != 1:
                    put(1)
        _pin_holders += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_holders -= 1
            if _pin_holders == 0:
                for (_, put), n in zip(_BLAS, _pin_saved):
                    if n != 1:
                        put(n)


# Whether a second thread or process of library work can pay off: only with
# a spare CPU and a managed BLAS, which every caller of the two helpers below
# holds at one thread.  A multi-threaded BLAS already keeps every CPU busy on
# one product, and two at once run slower; under an unmanaged BLAS the count
# is unknown.
_TWO_CPUS = _CPUS >= 2 and bool(_BLAS)


def _concurrently(calls: Sequence[Callable[[], _T]]) -> list[_T]:
    """The results of independent calls, in input order.

    If :data:`_TWO_CPUS` allows it, the caller's thread and one helper
    thread take the calls one at a time in input order; otherwise the caller
    makes them one after another.  If calls raise, the exception of the
    first of them in input order is raised, once both threads are done.
    """
    if len(calls) < 2 or not _TWO_CPUS:
        return [call() for call in calls]
    results: list = [None] * len(calls)
    errors: dict[int, BaseException] = {}
    todo = iter(range(len(calls)))
    lock = threading.Lock()

    def drain():
        while not errors:
            with lock:
                i = next(todo, None)
            if i is None:
                return
            try:
                results[i] = calls[i]()
            except BaseException as exc:  # noqa: BLE001 - re-raised by the caller
                errors[i] = exc

    helper = threading.Thread(target=drain, daemon=True)
    helper.start()
    drain()
    helper.join()
    if errors:
        raise errors[min(errors)]
    return results


def _in_two_processes(calls: Sequence[Callable[[], _T]]) -> list[_T]:
    """The results of independent calls, in input order, made by this
    process and a forked copy of it.

    For calls that spend most of their time in the interpreter, which two
    threads would take in turns under the GIL, and for calls that run public
    functions, which the helper thread of :func:`_concurrently` must not
    (whole trials of the CLI).  If :data:`_TWO_CPUS`
    allows it, the platform forks and no other Python thread runs (a lock
    another thread holds would stay locked in the child), the child makes
    the calls at odd positions and sends their pickled results back through
    a pipe while this process makes the others; otherwise this process makes
    them all.  The calls must return picklable values, and whatever else the
    child's calls change (caches, counters, a profiler's records) is lost
    with it.  Calls the child could not finish (it raised or died) are made
    here afterwards, so the exception raised is this process's, the first in
    input order.
    """
    if len(calls) < 2 or not _TWO_CPUS or not hasattr(os, "fork") or threading.active_count() > 1:
        return [call() for call in calls]
    theirs = range(1, len(calls), 2)
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: never returns
        status = 1
        try:
            os.close(read_fd)
            payload = pickle.dumps([calls[i]() for i in theirs], protocol=pickle.HIGHEST_PROTOCOL)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    results: list = [None] * len(calls)
    errors: dict[int, Exception] = {}

    def make(i):
        try:
            results[i] = calls[i]()
        except Exception as exc:  # noqa: BLE001 - the first in input order is raised below
            errors[i] = exc

    with os.fdopen(read_fd, "rb") as pipe:
        try:
            for i in range(0, len(calls), 2):
                make(i)
            payload = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = os.waitpid(pid, 0)[1]
    if os.waitstatus_to_exitcode(status) == 0:
        for i, result in zip(theirs, pickle.loads(payload)):
            results[i] = result
    else:
        for i in theirs:
            make(i)
    if errors:
        raise errors[min(errors)]
    return results


class Precision(enum.Enum):
    """Storage precision of a matrix; all arithmetic happens in binary64."""

    BINARY32 = "binary32"
    BINARY64 = "binary64"

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.float32 if self is Precision.BINARY32 else np.float64)

    @property
    def words_per_entry(self) -> float:
        """Storage cost of one entry in double-precision words."""
        return 0.5 if self is Precision.BINARY32 else 1.0


@dataclass(frozen=True)
class DenseMatrix:
    """A finalized sketch of a :class:`~sketchpower.stream_ingest.SketchSet`:
    its read-only, C-ordered binary64 or binary32 array ``data``.

    Kept only because ``perfbench/tracer.py`` reads ``.data.size`` and
    ``.data.dtype`` of the five sketch fields; everything else is an ndarray.
    """

    data: np.ndarray = field(repr=False)


def all_finite(x: np.ndarray) -> bool:
    """Whether every entry of x is finite, with no temporary larger than
    ``_CHUNK`` bytes.

    An array of more than ``_CHUNK`` entries is checked by its min and max,
    which propagate a NaN and show an infinity and allocate nothing; a
    smaller one by ``np.isfinite``, which is faster there (a rank-one term's
    vectors, say).
    """
    if x.size <= _CHUNK:
        return bool(np.isfinite(x).all())
    return bool(np.isfinite(x.min()) and np.isfinite(x.max()))


def _row_chunks(
    pieces: Iterable[np.ndarray], step: int, transpose: bool = False
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """(offset, C, C^T) for each chunk C of ``step`` rows of a matrix given as
    consecutive row pieces, in binary64; a matrix held whole is one piece.

    Every piece but the last spans whole chunks, so the chunks and their
    offsets are the ones of the whole matrix.  A binary32 chunk is upcast
    into a buffer, and C^T, if ``transpose``, is copied into another; both
    are sized at the first piece and reused for all of them, so a chunk is
    valid until the next one.  Otherwise C is a view of its piece and C^T a
    view of C.
    """
    size = offset = 0
    for h in pieces:
        n = h.shape[1]
        if not size:
            size = min(step, h.shape[0]) * n
            up = np.empty(size) if h.dtype != np.float64 else None
            tr = np.empty(size) if transpose else None
        for i in range(0, h.shape[0], step):
            c = h[i : i + step]
            r = c.shape[0]
            if up is not None:
                c, src = up[: r * n].reshape(r, n), c
                c[...] = src
            ct = c.T
            if tr is not None:
                ct = tr[: r * n].reshape(n, r)
                ct[...] = c.T
            yield offset + i, c, ct
        offset += h.shape[0]


def as_f64(m) -> np.ndarray:
    """An array as binary64, without a copy if it is binary64 already."""
    a = np.asarray(m)
    return a if a.dtype == np.float64 else a.astype(np.float64)


def binary_exponent(x: np.ndarray) -> int:
    """e with max|x| in [2^(e-1), 2^e); 0 for empty, zero or non-finite x.

    Scaling by 2^-e is exact, so norms taken of the scaled array and scaled
    back keep their bits at ordinary scales and neither under- nor overflow.
    """
    return math.frexp(float(max(-x.min(), x.max())))[1] if x.size else 0


def fro_norm(x: np.ndarray) -> float:
    """``np.linalg.norm(x)`` without under- or overflow (and without its warning).

    Between 2^-400 and 2^400 the plain norm has the bits of the scaled one
    (squares that underflow there are far below its last bit), so the
    scaled copy is made only outside that range.
    """
    with np.errstate(over="ignore", under="ignore"):
        f = float(np.linalg.norm(x))
    if 2.0**-400 <= f <= 2.0**400:
        return f
    e = binary_exponent(x)
    return math.ldexp(float(np.linalg.norm(np.ldexp(x, -e))), e)


@dataclass
class QrResult:
    """Economy QR factors plus a rank-deficiency flag (never a failure)."""

    q: np.ndarray
    r: np.ndarray
    rank_deficient: bool


@dataclass
class TruncatedSvd:
    """Leading singular triplets: u (m x r), s (r,) non-increasing, v (n x r)."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.s) @ self.v.T


@dataclass
class LstsqResult:
    x: np.ndarray
    ill_conditioned: bool


def _require_f64(m, name: str) -> np.ndarray:
    a = np.asarray(m)
    if a.dtype != np.float64:
        raise TypeError(f"{name} must be binary64; upcast at the storage boundary first")
    return a


def qr_economy(m, overwrite: bool = False) -> QrResult:
    """Thin QR of a tall matrix.

    Q has orthonormal columns spanning range(M); R is upper triangular with
    Q @ R == M to working precision.  A diagonal entry of R below
    ``QR_RANK_TOL * ||M||_F`` (taken without under- or overflow, so at any
    scale) raises the ``rank_deficient`` flag.

    M is left as it is unless ``overwrite``: then the caller hands over a
    Fortran-ordered M it owns, LAPACK factors it in place and Q takes its
    storage, so no copy of M is made; M must not be read again.
    """
    a = _require_f64(m, "M")
    if a.shape[0] < a.shape[1]:
        raise ValueError(f"qr_economy expects rows >= cols, got {a.shape}")
    scale = fro_norm(a)  # before M is overwritten
    q, r = la.qr(a, mode="economic", overwrite_a=overwrite, check_finite=False)
    deficient = bool(np.min(np.abs(np.diag(r))) < QR_RANK_TOL * scale) if scale > 0 else True
    return QrResult(q=q, r=r, rank_deficient=deficient)


def svd_truncated(m, r: int) -> TruncatedSvd:
    """The r leading singular triplets of M; the best rank-r approximation.

    A k x n matrix with n >= 2k (the oblique finishers' B) is first reduced
    by a thin QR of its long side, M^T = Q R, and the SVD is taken of the
    k x k factor: R = X S Y^T gives u = Y and v = Q X, in O(k^2 n) flops
    (likewise M = Q R for a tall M).  Near-square matrices (the two-sided
    core) go to the SVD directly.
    Ties ``sigma_r == sigma_{r+1}`` return one valid subspace; callers that
    compare subspaces must use gap-separated spectra.
    """
    a = _require_f64(m, "M")
    if r < 1:
        raise ValueError(f"truncation rank must be >= 1, got {r}")
    if r > min(a.shape):
        raise ValueError(f"truncation rank {r} exceeds min(shape)={min(a.shape)}")
    if max(a.shape) < 2 * min(a.shape):
        u, s, vt = la.svd(a, full_matrices=False, check_finite=False)
        return TruncatedSvd(u=u[:, :r], s=s[:r], v=vt[:r].T)
    wide = a.shape[0] < a.shape[1]
    q, f = la.qr(a.T if wide else a, mode="economic", check_finite=False)
    x, s, yt = la.svd(f, check_finite=False)
    long_side, short_side = q @ x[:, :r], yt[:r].T
    u, v = (short_side, long_side) if wide else (long_side, short_side)
    return TruncatedSvd(u=u, s=s[:r], v=v)


def lstsq(c, rhs) -> LstsqResult:
    """Minimize ||C X - Rhs||_F; equals pinv(C) @ Rhs.

    C (d x s) is factored by a thin QR, C = Q R, and the singular values of
    the s x s R, which are C's, give the flag: ``ill_conditioned`` is set if
    the smallest is below ``LSTSQ_COND_TOL`` times the largest, or C is zero.
    Otherwise X solves R X = Q^T Rhs by one triangular solve, in O(s^2 n)
    flops for n right-hand sides.  A flagged system gets the minimum-norm
    solution of ``np.linalg.lstsq`` at ``rcond=LSTSQ_COND_TOL``.
    """
    a = _require_f64(c, "C")
    b = _require_f64(rhs, "Rhs")
    if a.shape[0] < a.shape[1]:
        raise ValueError(f"lstsq expects rows >= cols, got {a.shape}")
    q, r = la.qr(a, mode="economic", check_finite=False)
    sv = la.svdvals(r, check_finite=False)
    smax = sv[0] if sv.size else 0.0
    if smax == 0.0 or sv[-1] < LSTSQ_COND_TOL * smax:
        return LstsqResult(x=np.linalg.lstsq(a, b, rcond=LSTSQ_COND_TOL)[0], ill_conditioned=True)
    return LstsqResult(x=la.solve_triangular(r, q.T @ b, check_finite=False), ill_conditioned=False)
