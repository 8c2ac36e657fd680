"""Dense-matrix contract and the three numerical kernels everything else uses.

The kernels (economy QR, truncated SVD, least-squares via pseudoinverse) run
exclusively in binary64; binary32 exists only as a *storage* precision.  A
tall binary32 matrix, held whole or read in pieces, is taken one row chunk
at a time (:func:`_row_chunks`), each chunk upcast into a reused binary64
buffer, so no binary64 copy of the whole matrix is made; small matrices are
upcast whole.  :func:`qr_economy` factors a matrix its caller hands over in
place.  Rank deficiency and ill conditioning are reported through flags on
the result objects, never as exceptions: the caller decides what to do.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np
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


def _precision_of(dtype) -> Precision:
    if np.dtype(dtype) == np.float32:
        return Precision.BINARY32
    if np.dtype(dtype) == np.float64:
        return Precision.BINARY64
    raise TypeError(f"unsupported element dtype {dtype!r}")


@dataclass(frozen=True)
class DenseMatrix:
    """A real matrix with a declared element precision, stored row-major.

    Carrier type for data matrices, sketches and factors.  Entries must be
    finite; construction through :meth:`from_array` enforces this.
    """

    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = self.data
        if a.ndim != 2:
            raise ValueError(f"expected a 2-d array, got ndim={a.ndim}")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError(f"matrix dimensions must be >= 1, got {a.shape}")
        _precision_of(a.dtype)
        if not a.flags["C_CONTIGUOUS"]:
            object.__setattr__(self, "data", np.ascontiguousarray(a))

    @classmethod
    def from_array(cls, a, precision: Precision | None = None, check_finite: bool = True) -> "DenseMatrix":
        a = np.asarray(a)
        dtype = precision.dtype if precision is not None else (
            a.dtype if a.dtype in (np.float32, np.float64) else np.float64
        )
        a = np.ascontiguousarray(a, dtype=dtype)
        if check_finite and not all_finite(a):
            raise ValueError("matrix contains non-finite entries")
        return cls(a)

    @classmethod
    def zeros(cls, rows: int, cols: int, precision: Precision = Precision.BINARY64) -> "DenseMatrix":
        return cls(np.zeros((rows, cols), dtype=precision.dtype))

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def precision(self) -> Precision:
        return _precision_of(self.data.dtype)

    @property
    def words(self) -> float:
        """Storage cost in double-precision words."""
        return self.rows * self.cols * self.precision.words_per_entry

    def to_precision(self, precision: Precision) -> "DenseMatrix":
        if precision is self.precision:
            return self
        return DenseMatrix(self.data.astype(precision.dtype))

    def as_f64(self) -> np.ndarray:
        """The payload upcast to binary64 (no copy if already binary64)."""
        return self.data if self.data.dtype == np.float64 else self.data.astype(np.float64)


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
    """Accept a DenseMatrix or array and return a binary64 ndarray."""
    if isinstance(m, DenseMatrix):
        return m.as_f64()
    a = np.asarray(m)
    return a if a.dtype == np.float64 else a.astype(np.float64)


def binary_exponent(x: np.ndarray) -> int:
    """e with max|x| in [2^(e-1), 2^e); 0 for zero or non-finite x.

    Scaling by 2^-e is exact, so norms taken of the scaled array and scaled
    back keep their bits at ordinary scales and neither under- nor overflow.
    """
    return math.frexp(float(max(-x.min(), x.max())))[1]


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
    a = m.data if isinstance(m, DenseMatrix) else np.asarray(m)
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

    Ties ``sigma_r == sigma_{r+1}`` return one valid subspace; callers that
    compare subspaces must use gap-separated spectra.
    """
    a = _require_f64(m, "M")
    if r < 1:
        raise ValueError(f"truncation rank must be >= 1, got {r}")
    if r > min(a.shape):
        raise ValueError(f"truncation rank {r} exceeds min(shape)={min(a.shape)}")
    u, s, vt = la.svd(a, full_matrices=False, check_finite=False)
    return TruncatedSvd(u=u[:, :r], s=s[:r], v=vt[:r].T)


def lstsq(c, rhs) -> LstsqResult:
    """Minimize ||C X - Rhs||_F; equals pinv(C) @ Rhs.

    If the smallest singular value of C is below ``LSTSQ_COND_TOL`` times the
    largest, the minimum-norm solution is returned and ``ill_conditioned`` is
    set.
    """
    a = _require_f64(c, "C")
    b = _require_f64(rhs, "Rhs")
    if a.shape[0] < a.shape[1]:
        raise ValueError(f"lstsq expects rows >= cols, got {a.shape}")
    x, _, _, sv = np.linalg.lstsq(a, b, rcond=LSTSQ_COND_TOL)
    smax = sv[0] if sv.size else 0.0
    flag = bool(smax == 0.0 or sv[-1] < LSTSQ_COND_TOL * smax)
    return LstsqResult(x=x, ill_conditioned=flag)
