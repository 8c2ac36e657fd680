"""Sketch-power iteration: power the rangefinder using only sketches.

Given the rangefinder sketch Y (m x s) and a wider sketch Z (m x l), the
plain iteration returns ``(Z Z^T)^q Y``, evaluated left-to-right as
``Z (Z^T Z)^{q-1} Z^T Y`` so no m x m matrix is ever formed.  The
stabilized form (:func:`spi_stabilized`) re-orthonormalizes the small l x s
factor each iteration and spans the same column space whenever Z and Y have
full column rank.  The reduced-storage variant never materializes Y at
all: with a small right factor O (l x s) it returns ``Z (Z^T Z)^q O``, which
equals the plain iteration applied to ``Y = Z O``.

Z and Y may be binary32, as the mixed plan stores them.  They are read in
row chunks of about ``_CHUNK`` entries, each upcast into one reused binary64
buffer: the small products Z^T Y, Z^T (Z T) and the Gram matrix Z^T Z are
summed in binary64 over the chunks, and Z T is written chunk by chunk into
the m x s result.  So no m x l binary64 copy of a tall Z is made.  A Z or Y
that fits in one chunk is upcast once, and the products are the ones the
whole upcast would take.

The m x s result Y-hat is Fortran-ordered, as LAPACK takes it: the finishers
own it and factor it in place (:func:`~sketchpower.matrix_core.qr_economy`
with ``overwrite``), so its QR makes no copy of it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix_core import _CHUNK, _integer, _row_chunks, qr_economy

__all__ = ["SpiParams", "SpiOutput", "spi_plain", "spi_stabilized", "spi_variant"]


@dataclass(frozen=True)
class SpiParams:
    """The number q of sketch-power steps, the iteration's one setting.

    q = 0 uses the rangefinder Y as sketched.  ``tyuc17_spi`` takes
    ``Z Z^T Y`` (:func:`spi_plain`) at q = 1 and re-orthonormalizes at each
    step (:func:`spi_stabilized`) at q >= 2; the storage-reduced kinds take
    ``Z (Z^T Z)^q O`` at every q.  q is an integer of at least 0: anything
    ``operator.index`` takes but a bool, NumPy integers included.
    """

    q: int = 1

    def __post_init__(self):
        if _integer(self.q, "power iteration count q") < 0:
            raise ValueError(f"power iteration count must be >= 0, got {self.q}")


@dataclass
class SpiOutput:
    y_hat: np.ndarray
    rank_collapse: bool = False


def _as_array(x) -> np.ndarray:
    """x as the iterations read it: a binary32 array of more than ``_CHUNK``
    entries as stored, to be upcast one row chunk at a time on each pass;
    anything else in binary64, upcast once for every pass."""
    x = np.asarray(x)
    return x if x.dtype == np.float32 and x.size > _CHUNK else x.astype(np.float64, copy=False)


def _chunk_rows(z: np.ndarray) -> int:
    return max(1, _CHUNK // z.shape[1])


def _chunk_sum(f, z: np.ndarray, *rest: np.ndarray) -> np.ndarray:
    """The sum of f(C, ...) over the row chunks C of Z, each passed with the
    same rows of every array in ``rest``, in binary64."""
    step = _chunk_rows(z)
    total = None
    for chunks in zip(*(_row_chunks((a,), step) for a in (z, *rest))):
        inc = f(*(c for _, c, _ in chunks))
        if total is None:
            total = inc
        else:
            total += inc
    return total


def _times(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Z t (m x s, binary64, Fortran-ordered), one row chunk of Z at a time.

    Each chunk's product is taken in C order and copied in: BLAS may sum the
    entries of a product written in Fortran order differently (it does at
    l = 40 with OpenBLAS), and these are the bits of a C-ordered Z t.
    """
    out = np.empty((z.shape[0], t.shape[1]), order="F")
    for i, c, _ in _row_chunks((z,), _chunk_rows(z)):
        out[i : i + c.shape[0]] = c @ t
    return out


def _check_shapes(z: np.ndarray, y: np.ndarray) -> None:
    if z.shape[0] != y.shape[0]:
        raise ValueError(f"power sketch and rangefinder must have the same rows, got {z.shape[0]} and {y.shape[0]}")
    if z.shape[1] <= y.shape[1]:
        raise ValueError(
            f"power sketch must be wider than the rangefinder (l > s), got l={z.shape[1]}, s={y.shape[1]}"
        )


def spi_plain(z, y, q: int) -> np.ndarray:
    """``Z (Z^T Z)^{q-1} Z^T Y``, i.e. ``(Z Z^T)^q Y`` without the m x m product.

    Evaluation order is Z^T @ (current), then Z @ (result): per-iteration cost
    O(m l s); beside the m x s result only l x s factors and one row chunk
    are held.
    """
    z, y, q = _as_array(z), _as_array(y), _integer(q, "power iteration count q")
    if q < 1:
        raise ValueError(f"plain iteration requires q >= 1, got {q}")
    _check_shapes(z, y)
    t = _chunk_sum(lambda c, cy: c.T @ cy, z, y)  # l x s
    for _ in range(q - 1):
        t = _chunk_sum(lambda c: c.T @ (c @ t), z)
    return _times(z, t)


def spi_stabilized(z, y, q: int) -> SpiOutput:
    """Re-orthonormalized iteration: repeat q times { X = QR(Z^T Y-hat).Q; Y-hat = Z X }.

    Spans the same column space as :func:`spi_plain` for full-column-rank Z
    and Y.  A rank collapse of Z^T Y-hat is flagged and the iteration
    continues with the rank-revealing Q of the deficient factor.  Only the
    last Y-hat is formed; the ones between are applied chunk by chunk.
    """
    z, y, q = _as_array(z), _as_array(y), _integer(q, "power iteration count q")
    if q < 1:
        raise ValueError(f"stabilized iteration requires q >= 1, got {q}")
    _check_shapes(z, y)
    collapse = False
    t = _chunk_sum(lambda c, cy: c.T @ cy, z, y)
    for i in range(q):
        qres = qr_economy(t)
        collapse = collapse or qres.rank_deficient
        if i < q - 1:
            t = _chunk_sum(lambda c: c.T @ (c @ qres.q), z)
    return SpiOutput(y_hat=_times(z, qres.q), rank_collapse=collapse)


def spi_variant(z, omega_small, q: int) -> np.ndarray:
    """``Z (Z^T Z)^q O`` with the Gram matrix cached; q = 0 gives Z @ O.

    Identical (up to floating error) to ``spi_plain(Z, Z @ O, q)``.  The
    storage contract of the variant requires s <= l/2 so the upcast of the
    result can reuse Z's space; a wider O raises ValueError.
    """
    z = _as_array(z)
    o = np.asarray(omega_small, dtype=np.float64)
    q = _integer(q, "power iteration count q")
    if q < 0:
        raise ValueError(f"power count must be >= 0, got {q}")
    l = z.shape[1]
    if o.shape[0] != l:
        raise ValueError(f"right factor must have {l} rows, got {o.shape[0]}")
    s = o.shape[1]
    if s > l // 2:
        raise ValueError(f"variant storage contract requires s <= l/2 (got s={s}, l={l})")
    t = o
    if q > 0:
        gram = _chunk_sum(lambda c: c.T @ c, z)  # the only cached l x l product
        for _ in range(q):
            t = gram @ t
    return _times(z, t)
