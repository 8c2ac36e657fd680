"""Sketch-power iteration: power the rangefinder using only sketches.

Given the rangefinder sketch Y (m x s) and a wider sketch Z (m x l), the
plain iteration returns ``(Z Z^T)^q Y``, evaluated left-to-right as
``Z (Z^T Z)^{q-1} Z^T Y`` so no m x m matrix is ever formed.  The stabilized
form re-orthonormalizes the small l x s factor each iteration and spans the
same column space whenever Z and Y have full column rank.  The reduced-storage
variant never materializes Y at all: with a small right factor O (l x s) it
returns ``Z (Z^T Z)^q O``, which equals the plain iteration applied to
``Y = Z O``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix_core import qr_economy

__all__ = ["SpiParams", "SpiOutput", "spi_plain", "spi_stabilized", "spi_variant"]


@dataclass(frozen=True)
class SpiParams:
    """Number of power iterations and the stabilization switch.

    q = 0 means pass-through (the rangefinder is used as sketched).  When
    ``stabilize`` is None the default applies: re-orthonormalize for q >= 2,
    plain for q = 1 (a single iteration is numerically benign).
    """

    q: int = 1
    stabilize: bool | None = None

    def __post_init__(self):
        if self.q < 0:
            raise ValueError(f"power iteration count must be >= 0, got {self.q}")

    @property
    def use_stabilized(self) -> bool:
        return self.q >= 2 if self.stabilize is None else self.stabilize


@dataclass
class SpiOutput:
    y_hat: np.ndarray
    rank_collapse: bool = False


def _check_wider(z: np.ndarray, y_cols: int) -> None:
    if z.shape[1] <= y_cols:
        raise ValueError(
            f"power sketch must be wider than the rangefinder (l > s), got l={z.shape[1]}, s={y_cols}"
        )


def spi_plain(z, y, q: int) -> np.ndarray:
    """``Z (Z^T Z)^{q-1} Z^T Y``, i.e. ``(Z Z^T)^q Y`` without the m x m product.

    Evaluation order is Z^T @ (current), then Z @ (result): per-iteration cost
    O(m l s), intermediates never larger than max(m, l) x max(l, s).
    """
    z = np.asarray(z, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if q < 1:
        raise ValueError(f"plain iteration requires q >= 1, got {q}")
    _check_wider(z, y.shape[1])
    t = z.T @ y                     # l x s
    for _ in range(q - 1):
        t = z.T @ (z @ t)
    return z @ t


def spi_stabilized(z, y, q: int) -> SpiOutput:
    """Re-orthonormalized iteration: repeat q times { X = QR(Z^T Y-hat).Q; Y-hat = Z X }.

    Spans the same column space as :func:`spi_plain` for full-column-rank Z
    and Y.  A rank collapse of Z^T Y-hat is flagged and the iteration
    continues with the rank-revealing Q of the deficient factor.
    """
    z = np.asarray(z, dtype=np.float64)
    y_hat = np.asarray(y, dtype=np.float64)
    if q < 1:
        raise ValueError(f"stabilized iteration requires q >= 1, got {q}")
    _check_wider(z, y_hat.shape[1])
    collapse = False
    for _ in range(q):
        t = z.T @ y_hat
        qres = qr_economy(t)
        collapse = collapse or qres.rank_deficient
        y_hat = z @ qres.q
    return SpiOutput(y_hat=y_hat, rank_collapse=collapse)


def spi_variant(z, omega_small, q: int) -> np.ndarray:
    """``Z (Z^T Z)^q O`` with the Gram matrix cached; q = 0 gives Z @ O.

    Identical (up to floating error) to ``spi_plain(Z, Z @ O, q)``.  The
    storage contract of the variant requires s <= l/2 so the upcast of the
    result can reuse Z's space; a wider O raises ValueError.
    """
    z = np.asarray(z, dtype=np.float64)
    o = np.asarray(omega_small, dtype=np.float64)
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
        gram = z.T @ z              # the only cached l x l product
        for _ in range(q):
            t = gram @ t
    return z @ t
