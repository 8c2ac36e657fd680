"""Synthetic data matrices with exactly prescribed spectra.

Three families, all built as ``U diag(sigma) V^T`` with random orthonormal
factors that have the law of LAPACK's thin-QR factor Q of a standard Gaussian
matrix.  Its Householder vectors are drawn directly (G. W. Stewart, "The
efficient generation of random orthogonal matrices with an application to
condition estimators", SIAM J. Numer. Anal. 17, 1980), so no QR
factorization is made:

* low-rank plus noise: sigma = (1, ..., 1) with ``plateau`` ones, plus a dense
  Gaussian perturbation scaled by ``snr * plateau / n^2``;
* polynomial decay: sigma = (1 x plateau, 2^-alpha, 3^-alpha, ...);
* exponential decay: sigma = (1 x plateau, e^-alpha, e^-2 alpha, ...).

Generators are pure functions of their :class:`SyntheticSpec`; the same spec
always yields the same matrix, a C-ordered binary64 ndarray.  A noise-free
matrix comes with the factors it was built from (:class:`Factors`), which
are its SVD to roundoff.  SPIM files are written by
:func:`sketchpower.stream_ingest.write_spim`.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dorgqr

from .matrix_core import _concurrently, _integer, _one_blas_thread
from .test_matrices import SeedSpec, Stream, rng_for

__all__ = [
    "Family",
    "SyntheticSpec",
    "Factors",
    "prescribed_spectrum",
    "generate",
]


class Family(enum.Enum):
    LOWRANK_NOISE = "lowrank"
    POLY_DECAY = "poly"
    EXP_DECAY = "exp"


@dataclass(frozen=True)
class SyntheticSpec:
    family: Family
    m: int = 1000
    n: int = 1000
    plateau: int = 10           # number of leading unit singular values
    alpha: float = 1.0          # decay rate for poly / exp families
    snr: float = 1e-2           # noise level gamma for the low-rank family
    base_seed: int = 0
    trial: int = 0

    def __post_init__(self):
        for name in ("m", "n", "plateau", "base_seed", "trial"):
            _integer(getattr(self, name), name)
        for name, value in (("m", self.m), ("n", self.n)):
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        if self.plateau < 0:
            raise ValueError(f"plateau must be non-negative, got {self.plateau}")
        if self.plateau > min(self.m, self.n):
            raise ValueError("plateau rank exceeds matrix dimensions")
        for name, value in (("alpha", self.alpha), ("snr (noise level gamma)", self.snr)):
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be a non-negative finite number, got {value!r}")

    def with_trial(self, trial: int) -> "SyntheticSpec":
        return replace(self, trial=trial)


def prescribed_spectrum(spec: SyntheticSpec) -> np.ndarray:
    """The exact singular values the generator installs (noise excluded)."""
    k = min(spec.m, spec.n)
    r = spec.plateau
    sv = np.ones(k)
    tail = np.arange(2, k - r + 2, dtype=np.float64)
    if spec.family is Family.POLY_DECAY:
        sv[r:] = tail ** (-spec.alpha)
    elif spec.family is Family.EXP_DECAY:
        sv[r:] = np.exp(-spec.alpha * (tail - 1.0))
    else:
        sv[r:] = 0.0
    return sv


def _orthonormal(rows: int, cols: int, seed: SeedSpec) -> np.ndarray:
    # Each Householder reflection of a Gaussian matrix leaves its trailing
    # columns independent Gaussians (Stewart 1980), so the reflectors of
    # LAPACK's QR are drawn, not computed: reflector j is made from g[j:, j]
    # as dlarfg makes it, and one orgqr forms Q.  g is the transpose of a
    # C-ordered draw, so orgqr works on it in place; Q is copied back to C
    # order, since an F-ordered factor changes the last bits of (u * sv) @ v.T.
    g = rng_for(seed).standard_normal((cols, rows)).T
    alpha = g.diagonal().copy()
    for j in range(cols):
        g[: j + 1, j] = 0.0
    xnorm = np.sqrt(np.einsum("ij,ij->j", g, g))
    beta = -np.copysign(np.hypot(alpha, xnorm), alpha)
    # A zero x (the last column of a square factor) gives H = I, tau = 0.
    live = xnorm > 0.0
    tau = np.where(live, (beta - alpha) / beta, 0.0)
    g /= np.where(live, alpha - beta, 1.0)
    # The wrapper's default lwork is unblocked and several times slower.
    lwork = int(dorgqr(g, tau, lwork=-1, overwrite_a=True)[1][0])
    return np.ascontiguousarray(dorgqr(g, tau, lwork=lwork, overwrite_a=True)[0])


@dataclass(frozen=True, eq=False)
class Factors:
    """``A = u diag(sv) v^T``: orthonormal u (m x k) and v (n x k), and sv the
    prescribed spectrum's first k values."""

    u: np.ndarray
    sv: np.ndarray
    v: np.ndarray


def _factors(spec: SyntheticSpec) -> Factors:
    k = spec.plateau if spec.family is Family.LOWRANK_NOISE else min(spec.m, spec.n)
    u, v = _concurrently([
        lambda: _orthonormal(spec.m, k, SeedSpec(spec.base_seed, Stream.DATA_LEFT, spec.trial)),
        lambda: _orthonormal(spec.n, k, SeedSpec(spec.base_seed, Stream.DATA_RIGHT, spec.trial)),
    ])
    return Factors(u, prescribed_spectrum(spec)[:k], v)


@_one_blas_thread()
def generate(spec: SyntheticSpec) -> tuple[np.ndarray, Optional[Factors]]:
    """The data matrix of ``spec``, a C-ordered binary64 array, and the
    :class:`Factors` it was built from, or None in their place when noise is
    added (they are then not A's).
    U and V are built concurrently when two threads pay off
    (:func:`~sketchpower.matrix_core._concurrently`), and so are the two
    column blocks of ``(U diag(sigma)) V^T``, split at a multiple of 8
    near n/2 and written into the one output array: A is defined as that
    two-block product, so it has the same bits on one thread or two.
    """
    factors = _factors(spec)
    us = factors.u * factors.sv
    # A split at a multiple of GEMM's register block leaves the entries' sums
    # in the order one product takes (Goto and van de Geijn, ACM TOMS 2008):
    # the bits of one product at the paper's shape, though not at every shape.
    a = np.empty((spec.m, spec.n))
    h = (spec.n // 2) // 8 * 8
    _concurrently([functools.partial(np.matmul, us, factors.v[lo:hi].T, out=a[:, lo:hi])
                   for lo, hi in ((0, h), (h, spec.n))])
    if spec.family is Family.LOWRANK_NOISE and spec.snr > 0.0:
        noise = rng_for(SeedSpec(spec.base_seed, Stream.DATA_NOISE, spec.trial))
        a += (spec.snr * spec.plateau / spec.n**2) * noise.standard_normal((spec.m, spec.n))
        factors = None
    return a, factors
