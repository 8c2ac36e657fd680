"""Synthetic data matrices with exactly prescribed spectra.

Three families, all built as ``U diag(sigma) V^T`` with random orthonormal
factors (thin QR of a standard Gaussian matrix):

* low-rank plus noise: sigma = (1, ..., 1) with ``plateau`` ones, plus a dense
  Gaussian perturbation scaled by ``snr * plateau / n^2``;
* polynomial decay: sigma = (1 x plateau, 2^-alpha, 3^-alpha, ...);
* exponential decay: sigma = (1 x plateau, e^-alpha, e^-2 alpha, ...).

Generators are pure functions of their :class:`SyntheticSpec`; the same spec
always yields the same matrix.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as la

from .matrix_core import DenseMatrix, Precision, _concurrently, _one_blas_thread
from .test_matrices import SeedSpec, Stream, rng_for

__all__ = [
    "Family",
    "SyntheticSpec",
    "prescribed_spectrum",
    "adds_noise",
    "generate",
    "write_spim",
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
        if self.plateau > min(self.m, self.n):
            raise ValueError("plateau rank exceeds matrix dimensions")

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


def adds_noise(spec: SyntheticSpec) -> bool:
    """Whether generate(spec) adds noise on top of the prescribed spectrum."""
    return spec.family is Family.LOWRANK_NOISE and spec.snr > 0.0


def _orthonormal(rows: int, cols: int, seed: SeedSpec) -> np.ndarray:
    # Factored in place, without the input copy and work buffers
    # np.linalg.qr keeps alive: two of those at once raised the peak memory
    # of a 1000x1000 trial by a quarter.  R is dropped before Q is copied
    # back to C order, since an F-ordered factor changes the last bits of
    # (u * sv) @ v.T.
    g = np.asfortranarray(rng_for(seed).standard_normal((rows, cols)))
    q = la.qr(g, overwrite_a=True, mode="economic", check_finite=False)[0]
    return np.ascontiguousarray(q)


def _factors(spec: SyntheticSpec):
    k = spec.plateau if spec.family is Family.LOWRANK_NOISE else min(spec.m, spec.n)
    u, v = _concurrently([
        lambda: _orthonormal(spec.m, k, SeedSpec(spec.base_seed, Stream.DATA_LEFT, spec.trial)),
        lambda: _orthonormal(spec.n, k, SeedSpec(spec.base_seed, Stream.DATA_RIGHT, spec.trial)),
    ])
    sv = prescribed_spectrum(spec)[:k]
    return u, sv, v


@_one_blas_thread()
def generate(spec: SyntheticSpec) -> DenseMatrix:
    """The data matrix of ``spec``; U and V are built concurrently when two
    threads pay off (:func:`~sketchpower.matrix_core._concurrently`)."""
    u, sv, v = _factors(spec)
    a = (u * sv) @ v.T
    if adds_noise(spec):
        noise = rng_for(SeedSpec(spec.base_seed, Stream.DATA_NOISE, spec.trial))
        a += (spec.snr * spec.plateau / spec.n**2) * noise.standard_normal((spec.m, spec.n))
    return DenseMatrix.from_array(a, check_finite=False)


# Raw binary export: magic "SPIM", version u16 LE, element code u8
# (0 = binary64, 1 = binary32), reserved u8, rows u64 LE, cols u64 LE,
# payload row-major.
SPIM_MAGIC = b"SPIM"
SPIM_VERSION = 1


def write_spim(path, matrix: DenseMatrix, precision: Precision | None = None) -> None:
    m = matrix if precision is None else matrix.to_precision(precision)
    code = 1 if m.precision is Precision.BINARY32 else 0
    header = SPIM_MAGIC + np.array([SPIM_VERSION], dtype="<u2").tobytes()
    header += bytes([code, 0])
    header += np.array([m.rows, m.cols], dtype="<u8").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        dt = np.dtype("<f4" if code == 1 else "<f8")
        fh.write(np.ascontiguousarray(m.data, dtype=dt).tobytes())
