"""End-to-end one-pass low-rank approximation pipelines.

Every pipeline consumes a finalized single-pass :class:`SketchSet` and
returns rank-r factors plus the intermediates needed by the error-source
metrics; :func:`approximate` runs the one named after the sketch set's kind.
Sketches stored in binary32 are upcast to binary64 at the entry of the
factorization stage (the cast points of the precision model); all numerical
kernels run in binary64.  The power sketch Z and the rangefinder Y it powers
are handed to :mod:`spi` as stored, which reads them one upcast row chunk at
a time; a sparse test matrix with m columns is applied as the CSC array the
sketch set holds, one column of Q at a time.

The arrays of a sketch set are never written.  Every finisher factors Y-hat
in place: a powered Y-hat is the finisher's own Fortran-ordered array, an
unpowered one a Fortran-ordered binary64 copy of Y, and its QR overwrites it
with Q.  So beside its sketches a tall finish holds one m x s array (Y-hat,
then Q) and the m x r factor U.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg as la
import scipy.sparse

from .matrix_core import DenseMatrix, lstsq, qr_economy, svd_truncated
from .precision_model import PIPELINES, PrecisionPlan
from .spi import SpiParams, spi_plain, spi_stabilized, spi_variant
from .stream_ingest import PipelineKind, SketchSet
from .test_matrices import GAUSSIAN, SeedSpec, Stream, generate

__all__ = [
    "ApproxResult",
    "approximate",
    "tyuc17",
    "tyuc17_spi",
    "tyuc17_spi_variant",
    "rsvd_onepass",
    "tyuc19",
    "tyuc19_spi",
]

_TRI_TOL = 1e-12


@dataclass
class ApproxResult:
    """Rank-r factors plus the intermediates the metrics need.

    ``u`` is m x r with orthonormal columns, ``sv`` the non-increasing
    singular values, ``v`` n x r.  Two-sketch pipelines retain (Q, B) and the
    corange test matrix; the two-sided pipelines retain (Q, core, P).
    """

    kind: PipelineKind
    u: np.ndarray
    sv: np.ndarray
    v: np.ndarray
    q_factor: np.ndarray
    u_tilde: np.ndarray
    b: Optional[np.ndarray] = None
    core: Optional[np.ndarray] = None
    p_factor: Optional[np.ndarray] = None
    psi: Optional[np.ndarray | scipy.sparse.csc_array] = None
    flags: frozenset = frozenset()

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.sv) @ self.v.T


def _require(sk: SketchSet, r: int, kinds, *names) -> None:
    """Check the one-pass certificate, the kind, the size rules of the
    pipeline table, 1 <= r <= s, and the presence of the named sketches."""
    if sk.pass_count != 1:
        raise ValueError(f"sketches must come from exactly one pass, got pass_count={sk.pass_count}")
    if sk.kind not in kinds:
        raise ValueError(f"sketch set of kind {sk.kind.value} not usable here")
    PIPELINES[sk.kind.value].check_sizes(sk.m, sk.n, sk.s, sk.d, sk.l)
    if not 1 <= r <= sk.s:
        raise ValueError(f"target rank must satisfy 1 <= r <= s, got r={r}, s={sk.s}")
    for name in names:
        if getattr(sk, name) is None:
            raise ValueError(f"sketch set lacks required sketch {name!r}")


_TYUC17_FAMILY = (PipelineKind.TYUC17, PipelineKind.TYUC17_SPI, PipelineKind.TYUC17_SPI_VARIANT)


def _stored(y_hat: np.ndarray, sk: SketchSet) -> np.ndarray:
    """Model the powered rangefinder's residence in binary32 sketch space.

    Under the mixed plan the iterate overwrites the binary32 sketch buffer
    before its upcast, so it passes through one binary32 rounding, done in
    place on the fresh binary64 iterate (the identity ufunc computed in
    binary32 casts through its small buffer, not a copy of the iterate).
    """
    if sk.plan is PrecisionPlan.MIXED_SINGLE_DOUBLE:
        np.positive(y_hat, out=y_hat, dtype=np.float32)
    return y_hat


def _owned(y: DenseMatrix) -> np.ndarray:
    """A Fortran-ordered binary64 copy of a sketch, for a QR to overwrite."""
    return np.array(y.data, dtype=np.float64, order="F")


def _test_matrix(t):
    """A test matrix as the finishers apply it: a CSC array as held, a
    :class:`DenseMatrix` as its binary64 array."""
    return t.as_f64() if isinstance(t, DenseMatrix) else t


def _apply(t, q: np.ndarray) -> np.ndarray:
    """t @ q.  A CSC t is applied one column of q at a time: each entry is
    summed as in scipy's product of the whole q, which would first copy a
    Fortran-ordered q into C order."""
    if isinstance(t, np.ndarray):
        return t @ q
    return np.column_stack([t @ q[:, j] for j in range(q.shape[1])])


def _qb_finish(kind, y_hat, w, psi, r, flags) -> ApproxResult:
    """Shared tail of the oblique pipelines: QR, corange solve, truncation.

    Takes ownership of ``y_hat``, a Fortran-ordered binary64 array, and
    factors it in place, so Q takes its storage; the caller does not read it
    again.
    """
    qres = qr_economy(y_hat, overwrite=True)
    if qres.rank_deficient:
        flags.add("rangefinder_rank_deficient")
    solve = lstsq(_apply(psi, qres.q), w)
    if solve.ill_conditioned:
        flags.add("corange_solve_ill_conditioned")
    trunc = svd_truncated(solve.x, r)
    return ApproxResult(
        kind=kind,
        u=qres.q @ trunc.u,
        sv=trunc.s,
        v=trunc.v,
        q_factor=qres.q,
        u_tilde=trunc.u,
        b=solve.x,
        psi=psi,
        flags=frozenset(flags),
    )


def tyuc17(sk: SketchSet, r: int) -> ApproxResult:
    """Rangefinder QR plus corange least squares: A ~ Q ((Psi Q)^+ W)."""
    _require(sk, r, _TYUC17_FAMILY, "y", "w", "psi")
    return _qb_finish(PipelineKind.TYUC17, _owned(sk.y), sk.w.as_f64(), _test_matrix(sk.psi), r, set())


def tyuc17_spi(sk: SketchSet, params: SpiParams, r: int) -> ApproxResult:
    """TYUC17 with the rangefinder powered through the wide sketch Z."""
    _require(sk, r, (PipelineKind.TYUC17_SPI,), "y", "w", "z", "psi")
    flags = set()
    if params.q == 0:
        y_hat = _owned(sk.y)
    elif params.use_stabilized:
        out = spi_stabilized(sk.z.data, sk.y.data, params.q)
        if out.rank_collapse:
            flags.add("power_iteration_rank_collapse")
        y_hat = _stored(out.y_hat, sk)
    else:
        y_hat = _stored(spi_plain(sk.z.data, sk.y.data, params.q), sk)
    return _qb_finish(PipelineKind.TYUC17_SPI, y_hat, sk.w.as_f64(), _test_matrix(sk.psi), r, flags)


def _small_factor(sk: SketchSet, stream: Stream, rows: int, cols: int) -> np.ndarray:
    """A Gaussian factor of the storage-reduced pipelines, from the sketch set's seed and trial."""
    return generate(GAUSSIAN, rows, cols, SeedSpec(sk.base_seed, stream, sk.trial)).as_f64()


def tyuc17_spi_variant(sk: SketchSet, params: SpiParams, r: int) -> ApproxResult:
    """Storage-reduced SPI: the rangefinder is synthesized as Z (Z^T Z)^q O,
    q = ``params.q`` and O (l x s) Gaussian from the ``OMEGA_TILDE`` stream."""
    _require(sk, r, _TYUC17_FAMILY, "w", "z", "psi")
    omega_tilde = _small_factor(sk, Stream.OMEGA_TILDE, sk.l, sk.s)
    y_hat = _stored(spi_variant(sk.z.data, omega_tilde, params.q), sk)
    return _qb_finish(PipelineKind.TYUC17_SPI_VARIANT, y_hat, sk.w.as_f64(), _test_matrix(sk.psi), r, set())


def rsvd_onepass(sk: SketchSet, r: int) -> ApproxResult:
    """Orthogonal-projection one-pass pipeline for row-streamed data.

    With W = A^T A Omega, the triangular solve R^-T W^T equals Q^T A exactly,
    so the approximation has no sketch-and-solve error source.
    """
    _require(sk, r, (PipelineKind.RSVD_ONEPASS,), "y", "w")
    flags = set()
    qres = qr_economy(_owned(sk.y), overwrite=True)
    wt = sk.w.as_f64().T
    # Directions below the sketches' storage-precision noise floor cannot be
    # trusted; a singular solve there would amplify rounding junk.
    tol = max(_TRI_TOL, 50.0 * float(np.finfo(sk.y.data.dtype).eps))
    diag = np.abs(np.diag(qres.r))
    if diag.min() < tol * max(diag.max(), 1e-300):
        flags.add("triangular_solve_singular")
        b, *_ = np.linalg.lstsq(qres.r.T, wt, rcond=tol)
    else:
        b = la.solve_triangular(qres.r, wt, trans="T", lower=False, check_finite=False)
    trunc = svd_truncated(b, r)
    return ApproxResult(
        kind=PipelineKind.RSVD_ONEPASS,
        u=qres.q @ trunc.u,
        sv=trunc.s,
        v=trunc.v,
        q_factor=qres.q,
        u_tilde=trunc.u,
        b=b,
        flags=frozenset(flags),
    )


def _two_sided_finish(kind, y_hat, x_hat, k, phi, psi, r, flags) -> ApproxResult:
    """Shared tail of the two-sided pipelines; owns ``y_hat`` as
    :func:`_qb_finish` does."""
    q_res = qr_economy(y_hat, overwrite=True)
    p_res = qr_economy(x_hat.T)
    if q_res.rank_deficient or p_res.rank_deficient:
        flags.add("rangefinder_rank_deficient")
    # Two-sided core fit (Phi Q) C (Psi P)^T ~ K, solved left then right.
    left = lstsq(_apply(phi, q_res.q), k)
    right = lstsq(_apply(psi, p_res.q), left.x.T)
    if left.ill_conditioned or right.ill_conditioned:
        flags.add("core_solve_ill_conditioned")
    core = right.x.T
    trunc = svd_truncated(core, r)
    return ApproxResult(
        kind=kind,
        u=q_res.q @ trunc.u,
        sv=trunc.s,
        v=p_res.q @ trunc.v,
        q_factor=q_res.q,
        u_tilde=trunc.u,
        core=core,
        p_factor=p_res.q,
        flags=frozenset(flags),
    )


def tyuc19(sk: SketchSet, r: int) -> ApproxResult:
    """Two-sided pipeline: range and corange bases plus a d x d core sketch."""
    _require(sk, r, (PipelineKind.TYUC19,), "y", "x", "k", "phi", "psi")
    return _two_sided_finish(
        PipelineKind.TYUC19, _owned(sk.y), sk.x.as_f64(), sk.k.as_f64(), _test_matrix(sk.phi), _test_matrix(sk.psi),
        r, set(),
    )


def tyuc19_spi(sk: SketchSet, params: SpiParams, r: int) -> ApproxResult:
    """Two-sided pipeline with both bases powered through wide sketches.

    Y-hat = Z (Z^T Z)^q O and X-hat = G (W W^T)^q W, q = ``params.q``, where
    O (l x s) and G (s x l) are Gaussian from the ``OMEGA_TILDE`` and
    ``GAMMA_TILDE`` streams; the rest follows the two-sided solve.
    """
    _require(sk, r, (PipelineKind.TYUC19_SPI,), "z", "w", "k", "phi", "psi")
    omega_tilde = _small_factor(sk, Stream.OMEGA_TILDE, sk.l, sk.s)
    gamma_tilde = _small_factor(sk, Stream.GAMMA_TILDE, sk.s, sk.l)
    y_hat = _stored(spi_variant(sk.z.data, omega_tilde, params.q), sk)
    x_hat = _stored(spi_variant(sk.w.as_f64().T, gamma_tilde.T, params.q).T, sk)
    return _two_sided_finish(
        PipelineKind.TYUC19_SPI, y_hat, x_hat, sk.k.as_f64(), _test_matrix(sk.phi), _test_matrix(sk.psi), r, set()
    )


def approximate(sk: SketchSet, r: int, params: SpiParams = SpiParams()) -> ApproxResult:
    """Run the finisher of ``sk.kind``: the function of that name in this
    module, looked up when called (so a wrapper on the module attribute runs).
    ``params`` reaches the kinds with a power sketch (size l)."""
    finish = globals()[sk.kind.value]
    return finish(sk, params, r) if PIPELINES[sk.kind.value].uses("l") else finish(sk, r)
