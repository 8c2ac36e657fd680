"""Quantitative evaluation: relative errors, error-source decomposition,
subspace angles, tail energies, oracle sweeps, and computable evaluators for
the probabilistic error bounds.

All evaluators here take the data matrix whole; they are meant for
desk-scale validation, not for the streaming path.  :func:`evaluate` and
:func:`relative_error` take A and a rank-r result, and read r as the
result's number of singular values.  The best-rank-r baselines come from one
set of A's singular values: the generator's ``factors.sv`` for noise-free
synthetic data (:func:`synthetic.generate`), else a ``spectrum`` the caller
took once (a file's, or a noisy trial's shared by the oracle sweep's
points), else ``la.svdvals(A)``.  Per-trial evaluation takes no full SVD of
an m x n matrix.  The spectral norm of a residual comes from a k=1 Lanczos
solve (ARPACK on a Gram operator, fixed start vector and restart seed), the
ExtraError norms from an r x n reduction.  The values match a dense SVD to
roundoff.

Given the generator's factors ``U0 diag(sigma) V0^T``, the residuals are
written in their basis, widened by the approximation's factors, as matrices
of at most (k+r) x (k+r) that are applied from r-column factors and never
formed, so no m x n array is made.  Files and noisy low-rank data have
dense m x n residuals, each made and overwritten in turn, so an evaluation
holds one m x n array at its peak.
"""
from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy.linalg as la
import scipy.sparse.linalg as spla

from . import guidance, synthetic
from .approximators import ApproxResult, approximate
from .matrix_core import _CHUNK, _in_two_processes, _one_blas_thread, as_f64, binary_exponent, fro_norm, lstsq
from .spi import SpiParams
from .stream_ingest import LinearUpdate, PipelineKind, SketchStream, _test_matrix_seed, open_stream
from .test_matrices import GAUSSIAN, TestMatrixKind, generate
from .precision_model import PIPELINES, PrecisionPlan

__all__ = [
    "Errors",
    "baselines_from_spectrum",
    "relative_error",
    "evaluate",
    "canonical_angle_sines",
    "tail_energy",
    "BoundInputsFro",
    "BoundInputsSpec",
    "SpectralBound",
    "bound_frobenius_q1",
    "bound_spectral_general_q",
    "frobenius_event_statistic",
    "SweepRow",
    "SweepTable",
    "oracle_sweep",
]

_ZERO_BASELINE_RTOL = 1e-12
_EXACT_FIT_RTOL = 1e-12
# A given spectrum whose 2-norm is not ||A||_F to this relative tolerance is
# not A's; singular values taken in binary64 meet it to about sqrt(min(m, n)) eps.
_SPECTRUM_RTOL = 1e-10


@dataclass
class Errors:
    """A trial's errors: relative (S_F, S_inf), then RangeError and
    ExtraError, which are None where they are not computed."""

    s_f: float
    s_inf: float
    range_f: Optional[float] = None
    range_s: Optional[float] = None
    extra_f: Optional[float] = None
    extra_s: Optional[float] = None
    flags: frozenset = frozenset()


def baselines_from_spectrum(singular_values, r: int) -> tuple[float, float]:
    """(Frobenius, spectral) distance to the best rank-r approximation of a
    matrix with the given singular values (descending); 0 beyond the end.
    A value that is negative or not finite is refused (ValueError)."""
    sv = np.asarray(singular_values, dtype=np.float64).ravel()
    if not (np.all(np.isfinite(sv)) and np.all(sv >= 0.0)):
        raise ValueError("singular values must be finite and non-negative")
    return tail_energy(sv, r + 1), float(sv[r]) if r < sv.size else 0.0


def _fro_and_spectral(e: int, fro: float, k: int, matvec, rmatvec) -> tuple[float, float]:
    """(Frobenius, spectral) norm of ``x = 2^e y`` without a full SVD.

    The caller scales x exactly, so that neither norm under- or overflows,
    and passes ``fro = ||y||_F`` and the products ``v -> y v`` and
    ``w -> y^T w`` of a y with k columns, the side of its smaller Gram matrix.
    sigma_1 is ``||y v||`` for the leading eigenvector v of ``y^T y``, found
    by ARPACK's Lanczos solver (as ``svds(k=1)`` does).  ARPACK is called
    directly so that its restart vectors, not only its start vector, come
    from a fixed seed: repeated calls give identical bits.  Zero matrices and
    vectors, which ARPACK rejects, are answered directly; a non-finite
    ``fro`` gives non-finite norms.
    """
    if fro == 0.0 or not math.isfinite(fro) or k == 1:
        return math.ldexp(fro, e), math.ldexp(fro, e)
    gram = spla.LinearOperator((k, k), matvec=lambda v: rmatvec(matvec(v)), dtype=np.float64)
    v0 = np.random.default_rng(0).standard_normal(k)
    _, vec = spla.eigsh(gram, k=1, v0=v0, tol=0, rng=np.random.default_rng(0))
    s = float(np.linalg.norm(matvec(vec)) / np.linalg.norm(vec))
    return math.ldexp(fro, e), math.ldexp(s, e)


def _dense_norms(x: np.ndarray) -> tuple[float, float]:
    """Norms of a matrix held whole.  x is scaled in place by the power of two
    of :func:`binary_exponent`, so the Frobenius norm has the bits of
    ``np.linalg.norm(x)``; the caller owns x and drops it."""
    e = binary_exponent(x)
    y = np.ldexp(x, -e, out=x)
    fro = float(np.linalg.norm(y))
    if y.shape[0] < y.shape[1]:
        y = y.T
    return _fro_and_spectral(e, fro, y.shape[1], lambda v: y @ v, lambda w: y.T @ w)


def _in_basis(b: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``[X; R]`` with ``q = b X + Q R``: X = b^T q and Q R the thin QR of
    q - b X.  For an orthonormal b, ``[b Q]`` is orthonormal to roundoff, so
    a residual written in that basis has the norms of its coefficients and Q
    is never needed.  A square b spans every q; R would be roundoff there."""
    x = (q.T @ b).T  # twice as fast as b.T @ q under OpenBLAS for a thin q
    if b.shape[0] == b.shape[1]:
        return x
    return np.vstack([x, np.linalg.qr(q - b @ x, mode="r")])


def _factored_norms(e: int, d: np.ndarray, g: np.ndarray, h: np.ndarray) -> tuple[float, float]:
    """Norms of ``2^e (D - g h^T)``, where the ``rows(g) x rows(h)`` matrix D
    holds d on its leading diagonal; a product costs O((rows(g) + rows(h))
    cols(g)) and the matrix is never formed."""
    if g.shape[0] < h.shape[0]:
        g, h = h, g  # the transpose: same norms, the Gram matrix on the smaller side
    k = d.size

    def matvec(v):
        v = v.ravel()
        out = g @ (h.T @ v)
        out[:k] -= d * v[:k]
        return out

    def rmatvec(w):
        out = h @ (g.T @ w)
        out[:k] -= d * w[:k]
        return out

    return _fro_and_spectral(e, _factored_fro(d, g, h), h.shape[0], matvec, rmatvec)


def _factored_fro(d: np.ndarray, g: np.ndarray, h: np.ndarray) -> float:
    """``||D - g h^T||_F`` (D as above), one row chunk of at most ``_CHUNK``
    entries at a time in one buffer, which is freed before the Lanczos solve."""
    k, p = d.size, g.shape[0]
    step = max(1, _CHUNK // max(1, h.shape[0]))
    chunk = np.empty((min(step, p), h.shape[0]))
    squares = 0.0
    for i in range(0, p, step):
        c = np.matmul(g[i : i + step], h.T, out=chunk[: min(step, p - i)])
        j = np.arange(i, min(i + step, k))
        c[j - i, j] -= d[j]
        squares += float(np.dot(c.ravel(), c.ravel()))
    return math.sqrt(squares)


def _residual_norms(a: np.ndarray, result: ApproxResult, factors: Optional[synthetic.Factors],
                    xu: Optional[np.ndarray]) -> tuple[float, float]:
    """Norms of ``A - U diag(sv) V^T``: given A's factors and ``xu =
    _in_basis(U0, U)``, those of ``diag(sigma) - xu diag(sv) [Y; R_v]^T``
    (see :func:`_in_basis`), else of the residual written over the
    reconstruction."""
    if factors is None:
        resid = result.reconstruct()
        return _dense_norms(np.subtract(a, resid, out=resid))
    e = binary_exponent(np.concatenate([factors.sv, result.sv]))
    g = xu * np.ldexp(result.sv, -e)
    return _factored_norms(e, np.ldexp(factors.sv, -e), g, _in_basis(factors.v, result.v))


def _range_residual_norms(a: np.ndarray, u: np.ndarray, factors: Optional[synthetic.Factors],
                          xu: Optional[np.ndarray]) -> tuple[float, float]:
    """Norms of ``(I - U U^T) A``: given A's factors and ``xu =
    _in_basis(U0, U)``, those of ``[diag(sigma); 0] - xu X^T diag(sigma)``,
    else of the residual written over the projection."""
    if factors is None:
        resid = u @ (u.T @ a)
        return _dense_norms(np.subtract(a, resid, out=resid))
    e = binary_exponent(factors.sv)
    sv = np.ldexp(factors.sv, -e)
    return _factored_norms(e, sv, xu, sv[:, None] * xu[: sv.size])


def _extra_norms(a: np.ndarray, result: ApproxResult) -> tuple[float, float]:
    """Norms of ``U U-tilde^T (Q^T A - (Psi Q)^+ Psi A)``, taken of the r x n
    matrix ``R_U M`` (U = Q_U R_U, M the core), which has the norms of ``U M``
    whether or not U is orthonormal."""
    psi = result.psi
    fitted = lstsq(psi @ result.q_factor, psi @ a).x
    core = result.u_tilde.T @ (result.q_factor.T @ a - fitted)
    e = np.linalg.qr(result.u, mode="r") @ core
    return fro_norm(e), float(la.svdvals(e, check_finite=False)[0])


def _errors(a, result: ApproxResult, spectrum, factors, split: bool) -> Errors:
    """:func:`evaluate`, with the RangeError/ExtraError split only if ``split``
    and the kind has no ``two_sided`` sketch; ExtraError is 0 if it has a
    ``gram`` sketch."""
    if spectrum is not None and factors is not None:
        raise ValueError("give A's spectrum or its factors, not both")
    updates = {sk.update for sk in PIPELINES[result.kind.value].sketches}
    split = split and "two_sided" not in updates
    if split and "gram" not in updates and result.psi is None:
        raise ValueError("result lacks the corange test matrix needed for ExtraError")
    a = as_f64(a)
    given = spectrum is not None
    if factors is not None:
        spectrum = factors.sv
    elif spectrum is None:
        spectrum = la.svdvals(a, check_finite=False)
    base_f, base_s = baselines_from_spectrum(spectrum, result.sv.size)
    scale = fro_norm(a if factors is None else factors.sv)
    if given:
        norm = fro_norm(np.asarray(spectrum, dtype=np.float64))
        if np.size(spectrum) != min(a.shape) or abs(norm - scale) > _SPECTRUM_RTOL * scale:
            raise ValueError(f"spectrum is not A's: it has {np.size(spectrum)} values and 2-norm {norm:.17g}, "
                             f"but A has {min(a.shape)} and ||A||_F {scale:.17g}")
    xu = None if factors is None else _in_basis(factors.u, result.u)
    num_f, num_s = _residual_norms(a, result, factors, xu)
    zero_baseline = base_f <= _ZERO_BASELINE_RTOL * max(scale, 1e-300)
    if zero_baseline:
        s_f, s_inf, flags = num_f, num_s, frozenset({"zero_baseline"})
    elif num_f <= _EXACT_FIT_RTOL * scale:
        s_f, s_inf, flags = 0.0, 0.0, frozenset({"exact_fit"})
    else:
        s_f, s_inf, flags = num_f / base_f - 1.0, num_s / base_s - 1.0, frozenset()
    if not split:
        return Errors(s_f, s_inf, flags=flags)
    range_f, range_s = _range_residual_norms(a, result.u, factors, xu)
    extra_f, extra_s = (0.0, 0.0) if "gram" in updates else _extra_norms(a, result)
    if not zero_baseline:
        range_f, range_s = range_f / base_f - 1.0, range_s / base_s - 1.0
        extra_f, extra_s = extra_f / base_f, extra_s / base_s
    return Errors(s_f, s_inf, range_f, range_s, extra_f, extra_s, flags)


@_one_blas_thread()
def relative_error(a, result: ApproxResult, *, spectrum=None, factors: Optional[synthetic.Factors] = None) -> Errors:
    """Reconstruction error relative to the best rank-r approximation:
    :func:`evaluate` without the RangeError/ExtraError split, whose four
    fields are None."""
    return _errors(a, result, spectrum, factors, split=False)


@_one_blas_thread()
def evaluate(a, result: ApproxResult, *, spectrum=None, factors: Optional[synthetic.Factors] = None) -> Errors:
    """A trial's errors: the relative error and its split into two sources.

    ``S = ||A - A_hat|| / ||A - [A]_r|| - 1`` in Frobenius and spectral norm,
    with r the result's rank (``result.sv.size``).  The baselines
    ``||A - [A]_r||`` come from one set of A's singular values: ``factors.sv``
    given A's SVD ``factors`` (noise-free :func:`synthetic.generate` data),
    else the given ``spectrum`` (say a file's, taken once for many results),
    else ``la.svdvals(A)``.  Giving both ``spectrum`` and ``factors``, or a
    spectrum with a negative or non-finite value, with other than min(m, n)
    values or whose 2-norm is not ||A||_F (to a relative 1e-10), is refused
    (ValueError).
    If A is itself (numerically) rank <= r the ratio is undefined: absolute
    errors are returned with a ``zero_baseline`` flag.  A reconstruction that
    fits A to roundoff while the baseline is positive is reported as zero
    error with an ``exact_fit`` flag.

    RangeError is the orthogonal-projection error ``||A - U U^T A|| /
    ||A - [A]_r|| - 1``; ExtraError is the sketch-and-solve remainder
    ``||U U-tilde^T (Q^T A - (Psi Q)^+ Psi A)|| / ||A - [A]_r||`` (no
    subtraction of one), exactly zero for a kind with a ``gram`` sketch
    (the orthogonal-projection pipeline), which has no second source.  Under
    ``zero_baseline`` both are absolute.  The split is undefined for a kind
    with a ``two_sided`` sketch: its four fields are None.  Any other result
    without ``psi`` is refused (ValueError).

    Spectral norms of the residuals are Lanczos estimates that match a dense
    SVD to roundoff.  Given ``factors``, no m x n array is made,
    ``_in_basis(U0, U)`` is computed once for both residuals, and the flags'
    scale ``||A||_F`` is taken as ``||sigma||``; otherwise each residual is
    written over the array it is made from, and the first is dropped before
    the second is made.  ExtraError multiplies A in either case.
    """
    return _errors(a, result, spectrum, factors, split=True)


def _orthonormalized(u: np.ndarray, name: str) -> np.ndarray:
    k = u.shape[1]
    if np.linalg.norm(u.T @ u - np.eye(k)) > 1e-8 * math.sqrt(k):
        warnings.warn(f"{name} is not orthonormal; re-orthonormalizing", stacklevel=3)
        u, _ = np.linalg.qr(u)
    return u


def canonical_angle_sines(u_est, u_true, how_many: Optional[int] = None) -> np.ndarray:
    """Sines of the smallest principal angles between two column spaces.

    Equal to ``sqrt(1 - sigma_i^2)`` for the singular values of
    ``U_true^T U_est``, returned ascending; evaluated through the complement
    projection ``(I - U_true U_true^T) U_est`` so that angles far below
    sqrt(eps) are still resolved.  Non-orthonormal inputs are
    re-orthonormalized with a warning.
    """
    u_est = _orthonormalized(as_f64(u_est), "u_est")
    u_true = _orthonormalized(as_f64(u_true), "u_true")
    resid = u_est - u_true @ (u_true.T @ u_est)
    sines = np.minimum(la.svdvals(resid, check_finite=False), 1.0)
    sines = sines[::-1]
    return sines[:how_many] if how_many is not None else sines


def tail_energy(singular_values, k: int) -> float:
    """sqrt(sum of sigma_i^2 for i >= k), with 1-based k; 0 beyond the end."""
    if k < 1:
        raise ValueError(f"tail index must be >= 1, got {k}")
    tail = np.asarray(singular_values, dtype=np.float64).ravel()[k - 1 :]
    if tail.size == 0:
        return 0.0
    e = binary_exponent(tail)  # exact scaling: no underflow, same bits at ordinary scales
    return math.ldexp(float(np.sqrt(np.sum(np.ldexp(tail, -e) ** 2))), e)


# -- error-bound evaluators ---------------------------------------------------


@dataclass(frozen=True)
class BoundInputsFro:
    """Inputs of the expected Frobenius-error bound for one power iteration."""

    varrho: int
    l: int
    s: int
    d: int
    xi_hat: float
    singular_values: Sequence[float]

    def validate(self):
        if not (self.l > self.s >= self.varrho + 4):
            raise ValueError(f"hypotheses need l > s >= varrho+4, got l={self.l}, s={self.s}, varrho={self.varrho}")
        if self.d <= self.s + 1:
            raise ValueError(f"hypotheses need d > s+1, got d={self.d}, s={self.s}")
        if self.xi_hat <= 1.0:
            raise ValueError(f"conditioning constant must exceed 1, got {self.xi_hat}")


def bound_frobenius_q1(inp: BoundInputsFro) -> float:
    """Expected squared Frobenius error bound, single power iteration.

    (d/(d-s-1)) [ (1 + eps xi^2) tau_{p+1}^2
                  + delta xi^2 sum_{j>p} sigma_j^6 / sigma_p^4
                  + mu xi^2 tau_{p+1}^2 sum_{j>p} sigma_j^4 / sigma_p^4 ]
    with p = varrho, eps = 2p/(l-p-1) and delta, mu the combinatorial
    coefficients below.
    """
    inp.validate()
    p, l, s, d = inp.varrho, inp.l, inp.s, inp.d
    sv = np.asarray(inp.singular_values, dtype=np.float64).ravel()
    den = (s - p) ** 2 * (l - p) * (l - p - 1) * (l - p - 3)  # positive, as validate() gives l > s >= p + 4
    eps = 2.0 * p / (l - p - 1)
    e2 = math.e**2
    delta = e2 * (s + p) * p * (l - 1) * (l**2 + 2 * l) / den
    mu = e2 * (s + p) * p * (l - 1) * l / den
    tail_sq = float(np.sum(sv[p:] ** 2))
    s4 = float(np.sum(sv[p:] ** 4))
    s6 = float(np.sum(sv[p:] ** 6))
    sig_p4 = float(sv[p - 1] ** 4)
    xi2 = inp.xi_hat**2
    inner = (1.0 + eps * xi2) * tail_sq
    if tail_sq > 0.0:
        inner += delta * xi2 * s6 / sig_p4 + mu * xi2 * tail_sq * s4 / sig_p4
    return d / (d - s - 1.0) * inner


@dataclass(frozen=True)
class BoundInputsSpec:
    """Inputs of the spectral-norm deviation bound for general q >= 1."""

    varrho: int
    k: int
    l: int
    s: int
    d: int
    q: int
    u: float
    t: float
    beta: float
    singular_values: Sequence[float]

    def validate(self):
        if not (self.varrho < self.k <= self.l - 4):
            raise ValueError(f"hypotheses need varrho < k <= l-4, got varrho={self.varrho}, k={self.k}, l={self.l}")
        if self.varrho > self.s - 4:
            raise ValueError(f"hypotheses need varrho <= s-4, got varrho={self.varrho}, s={self.s}")
        if self.d < self.s + 4:
            raise ValueError(f"hypotheses need d >= s+4, got d={self.d}, s={self.s}")
        if self.q < 1 or self.t < 1.0 or self.u <= 0 or self.beta <= 0:
            raise ValueError("need q >= 1, t >= 1, u > 0, beta > 0")


@dataclass
class SpectralBound:
    bound: float
    failure_probability: float
    gamma3: float


def bound_spectral_general_q(inp: BoundInputsSpec) -> SpectralBound:
    """Deviation bound on the spectral reconstruction error, any q >= 1.

    Also returns the failure probability
    ``p = 3 e^{-u^2/2} + 2 t^{-(d-s)} + 2 t^{-(l-k)} + 2 t^{-(s-varrho)} + e^{-beta^2/2}``
    and the power-sensitive factor gamma3, which decreases to 1 as q grows.
    """
    inp.validate()
    p, k, l, s, d, q = inp.varrho, inp.k, inp.l, inp.s, inp.d, inp.q
    u, t, beta = inp.u, inp.t, inp.beta
    sv = np.asarray(inp.singular_values, dtype=np.float64).ravel()
    sig = lambda i: float(sv[i - 1]) if i <= sv.size else 0.0

    eta1 = 1.0 + t * math.sqrt(3.0 * s / (d - s + 1))
    eta2 = t * math.e * math.sqrt(d) / (d - s + 1)
    eta3 = t * math.e * math.sqrt(l) / (l - k + 1)
    eta4 = 1.0 + t * math.sqrt(3.0 * k / (l - k + 1))
    gamma1 = (
        1.0
        + t * math.sqrt(3.0 * s / (d - s + 1))
        + t * math.e * math.sqrt(d * l) / (d - s + 1)
        + u * t * math.e * math.sqrt(d) / (d - s + 1)
    )
    gamma2 = math.e * l / (l - k + 1)
    gamma3 = (
        1.0
        + t * math.sqrt(3.0 * p / (s - p + 1))
        + t * math.e * (math.sqrt(s * l) + u * math.sqrt(s)) / (s - p + 1)
    ) ** (1.0 / (2 * q + 1))

    tau_k1 = tail_energy(sv, k + 1)
    bound = ((eta1 + u * eta2) * eta3 + eta2 * eta4) * tau_k1
    bound += ((eta1 + u * eta2) * (eta3 + eta4) + u * eta3) * sig(k + 1)
    bound += (
        gamma1
        * gamma2
        * gamma3
        * (
            (1.0 + math.sqrt(k / l) + beta / math.sqrt(l)) * sig(p + 1)
            + (1.0 + beta / math.sqrt(l)) * sig(k + 1)
            + tau_k1 / math.sqrt(l)
        )
    )
    p_fail = (
        3.0 * math.exp(-(u**2) / 2.0)
        + 2.0 * t ** (-(d - s))
        + 2.0 * t ** (-(l - k))
        + 2.0 * t ** (-(s - p))
        + math.exp(-(beta**2) / 2.0)
    )
    return SpectralBound(bound=bound, failure_probability=p_fail, gamma3=gamma3)


def frobenius_event_statistic(v, singular_values, varrho: int, omega, phi) -> float:
    """The conditioning statistic of the Frobenius bound's screening event.

    With the right singular factors split at varrho (V1, V2 and Sigma1,
    Sigma2) and the projected test matrices Omega_i = V_i^T Omega,
    Phi_i = V_i^T Phi, returns
    ``|| (I + Phi1 Phi2^T Sigma2^2 Omega2 Omega1^+ Sigma1^-2 (Phi1 Phi1^T)^-1)^-1 ||_2``.
    A trial belongs to the screening event when this is below the chosen
    conditioning constant.
    """
    v = as_f64(v)
    sv = np.asarray(singular_values, dtype=np.float64).ravel()
    p = varrho
    v1, v2 = v[:, :p], v[:, p : sv.size]
    omega = as_f64(omega)
    phi = as_f64(phi)
    o1, o2 = v1.T @ omega, v2.T @ omega
    f1, f2 = v1.T @ phi, v2.T @ phi
    h = (sv[p:, None] ** 2) * o2 @ np.linalg.pinv(o1) / sv[:p][None, :] ** 2
    mid = np.eye(p) + f1 @ f2.T @ h @ np.linalg.inv(f1 @ f1.T)
    return float(la.svdvals(np.linalg.inv(mid), check_finite=False)[0])


# -- oracle sweep -------------------------------------------------------------


@dataclass
class SweepRow:
    s: int
    d: int
    l: int
    q: int
    mean_s_f: float
    mean_s_inf: float


@dataclass
class SweepTable:
    rows: list[SweepRow] = field(default_factory=list)

    def best(self) -> SweepRow:
        return min(self.rows, key=lambda row: row.mean_s_f)


@_one_blas_thread()
def oracle_sweep(
    data_spec: synthetic.SyntheticSpec,
    algo: PipelineKind,
    budget_t: float,
    r: int,
    q: int = 1,
    trials: int = 20,
    *,
    test_kind: TestMatrixKind = GAUSSIAN,
    plan: Optional[PrecisionPlan] = None,
) -> SweepTable:
    """Mean errors over an exhaustive sweep of the rangefinder size s.

    For each s from r up, d and l follow the budget by the pipeline's
    budget rule (:func:`guidance.budget_sizes` with s given) until the sizes
    no longer fit; the best row is the oracle error at that budget.  Every
    kind sweeps, under either plan; q applies to the kinds with a power
    sketch (size l) and is 0 for the others.

    A is ingested once a trial, by the stream of the first point.  From the
    pipeline table, each other point takes the first stream's test matrices and
    finalized sketches that have the same shape at both points, a sketch only
    if it takes all its operands (sketches are linear in A).  A Gaussian test
    matrix of another shape is the first r·c entries of one flat draw of its
    stream a trial, sized to the grid's largest shape (draws are row-major).
    The point's own stream draws the rest and folds A into the sketches it did
    not take, so every point has the bits of a fresh stream.  Noisy data's
    singular values are taken once a trial and serve the baselines of every
    point.  No sketch is cut to a prefix: the rows of a BLAS product need not
    keep their bits when the row count changes.  The grid points of a trial are
    shared out between this process and a forked copy of it
    (:func:`~sketchpower.matrix_core._in_two_processes`): a point is mostly
    interpreter work on small arrays, which two threads would take in turns.
    Their errors are summed in grid order, so the means do not depend on the
    processes.
    """
    if trials < 1:
        raise ValueError(f"oracle sweep needs at least one trial, got {trials}")
    pipeline = PIPELINES[algo.value]
    if plan is None:
        plan = pipeline.default_plan
    q = pipeline.applied_q(q)
    grid = []
    for s in itertools.count(r):
        try:
            grid.append(guidance.budget_sizes(algo, plan, None, budget_t, data_spec.m, data_spec.n, r, s=s))
        except guidance.InfeasibleBudgetError:
            if not grid:
                raise
            break

    m, n, seed = data_spec.m, data_spec.n, data_spec.base_seed
    gaussian = test_kind.variant == "gaussian"
    shapes = [pipeline.shapes(m, n, *sizes) for sizes in grid]
    # The Gaussian test matrices whose shape varies over the grid, with their largest size.
    largest = {name: max(math.prod(sh[name]) for sh in shapes) for name, _ in pipeline.test_matrices
               if gaussian and any(sh[name] != shapes[0][name] for sh in shapes)}

    def shared(sh) -> set:
        """What a point of these shapes takes of the first stream as it is, by name."""
        same = {name for name, _ in pipeline.test_matrices if sh[name] == shapes[0][name]}
        return same | {sk.name for sk in pipeline.sketches
                       if sh[sk.name] == shapes[0][sk.name] and same.issuperset(sk.operands)}

    def point(a, factors, spectrum, t, sk0, draws, sizes, sh, same):
        sk = sk0
        if sizes != grid[0]:
            taken = {name: t[name] if name in t else getattr(sk0, name).data for name in same}
            for name in largest.keys() - same:
                taken[name] = draws[name][: math.prod(sh[name])].reshape(sh[name])
            stream = SketchStream(algo, m, n, *sizes, base_seed=seed, trial=sk0.trial, test_kind=test_kind,
                                  plan=plan, _taken=taken)
            sk = stream.ingest(LinearUpdate.row_block(0, a)).finalize()
        return relative_error(a, approximate(sk, r, SpiParams(q=q)), spectrum=spectrum, factors=factors)

    points = [(sizes, sh, shared(sh)) for sizes, sh in zip(grid, shapes)]

    def trial_errors(trial):
        a, factors = synthetic.generate(data_spec.with_trial(trial))
        spectrum = None if factors is not None else la.svdvals(a, check_finite=False)  # once for every point
        first = open_stream(algo, m, n, *grid[0], base_seed=seed, trial=trial, test_kind=test_kind, plan=plan)
        sk0 = first.ingest(LinearUpdate.row_block(0, a)).finalize()
        t = first._t  # as the stream holds them: a sparse one in CSC form
        draws = {name: generate(test_kind, 1, size, _test_matrix_seed(name, seed, trial))[0]
                 for name, size in largest.items()}
        return _in_two_processes([functools.partial(point, a, factors, spectrum, t, sk0, draws, *p) for p in points])

    sums = np.zeros((len(grid), 2))
    for trial in range(trials):
        sums += [(rel.s_f, rel.s_inf) for rel in trial_errors(trial)]
    return SweepTable([SweepRow(s, d, l, q, float(f), float(i)) for (s, d, l), (f, i) in zip(grid, sums / trials)])
