"""A-priori sketch-size selection from a storage budget and a decay class.

:func:`budget_sizes` sizes the sketches of any pipeline kind and plan so
that they store at most T*n double-precision words, counting each sketch's
words from the pipeline table.  The powered ``tyuc17_spi`` pair follow the
mixed-plan table.  In its units the budget is T double-precision words per
data column for the three binary32 sketches, i.e. T = (c(l+s) + d)/2 with
aspect ratio c = m/n.  The power-sketch size is then l = T/c (half the
budget), and the rangefinder size s follows the decay class of the spectrum:

    flat                  s = r
    poly, alpha < 1/2     s = r
    poly, alpha ~ 1/2     s = proj_[r, T/(c+1)]( -((T+c)/(c+1)) / W_-1(-(T+c)/((c+1) n e)) - 1 )
    poly, alpha > 1/2     s = max(r, ((2 alpha - 1)(T+3) - (c+1)) / (2 (c+1) alpha))
    exp, alpha < 1/(2T)   s = r
    exp, alpha >= 1/(2T)  s = T/(c+1)

where W_-1 is the lower real branch of the Lambert W function.  The
"alpha ~ 1/2" band is fixed to |alpha - 1/2| <= 0.05; past W_-1's branch
point, (T+c)/((c+1) n) > 1, its rule saturates at s = T/(c+1).  After
flooring s and clamping to [r, min(floor(T/(c+1)), floor(T/c) - 1)], the
remaining sizes follow the budget identity: l = floor(T/c) and
d = floor(2T - c(l+s)).
"""
from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass

import numpy as np

from .matrix_core import _integer
from .precision_model import PIPELINES, PrecisionPlan
from .stream_ingest import PipelineKind

__all__ = [
    "DecayKind",
    "SpectrumClass",
    "InfeasibleBudgetError",
    "budget_sizes",
    "classify_spectrum",
]

HALF_BAND = 0.05  # width of the alpha ~ 1/2 crossover band


class DecayKind(enum.Enum):
    FLAT = "flat"
    POLY = "poly"
    EXP = "exp"


@dataclass(frozen=True)
class SpectrumClass:
    kind: DecayKind
    alpha: float | None = None

    def __post_init__(self):
        if self.kind is not DecayKind.FLAT and (self.alpha is None or self.alpha <= 0):
            raise ValueError(f"{self.kind.value} decay requires alpha > 0, got {self.alpha}")


class InfeasibleBudgetError(ValueError):
    def __init__(self, t, minimal_t):
        self.minimal_feasible_t = minimal_t
        super().__init__(
            f"budget T={t} cannot satisfy the sketch-size constraints after rounding; "
            f"minimal feasible T is {minimal_t}"
        )


def lambert_w_minus1(a: float) -> float:
    """The W_-1 branch: the solution w <= -1 of w e^w = a for -1/e <= a < 0.

    SciPy's ``lambertw``, imported here so that importing the package does
    not load :mod:`scipy.special`; -1 within 1e-12 relative of the branch
    point -1/e, where SciPy returns NaN.
    """
    if not -1.0 / math.e * (1 + 1e-15) <= a < 0:
        raise ValueError(f"lambert_w_minus1 requires -1/e <= a < 0, got {a}")
    if a <= -1.0 / math.e * (1 - 1e-12):
        return -1.0
    from scipy.special import lambertw

    return float(lambertw(a, -1).real)


def _raw_s(cls: SpectrumClass, t: float, n: int, c: float, r: int) -> float:
    if cls.kind is DecayKind.FLAT:
        return float(r)
    a = cls.alpha
    if cls.kind is DecayKind.POLY:
        if a < 0.5 - HALF_BAND:
            return float(r)
        if abs(a - 0.5) <= HALF_BAND:
            try:
                w = lambert_w_minus1(-(t + c) / ((c + 1.0) * n * math.e))
            except ValueError:  # past the branch point: the rule's upper clamp
                return t / (c + 1.0)
            return -((t + c) / (c + 1.0)) / w - 1.0
        return max(float(r), ((2.0 * a - 1.0) * (t + 3.0) - (c + 1.0)) / (2.0 * (c + 1.0) * a))
    # exponential decay
    if a < 1.0 / (2.0 * t):
        return float(r)
    return t / (c + 1.0)


def _mixed_sizes(t: float, c: float, s: int) -> tuple[int, int]:
    """(d, l) from the budget identity once s is fixed: l = T/c, d = 2T - c(l+s)."""
    l = math.floor(t / c)
    d = math.floor(2.0 * t - c * (l + s))
    return d, l


def _resolve(cls: SpectrumClass, t: float, n: int, c: float, r: int):
    """The mixed-plan table's (s, d, l) at T words per column and c = m/n, or
    None when T <= 2r or rounding leaves no r <= s <= d with s < l.  The
    sizes spend the budget up to rounding: T - 1/2 <= (c(l+s) + d)/2 <= T.
    The saturated s = T/(c+1) leaves the corange solve square (d = s), the
    table's stated choice, which amplifies binary32 rounding noise."""
    if t <= 2 * r:
        return None
    upper = min(math.floor(t / (c + 1.0)), math.floor(t / c) - 1)
    s = min(max(math.floor(_raw_s(cls, t, n, c, r)), r), upper)
    d, l = _mixed_sizes(t, c, s)
    return (s, d, l) if upper >= r and d >= s else None


def _model_tail_sq(cls: SpectrumClass, n: int) -> np.ndarray:
    """tail[j] = sum_{i > j} sigma_i^2 for the idealized class spectrum."""
    i = np.arange(1, n + 1, dtype=np.float64)
    if cls.kind is DecayKind.FLAT:
        sq = np.ones(n)
    elif cls.kind is DecayKind.POLY:
        sq = i ** (-2.0 * cls.alpha)
    else:
        sq = np.exp(-2.0 * cls.alpha * i)
    return np.concatenate([np.cumsum(sq[::-1])[::-1], [0.0]])


def _double_sizes(cls: SpectrumClass, t_hat: float, n: int, r: int, c: float, s_cap: int):
    """(s, d) of the plain two-sketch pipeline in binary64 under c*s + d = T-hat,
    with s at most ``s_cap``, or None when no s >= r + 2 leaves d >= s + 2.

    Minimizes the pipeline's expected-error model
    (d/(d-s-1)) * (s/(s-rho-1)) * tail(rho+1)^2 over integer s and rho, using
    the idealized class spectrum; the analogue of the mixed-plan table for
    the no-power-sketch case.
    """
    if math.isinf(t_hat):  # as is its d: no float holds the sizes
        raise OverflowError(f"T-hat={t_hat}")
    tail = _model_tail_sq(cls, n)
    best = None
    s_max = int(min((t_hat - 2) // (1 + c), s_cap))
    for s in range(r + 2, max(r + 2, s_max) + 1):
        d = math.floor(t_hat - c * s)
        if d < s + 2:
            continue
        rho = np.arange(r, s - 1)
        vals = (d / (d - s - 1.0)) * (s / (s - rho - 1.0)) * tail[rho]
        j = int(np.argmin(vals))
        if best is None or vals[j] < best[0]:
            best = (float(vals[j]), s, d)
    return None if best is None else best[1:]


def classify_spectrum(singular_values) -> SpectrumClass:
    """Fit log sigma_i against {-alpha log i} and {-alpha i}; best fit wins.

    Returns flat when both fitted rates fall below 0.05 (or come out
    non-positive).  Requires at least 10 finite positive values.
    """
    sv = np.asarray(singular_values, dtype=np.float64).ravel()
    if sv.size < 10:
        raise ValueError(f"need at least 10 singular values, got {sv.size}")
    if not np.all(np.isfinite(sv)):
        raise ValueError("singular values must be finite to classify decay")
    if np.any(sv <= 0):
        raise ValueError("singular values must be positive to classify decay")
    y = np.log(sv)
    idx = np.arange(1, sv.size + 1, dtype=np.float64)
    fits = {}
    for kind, x in ((DecayKind.POLY, np.log(idx)), (DecayKind.EXP, idx)):
        design = np.column_stack([np.ones_like(x), x])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - design @ coef
        fits[kind] = (-float(coef[1]), float(resid @ resid))
    alpha_p, sse_p = fits[DecayKind.POLY]
    alpha_e, sse_e = fits[DecayKind.EXP]
    if alpha_p < HALF_BAND and alpha_e < HALF_BAND:
        return SpectrumClass(DecayKind.FLAT)
    candidates = [
        (sse, kind, alpha)
        for (kind, (alpha, sse)) in fits.items()
        if alpha >= HALF_BAND
    ]
    _, kind, alpha = min(candidates, key=lambda c: c[0])
    return SpectrumClass(kind, alpha)


def _rate(spec, plan: PrecisionPlan, m: int, n: int, size: str) -> float:
    """Words per data column that one unit of a size costs in the pipeline's sketches."""
    return spec.words(plan, m, n, **{"s": 0, "d": 0, "l": 0, size: 1}) / n


def _oblique(spec, plan, cls, t, m, n, r, s):
    """rate_s*s + rate_d*d <= T: the binary64 rule in units of one d row,
    with s at most min(m, n)."""
    a_s, a_d = _rate(spec, plan, m, n, "s"), _rate(spec, plan, m, n, "d")
    if s is not None:
        return s, math.floor((t - a_s * s) / a_d), 0
    sizes = _double_sizes(cls, t / a_d, n, r, a_s / a_d, min(m, n))
    return None if sizes is None else (*sizes, 0)


def _powered(spec, plan, cls, t, m, n, r, s):
    """The mixed-plan table's rule, one unit of its T worth two d rows: l
    takes half the budget, d the rest, and s is charged at l's rate.  The
    table's s is then capped at min(m, n); the variant, which stores no Y
    and so underspends by that charge, lowers it to l/2."""
    a_d, a_l = _rate(spec, plan, m, n, "d"), _rate(spec, plan, m, n, "l")
    t2, c2 = t / (2.0 * a_d), a_l / a_d
    if s is not None:
        return s, *_mixed_sizes(t2, c2, s)
    sizes = _resolve(cls, t2, n, c2, r)
    if sizes is None:
        return None
    s, d, l = sizes
    cap = min(m, n, l // 2) if "l >= 2s" in spec.rules else min(m, n)
    return min(s, cap), d, l


def _largest(spec, plan, cls, t, m, n, r, s):
    """The largest s whose sketches fit, with d = l = 2s."""
    if s is None:
        s = bisect.bisect_right(range(1, min(m, n) + 1), t * n, key=lambda k: spec.words(plan, m, n, k, 2 * k, 2 * k))
    return s, 2 * s, 2 * s


# The budget rule of each pipeline kind: how s is chosen and how d and l
# follow it.  A rule returns (s, d, l), or None when it has no sizes.
_BUDGET_RULES = {PipelineKind.TYUC17: _oblique, PipelineKind.TYUC17_SPI: _powered,
                 PipelineKind.TYUC17_SPI_VARIANT: _powered, PipelineKind.RSVD_ONEPASS: _largest,
                 PipelineKind.TYUC19: _largest, PipelineKind.TYUC19_SPI: _largest}


def _fit(kind, plan, cls, t, m, n, r, s):
    spec = PIPELINES[kind.value]
    sizes = _BUDGET_RULES[kind](spec, plan, cls, t, m, n, r, s)
    if sizes is None:
        return None
    s_fit, d, l = sizes
    d, l = (d if spec.uses("d") else 0), (l if spec.uses("l") else 0)
    try:
        spec.check_sizes(m, n, s_fit, d, l)
    except ValueError:  # a size rule fails
        return None
    return (s_fit, d, l) if s_fit >= r and spec.words(plan, m, n, s_fit, d, l) <= t * n else None


def budget_sizes(kind: PipelineKind, plan: PrecisionPlan, cls: SpectrumClass | None, t: float,
                 m: int, n: int, r: int, s: int | None = None) -> tuple[int, int, int]:
    """Sketch sizes (s, d, l) of a pipeline whose sketches store at most T*n words.

    Each sketch's words come from :data:`PIPELINES` at the plan.  The kind's
    rule picks s and derives d and l: ``tyuc17`` minimizes the binary64
    error model, the ``tyuc17_spi`` pair follow the mixed-plan table (see
    the module docstring), and ``rsvd_onepass`` and the two-sided kinds take
    the largest s that fits with d = l = 2s.  With ``s`` given only d and l
    are derived (the oracle sweep's grid) and ``cls`` is not read.  Sizes a
    kind does not use are 0.  Raises ValueError unless
    1 <= r <= min(m, n), and :class:`InfeasibleBudgetError` when no sizes
    with s >= r meet the budget and the pipeline's size rules.  It names
    the least integer budget that resolves, found exactly by doubling and
    bisection (every budget above one that resolves resolves too), or inf
    when the sizes pass a float's range first.
    """
    if not 1 <= _integer(r, "target rank") <= min(m, n):
        raise ValueError(f"target rank must satisfy 1 <= r <= min(m, n), got r={r}, m={m}, n={n}")

    def fits(b):
        return _fit(kind, plan, cls, b, m, n, r, s)

    try:
        sizes = fits(t)
        if sizes is not None:
            return sizes
        base, step = math.floor(t), 1  # refused, as T is
        while not fits(float(base + step)):  # float() overflows past a float's range
            step *= 2
        lo, hi = base + step // 2, base + step
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if fits(float(mid)) else (mid, hi)
        least = hi
    except OverflowError:  # sizes past a float's range, as are those of every larger budget
        least = math.inf
    raise InfeasibleBudgetError(t, least)
