import math

import numpy as np
import pytest

from sketchpower.guidance import (
    BudgetSpec,
    budget_sizes,
    DecayKind,
    InfeasibleBudgetError,
    SpectrumClass,
    classify_spectrum,
    lambert_w_minus1,
    select_sizes,
    select_sizes_double,
)
from sketchpower.precision_model import PIPELINES, PrecisionPlan
from sketchpower.stream_ingest import PipelineKind

_DOUBLE, _MIXED = PrecisionPlan.ALL_DOUBLE, PrecisionPlan.MIXED_SINGLE_DOUBLE


def test_flat_rule():
    conf = select_sizes(SpectrumClass(DecayKind.FLAT), BudgetSpec(t=100, n=1000, r=10))
    assert (conf.s, conf.l, conf.d) == (10, 100, 90)


def test_poly_fast_rule():
    conf = select_sizes(SpectrumClass(DecayKind.POLY, 2.0), BudgetSpec(t=97, n=1000, r=10))
    # raw s = max(10, (3*100 - 2)/8) = 37.25, floored
    assert conf.s == 37
    assert conf.l == 97
    assert conf.d == 60


def test_exp_rule():
    conf = select_sizes(SpectrumClass(DecayKind.EXP, 0.1), BudgetSpec(t=100, n=1000, r=10))
    assert conf.s == 100 // 2
    conf_small = select_sizes(SpectrumClass(DecayKind.EXP, 0.004), BudgetSpec(t=100, n=1000, r=10))
    assert conf_small.s == 10  # alpha below 1/(2T) keeps s = r


def test_poly_slow_and_half_band():
    slow = select_sizes(SpectrumClass(DecayKind.POLY, 0.3), BudgetSpec(t=80, n=1000, r=10))
    assert slow.s == 10
    half = select_sizes(SpectrumClass(DecayKind.POLY, 0.5), BudgetSpec(t=80, n=1000, r=10))
    assert 10 <= half.s <= 40  # Lambert-branch value lands inside the clamp
    edge = select_sizes(SpectrumClass(DecayKind.POLY, 0.55), BudgetSpec(t=80, n=1000, r=10))
    assert edge.s == half.s  # 0.55 still inside the band, same Lambert value
    outside = select_sizes(SpectrumClass(DecayKind.POLY, 0.56), BudgetSpec(t=80, n=1000, r=10))
    assert outside.s == max(10, math.floor(((2 * 0.56 - 1) * 83 - 2) / (4 * 0.56)))


def test_budget_conservation_and_rounding_slack():
    for cls in (SpectrumClass(DecayKind.FLAT), SpectrumClass(DecayKind.POLY, 1.0),
                SpectrumClass(DecayKind.EXP, 0.2)):
        for t in (48, 72.5, 96, 121):
            for c in (0.5, 1.0, 2.0):
                conf = select_sizes(cls, BudgetSpec(t=t, n=2000, r=10, c=c))
                used = (c * (conf.l + conf.s) + conf.d) / 2
                assert used <= t <= used + c + 1
                assert conf.r <= conf.s <= conf.d
                assert conf.s < conf.l


def test_poly_monotone_in_budget():
    cls = SpectrumClass(DecayKind.POLY, 2.0)
    ss = [select_sizes(cls, BudgetSpec(t=t, n=1000, r=10)).s for t in range(40, 200, 8)]
    assert all(b >= a for a, b in zip(ss, ss[1:]))


def test_infeasible_budget_reports_minimal_t():
    with pytest.raises(ValueError):
        BudgetSpec(t=20, n=1000, r=10)  # T <= 2r rejected outright
    with pytest.raises(InfeasibleBudgetError) as exc:
        select_sizes(SpectrumClass(DecayKind.FLAT), BudgetSpec(t=21, n=1000, r=10, c=30.0))
    assert exc.value.minimal_feasible_t > 21


def test_lambert_branch_point_and_residuals():
    assert lambert_w_minus1(-1.0 / math.e) == -1.0
    w = lambert_w_minus1(-0.1)
    assert abs(w * math.exp(w) + 0.1) <= 1e-12 * 0.1
    assert abs(lambert_w_minus1(-2.0 * math.exp(-2.0)) + 2.0) <= 1e-9


def test_lambert_domain_and_bracketing():
    with pytest.raises(ValueError):
        lambert_w_minus1(0.1)
    with pytest.raises(ValueError):
        lambert_w_minus1(-0.4)
    for a in np.geomspace(1e-12, 0.36, 40):
        w = lambert_w_minus1(-a)
        assert w <= -1.0
        assert abs(w * math.exp(w) + a) <= 1e-12 * a


def test_classify_poly():
    sv = np.arange(1, 101, dtype=float) ** -1.0
    cls = classify_spectrum(sv)
    assert cls.kind is DecayKind.POLY
    assert abs(cls.alpha - 1.0) <= 0.01


def test_classify_exp():
    sv = np.exp(-0.1 * np.arange(1, 101))
    cls = classify_spectrum(sv)
    assert cls.kind is DecayKind.EXP
    assert abs(cls.alpha - 0.1) <= 0.005


def test_classify_flat_and_errors():
    assert classify_spectrum(np.ones(50)).kind is DecayKind.FLAT
    with pytest.raises(ValueError):
        classify_spectrum(np.ones(5))
    with pytest.raises(ValueError):
        classify_spectrum(np.concatenate([np.ones(20), [-1.0]]))


def test_select_sizes_double_respects_budget():
    for t_hat in (40, 60, 96):
        s, d = select_sizes_double(SpectrumClass(DecayKind.POLY, 1.0), float(t_hat), 1000, 10)
        assert s + d <= t_hat
        assert d >= s + 2
        assert s >= 12


def test_budget_sizes_keep_the_table_rules_where_they_fit():
    poly = SpectrumClass(DecayKind.POLY, 1.0)
    conf = select_sizes(poly, BudgetSpec(t=96, n=1000, r=10))
    assert budget_sizes(PipelineKind.TYUC17_SPI, _MIXED, poly, 96.0, 1000, 1000, 10) == (conf.s, conf.d, conf.l)
    half = select_sizes(poly, BudgetSpec(t=48, n=1000, r=10))  # binary64 entries cost twice
    assert budget_sizes(PipelineKind.TYUC17_SPI, _DOUBLE, poly, 96.0, 1000, 1000, 10) == (half.s, half.d, half.l)
    assert budget_sizes(PipelineKind.TYUC17, _DOUBLE, poly, 96.0, 1000, 1000, 10) == (
        *select_sizes_double(poly, 96.0, 1000, 10), 0)
    # The variant stores no Y: same rule, s lowered to l/2.
    fast = SpectrumClass(DecayKind.EXP, 0.5)
    s, d, l = budget_sizes(PipelineKind.TYUC17_SPI_VARIANT, _MIXED, fast, 60.0, 2000, 1000, 5)
    assert s == l // 2 < select_sizes(fast, BudgetSpec(t=60, n=1000, r=5, c=2.0)).s


@pytest.mark.parametrize("kind", list(PipelineKind), ids=lambda k: k.value)
@pytest.mark.parametrize("plan", [_DOUBLE, _MIXED], ids=lambda p: p.value)
def test_budget_sizes_fit_or_name_the_least_budget(kind, plan):
    spec, cls = PIPELINES[kind.value], SpectrumClass(DecayKind.POLY, 2.0)
    for t in range(4, 80, 3):
        try:
            s, d, l = budget_sizes(kind, plan, cls, float(t), 300, 200, 6)
        except InfeasibleBudgetError as exc:
            least = exc.minimal_feasible_t
            assert least > t
            budget_sizes(kind, plan, cls, float(least), 300, 200, 6)  # resolves there
            if least - 1 > t:
                with pytest.raises(InfeasibleBudgetError):
                    budget_sizes(kind, plan, cls, float(least - 1), 300, 200, 6)
            continue
        assert s >= 6 and spec.words(plan, 300, 200, s, d, l) <= t * 200
        spec.check_sizes(300, 200, s, d, l)
        assert (d > 0) == spec.uses("d") and (l > 0) == spec.uses("l")


def test_budget_sizes_with_s_given_derive_d_and_l():
    # The oracle sweep's grid: at fixed s, d and l follow the same budget.
    assert budget_sizes(PipelineKind.TYUC17, _DOUBLE, None, 30.0, 80, 80, 5, s=7) == (7, 23, 0)
    assert budget_sizes(PipelineKind.TYUC17, _MIXED, None, 30.0, 80, 80, 5, s=7) == (7, 46, 0)
    assert budget_sizes(PipelineKind.TYUC17_SPI, _MIXED, None, 30.0, 80, 80, 5, s=7) == (7, 23, 30)
    assert budget_sizes(PipelineKind.TYUC17_SPI, _DOUBLE, None, 30.0, 80, 80, 5, s=7) == (7, 8, 15)
    with pytest.raises(InfeasibleBudgetError):
        budget_sizes(PipelineKind.TYUC17_SPI, _DOUBLE, None, 30.0, 80, 80, 5, s=8)  # d < s
