import math

import numpy as np
import pytest

from sketchpower.guidance import (
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
    s, d, l = select_sizes(SpectrumClass(DecayKind.FLAT), 100, 1000, 10)
    assert (s, l, d) == (10, 100, 90)


def test_poly_fast_rule():
    # raw s = max(10, (3*100 - 2)/8) = 37.25, floored
    assert select_sizes(SpectrumClass(DecayKind.POLY, 2.0), 97, 1000, 10) == (37, 60, 97)


def test_exp_rule():
    assert select_sizes(SpectrumClass(DecayKind.EXP, 0.1), 100, 1000, 10)[0] == 100 // 2
    # alpha below 1/(2T) keeps s = r
    assert select_sizes(SpectrumClass(DecayKind.EXP, 0.004), 100, 1000, 10)[0] == 10


def test_poly_slow_and_half_band():
    def s_at(alpha):
        return select_sizes(SpectrumClass(DecayKind.POLY, alpha), 80, 1000, 10)[0]

    assert s_at(0.3) == 10
    half = s_at(0.5)
    assert 10 <= half <= 40  # Lambert-branch value lands inside the clamp
    assert s_at(0.55) == half  # 0.55 still inside the band, same Lambert value
    assert s_at(0.56) == max(10, math.floor(((2 * 0.56 - 1) * 83 - 2) / (4 * 0.56)))


def test_budget_conservation_and_rounding_slack():
    for cls in (SpectrumClass(DecayKind.FLAT), SpectrumClass(DecayKind.POLY, 1.0),
                SpectrumClass(DecayKind.EXP, 0.2)):
        for t in (48, 72.5, 96, 121):
            for c in (0.5, 1.0, 2.0):
                s, d, l = select_sizes(cls, t, 2000, 10, c)
                used = (c * (l + s) + d) / 2
                assert used <= t <= used + c + 1
                assert 10 <= s <= d
                assert s < l


def test_poly_monotone_in_budget():
    cls = SpectrumClass(DecayKind.POLY, 2.0)
    ss = [select_sizes(cls, t, 1000, 10)[0] for t in range(40, 200, 8)]
    assert all(b >= a for a, b in zip(ss, ss[1:]))


def test_select_sizes_rejects_bad_budget_rank_and_aspect():
    flat = SpectrumClass(DecayKind.FLAT)
    for t, r, c in ((20, 10, 1.0), (21, 0, 1.0), (21, 10, 0.0), (21, 10, -1.0)):
        with pytest.raises(ValueError) as exc:
            select_sizes(flat, t, 1000, r, c)
        assert not isinstance(exc.value, InfeasibleBudgetError)


def test_infeasible_budget_reports_minimal_t():
    with pytest.raises(InfeasibleBudgetError) as exc:
        select_sizes(SpectrumClass(DecayKind.FLAT), 21, 1000, 10, 30.0)
    assert exc.value.minimal_feasible_t > 21
    least = exc.value.minimal_feasible_t
    select_sizes(SpectrumClass(DecayKind.FLAT), least, 1000, 10, 30.0)  # resolves there


def test_infeasible_budget_never_names_itself():
    # No T up to 2r + 10000 resolves at c = 2000: report inf, not T itself.
    with pytest.raises(InfeasibleBudgetError, match="minimal feasible T is inf") as exc:
        select_sizes(SpectrumClass(DecayKind.FLAT), 21, 1000, 10, 2000.0)
    assert exc.value.minimal_feasible_t == math.inf


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


def test_select_sizes_double_keeps_s_within_n():
    # The budget lets s run to (T-hat - 2)/2 = 499, past the n + 1 entries of
    # the model spectrum; s stops at n.
    s, d = select_sizes_double(SpectrumClass(DecayKind.POLY, 1.0), 1000.0, 100, 5)
    assert 5 + 2 <= s <= 100 and s + d <= 1000 and d >= s + 2


def test_budget_sizes_keep_the_table_rules_where_they_fit():
    poly = SpectrumClass(DecayKind.POLY, 1.0)
    mixed = select_sizes(poly, 96, 1000, 10)
    assert budget_sizes(PipelineKind.TYUC17_SPI, _MIXED, poly, 96.0, 1000, 1000, 10) == mixed == (24, 72, 96)
    half = select_sizes(poly, 48, 1000, 10)  # binary64 entries cost twice
    assert budget_sizes(PipelineKind.TYUC17_SPI, _DOUBLE, poly, 96.0, 1000, 1000, 10) == half
    assert budget_sizes(PipelineKind.TYUC17, _DOUBLE, poly, 96.0, 1000, 1000, 10) == (
        *select_sizes_double(poly, 96.0, 1000, 10), 0)
    # The variant stores no Y: same rule, s lowered to l/2.
    fast = SpectrumClass(DecayKind.EXP, 0.5)
    s, d, l = budget_sizes(PipelineKind.TYUC17_SPI_VARIANT, _MIXED, fast, 60.0, 2000, 1000, 5)
    assert s == l // 2 < select_sizes(fast, 60, 1000, 5, 2.0)[0]


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


@pytest.mark.parametrize("kind", list(PipelineKind), ids=lambda k: k.value)
@pytest.mark.parametrize("plan", [_DOUBLE, _MIXED], ids=lambda p: p.value)
def test_huge_budget_is_infeasible_where_its_sizes_overflow(kind, plan):
    # 2T overflowed in _mixed_sizes, and tyuc17's d of 1e308 rows overflowed
    # the word count: both raised OverflowError.  The kinds that spend the
    # budget on d and l have no sizes there; the others take the largest s.
    cls = SpectrumClass(DecayKind.POLY, 2.0)
    for s in (None, 6):
        if kind in (PipelineKind.TYUC17, PipelineKind.TYUC17_SPI, PipelineKind.TYUC17_SPI_VARIANT):
            with pytest.raises(InfeasibleBudgetError, match="minimal feasible T is inf"):
                budget_sizes(kind, plan, cls, 1e308, 300, 200, 6, s=s)
        else:
            assert budget_sizes(kind, plan, cls, 1e308, 300, 200, 6, s=s) == budget_sizes(
                kind, plan, cls, 1e6, 300, 200, 6, s=s)


@pytest.mark.parametrize("plan", [_DOUBLE, _MIXED], ids=lambda p: p.value)
def test_tyuc17_sizes_of_a_wide_matrix_resolve_or_are_infeasible(plan):
    # With m < n the tyuc17 rule's s is capped at min(m, n).  Uncapped, the
    # least-budget search of a budget whose s outgrew m reached budgets whose
    # s outgrew the model spectrum, and failed with an IndexError.
    spec = PIPELINES["tyuc17"]
    classes = [SpectrumClass(DecayKind.FLAT)] + [
        SpectrumClass(kind, alpha)
        for kind, alpha in ((DecayKind.POLY, 0.5), (DecayKind.POLY, 1.0), (DecayKind.POLY, 2.0),
                            (DecayKind.EXP, 0.2), (DecayKind.EXP, 0.5))
    ]
    for t in range(8, 201, 4):
        for r in (5, 10):
            for cls in classes:
                try:
                    s, d, l = budget_sizes(PipelineKind.TYUC17, plan, cls, float(t), 100, 200, r)
                except InfeasibleBudgetError:
                    continue
                assert r <= s <= 100 and spec.words(plan, 100, 200, s, d, l) <= t * 200
                spec.check_sizes(100, 200, s, d, l)
    want = (100, 110, 0) if plan is _DOUBLE else (100, 220, 0)
    assert budget_sizes(PipelineKind.TYUC17, plan, SpectrumClass(DecayKind.EXP, 0.2), 160.0, 100, 200, 5) == want


def test_budget_sizes_with_s_given_derive_d_and_l():
    # The oracle sweep's grid: at fixed s, d and l follow the same budget.
    assert budget_sizes(PipelineKind.TYUC17, _DOUBLE, None, 30.0, 80, 80, 5, s=7) == (7, 23, 0)
    assert budget_sizes(PipelineKind.TYUC17, _MIXED, None, 30.0, 80, 80, 5, s=7) == (7, 46, 0)
    assert budget_sizes(PipelineKind.TYUC17_SPI, _MIXED, None, 30.0, 80, 80, 5, s=7) == (7, 23, 30)
    assert budget_sizes(PipelineKind.TYUC17_SPI, _DOUBLE, None, 30.0, 80, 80, 5, s=7) == (7, 8, 15)
    with pytest.raises(InfeasibleBudgetError):
        budget_sizes(PipelineKind.TYUC17_SPI, _DOUBLE, None, 30.0, 80, 80, 5, s=8)  # d < s


@pytest.mark.parametrize("kind", [PipelineKind.TYUC17, PipelineKind.TYUC17_SPI])
@pytest.mark.parametrize("plan", [_DOUBLE, _MIXED])
@pytest.mark.parametrize("m, n", [(400, 400), (500, 300), (300, 500), (1000, 600), (203, 157)])
def test_oracle_sweep_grids_have_one_l_and_their_largest_d_first(kind, plan, m, n):
    """The oracle sweep shares the first point's sketches with the rest of
    its grid (s = r, r+1, ... while the sizes fit), which needs these two."""
    grids = 0
    for t in (12, 20, 30, 40, 50, 60, 80, 100, 150):
        for r in (2, 5, 10):
            grid = []
            for s in range(r, min(m, n) + 1):
                try:
                    grid.append(budget_sizes(kind, plan, None, t, m, n, r, s=s))
                except InfeasibleBudgetError:
                    break
            if grid:
                grids += 1
                assert len({l for _, _, l in grid}) == 1, grid
                assert max(d for _, d, _ in grid) == grid[0][1], grid
    assert grids >= 20
