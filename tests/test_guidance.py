import math

import numpy as np
import pytest

from sketchpower import guidance
from sketchpower.guidance import (
    budget_sizes,
    DecayKind,
    InfeasibleBudgetError,
    SpectrumClass,
    classify_spectrum,
    lambert_w_minus1,
)
from sketchpower.precision_model import PIPELINES, PrecisionPlan
from sketchpower.stream_ingest import PipelineKind

_DOUBLE, _MIXED = PrecisionPlan.ALL_DOUBLE, PrecisionPlan.MIXED_SINGLE_DOUBLE
_FLAT = SpectrumClass(DecayKind.FLAT)
_POLY_HALF, _POLY1, _POLY2 = (SpectrumClass(DecayKind.POLY, a) for a in (0.5, 1.0, 2.0))
_EXP = SpectrumClass(DecayKind.EXP, 0.2)


def _table(cls, t, n, r, c=1):
    """The mixed-plan table's sizes at aspect ratio c = m/n: tyuc17_spi's
    mixed sketches cost half a word an entry, so one unit of its T is a d
    row and l and s cost c units each."""
    return budget_sizes(PipelineKind.TYUC17_SPI, _MIXED, cls, t, round(c * n), n, r)


def _double(cls, t, n, r, c=1):
    """(s, d) of the binary64 rule, c*s + d <= T-hat."""
    return budget_sizes(PipelineKind.TYUC17, _DOUBLE, cls, t, round(c * n), n, r)[:2]


def test_flat_rule():
    s, d, l = _table(_FLAT, 100, 1000, 10)
    assert (s, l, d) == (10, 100, 90)


def test_poly_fast_rule():
    # raw s = max(10, (3*100 - 2)/8) = 37.25, floored
    assert _table(_POLY2, 97, 1000, 10) == (37, 60, 97)


def test_exp_rule():
    assert _table(SpectrumClass(DecayKind.EXP, 0.1), 100, 1000, 10)[0] == 100 // 2
    # alpha below 1/(2T) keeps s = r
    assert _table(SpectrumClass(DecayKind.EXP, 0.004), 100, 1000, 10)[0] == 10


def test_poly_slow_and_half_band():
    def s_at(alpha):
        return _table(SpectrumClass(DecayKind.POLY, alpha), 80, 1000, 10)[0]

    assert s_at(0.3) == 10
    half = s_at(0.5)
    assert 10 <= half <= 40  # Lambert-branch value lands inside the clamp
    assert s_at(0.55) == half  # 0.55 still inside the band, same Lambert value
    assert s_at(0.56) == max(10, math.floor(((2 * 0.56 - 1) * 83 - 2) / (4 * 0.56)))


def test_budget_conservation_and_rounding_slack():
    for cls in (_FLAT, _POLY1, _EXP):
        for t in (48, 72.5, 96, 121):
            for c in (0.5, 1, 2):
                s, d, l = _table(cls, t, 2000, 10, c)
                used = (c * (l + s) + d) / 2
                assert used <= t <= used + c + 1
                assert 10 <= s <= d
                assert s < l


def test_poly_monotone_in_budget():
    ss = [_table(_POLY2, t, 1000, 10)[0] for t in range(40, 200, 8)]
    assert all(b >= a for a, b in zip(ss, ss[1:]))


def test_bad_rank_is_not_an_infeasible_budget():
    for r, m, n in ((0, 1000, 1000), (-1, 1000, 1000), (11, 10, 1000), (11, 1000, 10), (2.5, 1000, 1000),
                    (True, 1000, 1000)):
        with pytest.raises(ValueError, match="target rank") as exc:
            budget_sizes(PipelineKind.TYUC17_SPI, _MIXED, _FLAT, 100, m, n, r)
        assert not isinstance(exc.value, InfeasibleBudgetError)


def test_table_refuses_a_budget_of_at_most_2r():
    # At c = 1 the table's identity alone would give T = 2r the sizes
    # (r, r, 2r); the rule refuses it, and 2r + 1 is the least budget.
    for t in (19, 20):
        with pytest.raises(InfeasibleBudgetError) as exc:
            _table(_FLAT, t, 1000, 10)
        assert exc.value.minimal_feasible_t == 21
    assert _table(_FLAT, 21, 1000, 10) == (10, 11, 21)


def test_infeasible_budget_reports_minimal_t():
    with pytest.raises(InfeasibleBudgetError) as exc:
        _table(_FLAT, 21, 1000, 10, 30)
    least = exc.value.minimal_feasible_t
    assert least == 330
    _table(_FLAT, least, 1000, 10, 30)  # resolves there
    with pytest.raises(InfeasibleBudgetError):
        _table(_FLAT, least - 1, 1000, 10, 30)


def _counting_fit(monkeypatch):
    """Patch guidance._fit to count its calls; returns the one-entry count."""
    calls, fit = [0], guidance._fit

    def counted(*args):
        calls[0] += 1
        return fit(*args)

    monkeypatch.setattr(guidance, "_fit", counted)
    return calls


@pytest.mark.parametrize("kind", list(PipelineKind), ids=lambda k: k.value)
@pytest.mark.parametrize("cls", [_FLAT, _POLY1], ids=["flat", "poly1"])
def test_the_least_budget_at_a_large_aspect_ratio_is_exact(kind, cls, monkeypatch):
    # At 2,000,000 x 1000 no budget below about 20,000 fits r = 10: the least
    # budget is named exactly, in O(log T) fits, and it is finite.
    plan = PIPELINES[kind.value].default_plan
    calls = _counting_fit(monkeypatch)
    with pytest.raises(InfeasibleBudgetError) as exc:
        budget_sizes(kind, plan, cls, 21.0, 2_000_000, 1000, 10)
    least = exc.value.minimal_feasible_t
    assert calls[0] <= 64 and math.isfinite(least) and least > 21
    budget_sizes(kind, plan, cls, float(least), 2_000_000, 1000, 10)  # resolves there
    with pytest.raises(InfeasibleBudgetError):
        budget_sizes(kind, plan, cls, float(least - 1), 2_000_000, 1000, 10)


@pytest.mark.parametrize("plan", [_DOUBLE, _MIXED], ids=lambda p: p.value)
def test_a_budget_no_sizes_fit_at_all_names_inf(plan, monkeypatch):
    # tyuc17 needs s >= r + 2, which s <= min(m, n) = r + 1 cannot give; a
    # given s below r fails every budget.  The doubling stops at a float's range.
    calls = _counting_fit(monkeypatch)
    for kind, r, s in ((PipelineKind.TYUC17, 49, None), (PipelineKind.TYUC19, 10, 5)):
        calls[0] = 0
        with pytest.raises(InfeasibleBudgetError, match="minimal feasible T is inf"):
            budget_sizes(kind, plan, _POLY1, 21.0, 60, 50, r, s=s)
        assert calls[0] < 1100


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


@pytest.mark.parametrize("sv", [[np.nan] * 12, [np.inf] + [1 / i for i in range(2, 13)]], ids=["nan", "inf"])
def test_classify_refuses_non_finite_values(sv):
    # Both used to come back FLAT, and --guidance auto sized sketches from that.
    with pytest.raises(ValueError, match="must be finite"):
        classify_spectrum(sv)


@pytest.mark.parametrize("kind, alpha", [(DecayKind.POLY, 0.0), (DecayKind.EXP, -0.5), (DecayKind.POLY, None)])
def test_a_decaying_spectrum_class_needs_a_positive_rate(kind, alpha):
    with pytest.raises(ValueError, match=f"^{kind.value} decay requires alpha > 0, got {alpha}$"):
        SpectrumClass(kind, alpha)


def test_double_rule_respects_budget():
    for t_hat in (40, 60, 96):
        s, d = _double(_POLY1, float(t_hat), 1000, 10)
        assert s + d <= t_hat
        assert d >= s + 2
        assert s >= 12


def test_double_rule_keeps_s_within_n():
    # The budget lets s run to (T-hat - 2)/2 = 499, past the n + 1 entries of
    # the model spectrum; s stops at n.
    s, d = _double(_POLY1, 1000.0, 100, 5)
    assert 5 + 2 <= s <= 100 and s + d <= 1000 and d >= s + 2


def test_budget_sizes_keep_the_table_rules_where_they_fit():
    assert _table(_POLY1, 96, 1000, 10) == (24, 72, 96)
    # binary64 entries cost twice: the mixed table's sizes at half the budget
    assert budget_sizes(PipelineKind.TYUC17_SPI, _DOUBLE, _POLY1, 96.0, 1000, 1000, 10) == _table(
        _POLY1, 48, 1000, 10) == (12, 36, 48)
    assert budget_sizes(PipelineKind.TYUC17, _DOUBLE, _POLY1, 96.0, 1000, 1000, 10) == (28, 68, 0)
    # The variant stores no Y: same rule, s lowered to l/2.
    fast = SpectrumClass(DecayKind.EXP, 0.5)
    s, d, l = budget_sizes(PipelineKind.TYUC17_SPI_VARIANT, _MIXED, fast, 60.0, 2000, 1000, 5)
    assert s == l // 2 < _table(fast, 60, 1000, 5, 2)[0]


# Pinned budget_sizes results: the sizes, or the least budget an
# InfeasibleBudgetError names.
_PINNED = [
    (PipelineKind.TYUC17, _DOUBLE, _POLY1, 96.0, 1000, 1000, 10, (28, 68, 0)),
    (PipelineKind.TYUC17, _DOUBLE, _FLAT, 40.0, 300, 200, 5, (10, 25, 0)),
    (PipelineKind.TYUC17, _DOUBLE, _EXP, 32.0, 60, 50, 4, (11, 18, 0)),
    (PipelineKind.TYUC17, _DOUBLE, _POLY_HALF, 60.0, 400, 400, 10, (19, 41, 0)),
    (PipelineKind.TYUC17, _DOUBLE, _POLY2, 12.0, 400, 400, 10, 26),
    (PipelineKind.TYUC17, _MIXED, _POLY1, 96.0, 1000, 1000, 10, (41, 110, 0)),
    (PipelineKind.TYUC17, _MIXED, _FLAT, 40.0, 300, 200, 5, (13, 41, 0)),
    (PipelineKind.TYUC17, _MIXED, _EXP, 32.0, 60, 50, 4, (16, 25, 0)),
    (PipelineKind.TYUC17, _MIXED, _POLY_HALF, 60.0, 400, 400, 10, (24, 72, 0)),
    (PipelineKind.TYUC17, _MIXED, _POLY2, 12.0, 400, 400, 10, 19),
    (PipelineKind.TYUC17_SPI, _DOUBLE, _POLY1, 96.0, 1000, 1000, 10, (12, 36, 48)),
    (PipelineKind.TYUC17_SPI, _DOUBLE, _FLAT, 40.0, 300, 200, 5, (5, 13, 13)),
    (PipelineKind.TYUC17_SPI, _DOUBLE, _EXP, 32.0, 60, 50, 4, (7, 8, 13)),
    (PipelineKind.TYUC17_SPI, _DOUBLE, _POLY_HALF, 60.0, 400, 400, 10, (10, 20, 30)),
    (PipelineKind.TYUC17_SPI, _DOUBLE, _POLY2, 12.0, 400, 400, 10, 41),
    (PipelineKind.TYUC17_SPI, _MIXED, _POLY1, 96.0, 1000, 1000, 10, (24, 72, 96)),
    (PipelineKind.TYUC17_SPI, _MIXED, _FLAT, 40.0, 300, 200, 5, (5, 33, 26)),
    (PipelineKind.TYUC17_SPI, _MIXED, _EXP, 32.0, 60, 50, 4, (14, 16, 26)),
    (PipelineKind.TYUC17_SPI, _MIXED, _POLY_HALF, 60.0, 400, 400, 10, (10, 50, 60)),
    (PipelineKind.TYUC17_SPI, _MIXED, _POLY2, 12.0, 400, 400, 10, 21),
    (PipelineKind.TYUC17_SPI_VARIANT, _DOUBLE, _POLY1, 96.0, 1000, 1000, 10, (12, 36, 48)),
    (PipelineKind.TYUC17_SPI_VARIANT, _DOUBLE, _FLAT, 40.0, 300, 200, 5, (5, 13, 13)),
    (PipelineKind.TYUC17_SPI_VARIANT, _DOUBLE, _EXP, 32.0, 60, 50, 4, (6, 8, 13)),
    (PipelineKind.TYUC17_SPI_VARIANT, _DOUBLE, _POLY_HALF, 60.0, 400, 400, 10, (10, 20, 30)),
    (PipelineKind.TYUC17_SPI_VARIANT, _DOUBLE, _POLY2, 12.0, 400, 400, 10, 41),
    (PipelineKind.TYUC17_SPI_VARIANT, _MIXED, _POLY1, 96.0, 1000, 1000, 10, (24, 72, 96)),
    (PipelineKind.TYUC17_SPI_VARIANT, _MIXED, _FLAT, 40.0, 300, 200, 5, (5, 33, 26)),
    (PipelineKind.TYUC17_SPI_VARIANT, _MIXED, _EXP, 32.0, 60, 50, 4, (13, 16, 26)),
    (PipelineKind.TYUC17_SPI_VARIANT, _MIXED, _POLY_HALF, 60.0, 400, 400, 10, (10, 50, 60)),
    (PipelineKind.TYUC17_SPI_VARIANT, _MIXED, _POLY2, 12.0, 400, 400, 10, 21),
    (PipelineKind.RSVD_ONEPASS, _DOUBLE, _POLY1, 96.0, 1000, 1000, 10, (48, 0, 0)),
    (PipelineKind.RSVD_ONEPASS, _DOUBLE, _EXP, 32.0, 60, 50, 4, (14, 0, 0)),
    (PipelineKind.RSVD_ONEPASS, _DOUBLE, _POLY2, 12.0, 400, 400, 10, 20),
    (PipelineKind.RSVD_ONEPASS, _MIXED, _POLY1, 96.0, 1000, 1000, 10, (96, 0, 0)),
    (PipelineKind.RSVD_ONEPASS, _MIXED, _EXP, 32.0, 60, 50, 4, (29, 0, 0)),
    (PipelineKind.RSVD_ONEPASS, _MIXED, _POLY2, 12.0, 400, 400, 10, (12, 0, 0)),
    (PipelineKind.TYUC19, _DOUBLE, _POLY1, 96.0, 1000, 1000, 10, (44, 88, 0)),
    (PipelineKind.TYUC19, _DOUBLE, _EXP, 32.0, 60, 50, 4, (10, 20, 0)),
    (PipelineKind.TYUC19, _DOUBLE, _POLY2, 12.0, 400, 400, 10, 21),
    (PipelineKind.TYUC19, _MIXED, _POLY1, 96.0, 1000, 1000, 10, (74, 148, 0)),
    (PipelineKind.TYUC19, _MIXED, _EXP, 32.0, 60, 50, 4, (14, 28, 0)),
    (PipelineKind.TYUC19, _MIXED, _POLY2, 12.0, 400, 400, 10, (10, 20, 0)),
    (PipelineKind.TYUC19_SPI, _DOUBLE, _POLY1, 96.0, 1000, 1000, 10, (23, 46, 46)),
    (PipelineKind.TYUC19_SPI, _DOUBLE, _EXP, 32.0, 60, 50, 4, (6, 12, 12)),
    (PipelineKind.TYUC19_SPI, _DOUBLE, _POLY2, 12.0, 400, 400, 10, 41),
    (PipelineKind.TYUC19_SPI, _MIXED, _POLY1, 96.0, 1000, 1000, 10, (44, 88, 88)),
    (PipelineKind.TYUC19_SPI, _MIXED, _EXP, 32.0, 60, 50, 4, (10, 20, 20)),
    (PipelineKind.TYUC19_SPI, _MIXED, _POLY2, 12.0, 400, 400, 10, 21),
]


@pytest.mark.parametrize("kind, plan, cls, t, m, n, r, want", _PINNED)
def test_budget_sizes_keep_their_pinned_results(kind, plan, cls, t, m, n, r, want):
    if isinstance(want, tuple):
        assert budget_sizes(kind, plan, cls, t, m, n, r) == want
    else:
        with pytest.raises(InfeasibleBudgetError) as exc:
            budget_sizes(kind, plan, cls, t, m, n, r)
        assert exc.value.minimal_feasible_t == want


@pytest.mark.parametrize("kind", list(PipelineKind), ids=lambda k: k.value)
@pytest.mark.parametrize("plan", [_DOUBLE, _MIXED], ids=lambda p: p.value)
def test_a_larger_budget_resolves_once_a_smaller_one_does(kind, plan):
    # Two rules reach past their domain at large budgets: the table's s past
    # min(m, n) (poly 2) and the alpha ~ 1/2 rule past W_-1's branch point
    # (poly 0.5).  Refused there, every larger budget would be refused too.
    # At 2000x100 the table's saturated s = T/(c+1) can round to l = T/c
    # (exp 0.2 and 0.5), where the table would refuse a budget between two
    # that resolve.
    budgets = [*range(8, 200, 6), 48, 72.5, 96, 150, 250, 400, 600, 1000, 1500, 2000, 3000, 5000]
    cases = [(cls, m, n, r) for cls in (_FLAT, _POLY_HALF, _POLY1, _POLY2, _EXP)
             for m, n, r in ((400, 400, 10), (300, 200, 6))]
    cases += [(cls, 2000, 100, r) for cls in (_EXP, SpectrumClass(DecayKind.EXP, 0.5)) for r in (1, 4)]
    # The least-budget search bisects on this at large aspect ratios too.
    tall = [(cls, c * 100, 100, r) for cls in (_FLAT, _POLY_HALF, _EXP) for c in (500, 2000) for r in (1, 4)]
    tall_budgets = [*budgets, *np.geomspace(5000, 2e5, 40).round()]
    for cls, m, n, r in cases + tall:
        resolved = None
        for t in sorted(tall_budgets if m >= 500 * n else budgets):
            try:
                budget_sizes(kind, plan, cls, float(t), m, n, r)
            except InfeasibleBudgetError as exc:
                assert resolved is None, (cls, m, n, r, t, resolved, exc.minimal_feasible_t)
                continue
            resolved = resolved or t


def test_budgets_past_the_s_cap_and_the_branch_point_resolve():
    assert _table(_POLY2, 1000, 400, 10) == (375, 625, 1000)
    assert _table(_POLY2, 2000, 400, 10) == (400, 1250, 2000)  # s capped at n; d and l from the table's s
    assert budget_sizes(PipelineKind.TYUC17_SPI, _DOUBLE, _POLY_HALF, 400.0, 400, 400, 10) == (26, 174, 200)
    assert budget_sizes(PipelineKind.TYUC17_SPI, _DOUBLE, _POLY_HALF, 2000.0, 400, 400, 10) == (400, 500, 1000)
    assert budget_sizes(PipelineKind.TYUC17_SPI, _DOUBLE, _POLY2, 1e6, 300, 200, 6) == (200, 275000, 333333)


def test_the_table_keeps_s_below_l_at_a_large_aspect_ratio():
    # c = 20: floor(T/21) = floor(T/20) at these budgets, so the saturated s
    # stops one short of l.
    exp_half = SpectrumClass(DecayKind.EXP, 0.5)
    assert _table(exp_half, 48, 100, 1, c=20) == (1, 36, 2)
    assert _table(exp_half, 150, 100, 1, c=20) == (6, 40, 7)
    assert _table(exp_half, 40, 100, 1, c=20) == (1, 20, 2)  # floor(40/21) < floor(40/20)


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
