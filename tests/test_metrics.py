import contextlib
import dataclasses
import gc
import itertools
import math
import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchpower import guidance, matrix_core, metrics, synthetic
from sketchpower.approximators import approximate, rsvd_onepass, tyuc17, tyuc19
from sketchpower.matrix_core import lstsq
from sketchpower.metrics import (
    BoundInputsFro,
    BoundInputsSpec,
    bound_frobenius_q1,
    bound_spectral_general_q,
    canonical_angle_sines,
    evaluate,
    frobenius_event_statistic,
    oracle_sweep,
    relative_error,
    tail_energy,
)
from sketchpower.precision_model import PIPELINES, PrecisionPlan
from sketchpower.spi import SpiParams
from sketchpower.stream_ingest import LinearUpdate, PipelineKind, SketchStream, open_stream
from sketchpower.synthetic import Family, SyntheticSpec, generate, prescribed_spectrum
from sketchpower.test_matrices import GAUSSIAN, TestMatrixKind


def _noisy_lowrank(m, n, r, seed, noise=0.02):
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((m, r)))[0]
    v = np.linalg.qr(rng.standard_normal((n, r)))[0]
    return (u * np.linspace(2.0, 1.0, r)) @ v.T + noise * rng.standard_normal((m, n))


def _run_tyuc17(a, s, d, r, seed=0):
    st = open_stream(PipelineKind.TYUC17, a.shape[0], a.shape[1], s, d, base_seed=seed)
    return tyuc17(st.ingest(LinearUpdate.dense(a)).finalize(), r)


def test_relative_error_of_best_rank_r_is_zero():
    a = _noisy_lowrank(40, 30, 4, seed=0)
    u, sv, vt = np.linalg.svd(a, full_matrices=False)
    res = _run_tyuc17(a, 8, 18, 4)
    res.u, res.sv, res.v = u[:, :4], sv[:4], vt[:4].T
    rel = relative_error(a, res)
    assert abs(rel.s_f) <= 1e-10
    assert abs(rel.s_inf) <= 1e-10


def test_relative_error_zero_baseline_flag():
    rng = np.random.default_rng(1)
    u = np.linalg.qr(rng.standard_normal((30, 3)))[0]
    v = np.linalg.qr(rng.standard_normal((20, 3)))[0]
    a = (u * [3.0, 2.0, 1.0]) @ v.T  # exact rank 3
    res = _run_tyuc17(a, 6, 14, 3, seed=2)
    rel = relative_error(a, res)
    assert "zero_baseline" in rel.flags
    assert rel.s_f <= 1e-10  # absolute residual reported


def test_relative_error_of_a_result_that_fits_a_is_a_zero_baseline():
    # The rank is the result's: a rank-5 result that reconstructs a rank-5 A
    # is judged against A's rank-5 baseline, which is zero.
    a = _noisy_lowrank(25, 20, 5, seed=3, noise=0.0)
    res = _run_tyuc17(a, 8, 16, 3, seed=4)
    u, sv, vt = np.linalg.svd(a, full_matrices=False)
    res.u, res.sv, res.v = u[:, :5], sv[:5], vt[:5].T  # reconstructs A exactly
    rel = relative_error(a, res)
    assert rel.flags == frozenset({"zero_baseline"})
    assert rel.s_f <= 1e-10  # absolute residual reported


def test_relative_error_exact_fit_against_a_positive_baseline():
    # A rank-r result leaves at least A's rank-r baseline, so A's own spectrum
    # reaches exact_fit only by roundoff.  The flag is reached here with a
    # spectrum that is not A's but is taken as A's: A's leading values with a
    # tail 1e-6 of the generator's in place of A's zero one, which moves the
    # 2-norm by about 1e-12 relative, inside _SPECTRUM_RTOL.
    a = _noisy_lowrank(25, 20, 5, seed=3, noise=0.0)
    res = _run_tyuc17(a, 8, 16, 3, seed=4)
    u, sv, vt = np.linalg.svd(a, full_matrices=False)
    res.u, res.sv, res.v = u[:, :3], sv[:3], vt[:3].T
    rel = relative_error((u[:, :3] * sv[:3]) @ vt[:3], res, spectrum=np.concatenate([sv[:3], 1e-6 * sv[3:]]))
    assert rel.flags == frozenset({"exact_fit"})
    assert rel.s_f == 0.0


def test_range_extra_pythagoras():
    a = _noisy_lowrank(100, 80, 6, seed=5)
    res = _run_tyuc17(a, 10, 24, 6, seed=6)
    err = evaluate(a, res)
    base = np.linalg.norm(a - _best_rank(a, 6))
    lhs = (base * (1 + err.s_f)) ** 2
    rhs = (base * (1 + err.range_f)) ** 2 + (base * err.extra_f) ** 2
    assert abs(lhs - rhs) <= 1e-8 * lhs


def _best_rank(a, r):
    u, sv, vt = np.linalg.svd(a, full_matrices=False)
    return (u[:, :r] * sv[:r]) @ vt[:r]


def test_rsvd_extra_error_is_exactly_zero():
    a = _noisy_lowrank(50, 40, 4, seed=7)
    st = open_stream(PipelineKind.RSVD_ONEPASS, 50, 40, 10, base_seed=8)
    res = rsvd_onepass(st.ingest(LinearUpdate.row_block(0, a)).finalize(), 4)
    err = evaluate(a, res)
    assert err.extra_f == 0.0 and err.extra_s == 0.0


def test_perfect_range_gives_zero_range_error():
    a = _noisy_lowrank(40, 30, 4, seed=9)
    res = _run_tyuc17(a, 8, 18, 4, seed=10)
    u, _, _ = np.linalg.svd(a, full_matrices=False)
    res.u = u[:, :4]
    err = evaluate(a, res)
    assert abs(err.range_f) <= 1e-9


def test_range_extra_left_none_for_two_sided():
    a = _noisy_lowrank(40, 30, 4, seed=11)
    st = open_stream(PipelineKind.TYUC19, 40, 30, 8, 17, base_seed=12)
    res = tyuc19(st.ingest(LinearUpdate.dense(a)).finalize(), 4)
    err = evaluate(a, res)
    assert (err.range_f, err.range_s, err.extra_f, err.extra_s) == (None, None, None, None)
    assert err == relative_error(a, res)


def test_extra_error_needs_the_corange_test_matrix():
    a = _noisy_lowrank(40, 30, 4, seed=11)
    res = dataclasses.replace(_run_tyuc17(a, 8, 18, 4), psi=None)
    with pytest.raises(ValueError, match="result lacks the corange test matrix needed for ExtraError"):
        evaluate(a, res)
    assert relative_error(a, res) == relative_error(a, _run_tyuc17(a, 8, 18, 4))


def test_canonical_angles_identity_and_complement():
    rng = np.random.default_rng(13)
    q = np.linalg.qr(rng.standard_normal((30, 8)))[0]
    assert np.all(canonical_angle_sines(q[:, :4], q[:, :4]) <= 1e-8)
    assert np.allclose(canonical_angle_sines(q[:, :4], q[:, 4:]), 1.0, atol=1e-12)


def test_canonical_angles_planted_rotation():
    theta = 0.3
    u_true = np.zeros((10, 2))
    u_true[0, 0] = u_true[1, 1] = 1.0
    rot = np.eye(10)
    rot[0, 0] = rot[2, 2] = math.cos(theta)
    rot[0, 2], rot[2, 0] = -math.sin(theta), math.sin(theta)
    sines = canonical_angle_sines(rot @ u_true, u_true)
    assert abs(sines[-1] - math.sin(theta)) <= 1e-10
    assert sines[0] <= 1e-12


def test_canonical_angles_reorthonormalizes_with_warning():
    rng = np.random.default_rng(14)
    u = rng.standard_normal((20, 3))
    with pytest.warns(UserWarning):
        canonical_angle_sines(u, np.linalg.qr(rng.standard_normal((20, 3)))[0])


def test_tail_energy_examples():
    assert tail_energy([3.0, 2.0, 1.0], 2) == pytest.approx(math.sqrt(5.0))
    sv = np.array([3.0, 2.0, 1.0])
    assert tail_energy(sv, 1) == pytest.approx(np.linalg.norm(sv))
    assert tail_energy(sv, 4) == 0.0
    with pytest.raises(ValueError):
        tail_energy(sv, 0)
    ratios = 0.5 ** np.arange(1, 40)
    closed = math.sqrt(0.25 ** 5 * (1 - 0.25 ** 35) / (1 - 0.25))
    assert tail_energy(ratios, 5) == pytest.approx(closed, rel=1e-12)


@given(st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=1, max_size=30),
       st.integers(min_value=1, max_value=31))
@settings(max_examples=100, deadline=None)
def test_tail_energy_partition(sv, k):
    sv = np.sort(np.asarray(sv))[::-1]
    head = float(np.sum(sv[: k - 1] ** 2))
    total = float(np.sum(sv**2))
    assert head + tail_energy(sv, k) ** 2 == pytest.approx(total, rel=1e-14, abs=1e-12)


def test_frobenius_bound_epsilon_substitution():
    # Direct substitution check of the leading coefficient at rho=10, l=31.
    sv = np.concatenate([np.ones(10), 1e-9 * np.ones(40)])
    inp = BoundInputsFro(varrho=10, l=31, s=14, d=40, xi_hat=2.0, singular_values=sv)
    got = bound_frobenius_q1(inp)
    eps = 2 * 10 / (31 - 10 - 1)
    assert eps == 1.0
    lead = 40 / (40 - 14 - 1) * (1 + eps * 4.0) * np.sum(sv[10:] ** 2)
    assert got == pytest.approx(lead, rel=1e-6)  # higher-order terms negligible


def test_frobenius_bound_zero_tail():
    sv = np.concatenate([np.linspace(3, 1, 10), np.zeros(30)])
    inp = BoundInputsFro(varrho=10, l=31, s=14, d=40, xi_hat=2.0, singular_values=sv)
    assert bound_frobenius_q1(inp) == 0.0


def test_frobenius_bound_hypothesis_violations():
    sv = np.ones(50)
    with pytest.raises(ValueError):
        bound_frobenius_q1(BoundInputsFro(varrho=10, l=12, s=13, d=40, xi_hat=2.0, singular_values=sv))
    with pytest.raises(ValueError):
        bound_frobenius_q1(BoundInputsFro(varrho=10, l=31, s=14, d=15, xi_hat=2.0, singular_values=sv))
    with pytest.raises(ValueError):
        bound_frobenius_q1(BoundInputsFro(varrho=10, l=31, s=14, d=40, xi_hat=0.5, singular_values=sv))


def test_frobenius_bound_monotone_in_l():
    sv = np.concatenate([np.ones(8), 1e-3 * np.ones(60)])
    vals = [
        bound_frobenius_q1(BoundInputsFro(varrho=8, l=l, s=13, d=40, xi_hat=2.0, singular_values=sv))
        for l in range(16, 60, 4)
    ]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(vals, vals[1:]))


def test_spectral_bound_gamma3_decreasing_to_one():
    sv = np.linspace(2, 0.1, 60)
    prev = None
    for q in range(1, 12):
        out = bound_spectral_general_q(
            BoundInputsSpec(varrho=4, k=16, l=24, s=10, d=30, q=q, u=3.0, t=2.0,
                            beta=3.0, singular_values=sv)
        )
        assert out.gamma3 > 1.0
        if prev is not None:
            assert out.gamma3 < prev
        prev = out.gamma3
    assert prev < 1.2  # driven toward 1


def test_spectral_bound_rank_k_reduces_to_leading_term():
    k = 16
    sv = np.concatenate([np.linspace(2, 1, k), np.zeros(40)])
    inp = BoundInputsSpec(varrho=4, k=k, l=24, s=10, d=30, q=3, u=3.0, t=2.0,
                          beta=3.0, singular_values=sv)
    out = bound_spectral_general_q(inp)
    gamma1 = (1 + 2 * math.sqrt(3 * 10 / 21) + 2 * math.e * math.sqrt(30 * 24) / 21
              + 3 * 2 * math.e * math.sqrt(30) / 21)
    gamma2 = math.e * 24 / (24 - 16 + 1)
    want = gamma1 * gamma2 * out.gamma3 * (1 + math.sqrt(16 / 24) + 3 / math.sqrt(24)) * sv[4]
    assert out.bound == pytest.approx(want, rel=1e-12)


def test_spectral_bound_failure_probability_formula():
    sv = np.linspace(2, 0.1, 60)
    inp = BoundInputsSpec(varrho=4, k=16, l=24, s=10, d=30, q=2, u=3.0, t=2.0,
                          beta=3.0, singular_values=sv)
    out = bound_spectral_general_q(inp)
    want = 3 * math.exp(-4.5) + 2 * 2.0 ** -(30 - 10) + 2 * 2.0 ** -(24 - 16) + 2 * 2.0 ** -(10 - 4) + math.exp(-4.5)
    assert out.failure_probability == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("change, problem", [
    (dict(k=4), "hypotheses need varrho < k <= l-4, got varrho=4, k=4, l=24"),
    (dict(s=7), "hypotheses need varrho <= s-4, got varrho=4, s=7"),
    (dict(d=13), "hypotheses need d >= s+4, got d=13, s=10"),
    (dict(q=0), "need q >= 1, t >= 1, u > 0, beta > 0"),
], ids=["k", "s", "d", "q"])
def test_spectral_bound_refuses_inputs_outside_its_hypotheses(change, problem):
    inp = dict(varrho=4, k=16, l=24, s=10, d=30, q=2, u=3.0, t=2.0, beta=3.0, singular_values=np.linspace(2, 0.1, 60))
    with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
        bound_spectral_general_q(BoundInputsSpec(**{**inp, **change}))


def test_event_statistic_identity_case():
    # With an exactly rank-rho matrix the correction term vanishes and the
    # statistic is exactly 1 (the inverse of the identity).
    rng = np.random.default_rng(17)
    n, rho = 30, 4
    v = np.linalg.qr(rng.standard_normal((n, n)))[0]
    sv = np.concatenate([np.linspace(2, 1, rho), np.zeros(n - rho)])
    stat = frobenius_event_statistic(v, sv, rho, rng.standard_normal((n, 8)), rng.standard_normal((n, 12)))
    assert stat == pytest.approx(1.0, rel=1e-12)


def test_metrics_invariant_under_rotation():
    rng = np.random.default_rng(18)
    a = _noisy_lowrank(35, 28, 4, seed=19)
    res = _run_tyuc17(a, 8, 16, 4, seed=20)
    rel = relative_error(a, res)
    rot = np.linalg.qr(rng.standard_normal((35, 35)))[0]
    res_rot = _run_tyuc17(a, 8, 16, 4, seed=20)
    res_rot.u = rot @ res.u
    res_rot.q_factor = rot @ res.q_factor
    rel_rot = relative_error(rot @ a, res_rot)
    assert rel_rot.s_f == pytest.approx(rel.s_f, abs=1e-9)
    assert rel_rot.s_inf == pytest.approx(rel.s_inf, abs=1e-9)


def test_oracle_sweep_row_count_and_flat_argmin():
    spec = SyntheticSpec(Family.LOWRANK_NOISE, m=150, n=150, plateau=8, snr=1e-2, base_seed=44)
    rows = [row for q in (1, 2) for row in oracle_sweep(spec, PipelineKind.TYUC17_SPI, budget_t=36.0, r=8,
                                                        q=q, trials=8).rows]
    table = metrics.SweepTable(rows)
    feasible_s = [s for s in range(8, 19)]
    assert len(table.rows) == len(feasible_s) * 2
    best = table.best()
    assert abs(best.s - 8) <= 2  # flat data: oracle s stays at the target rank


@pytest.mark.parametrize("concurrent", [False, True])
def test_oracle_sweep_means_are_the_serial_sums_of_dense_ingests(concurrent, monkeypatch):
    # The grid points of a trial are shared with a forked child and ingest a
    # row block; the means keep the bits of a serial loop over dense updates.
    monkeypatch.setattr(matrix_core, "_TWO_CPUS", concurrent)
    spec = SyntheticSpec(Family.POLY_DECAY, m=90, n=70, plateau=5, alpha=2.0, base_seed=12)
    table = metrics.SweepTable([row for q in (1, 2) for row in oracle_sweep(
        spec, PipelineKind.TYUC17_SPI, budget_t=30.0, r=4, q=q, trials=3, plan=PrecisionPlan.MIXED_SINGLE_DOUBLE).rows])
    sums = {}
    for trial in range(3):
        a, factors = generate(spec.with_trial(trial))
        for row in table.rows:
            st = open_stream(PipelineKind.TYUC17_SPI, 90, 70, row.s, row.d, row.l, base_seed=12, trial=trial,
                             plan=PrecisionPlan.MIXED_SINGLE_DOUBLE)
            res = approximate(st.ingest(LinearUpdate.dense(a)).finalize(), 4, SpiParams(q=row.q))
            rel = relative_error(a, res, factors=factors)
            sums[(row.s, row.q)] = sums.get((row.s, row.q), np.zeros(2)) + (rel.s_f, rel.s_inf)
    assert len(table.rows) > 4
    for row in table.rows:
        mean = sums[(row.s, row.q)] / 3
        assert (row.mean_s_f, row.mean_s_inf) == (float(mean[0]), float(mean[1]))


_SWEEP_SPEC = SyntheticSpec(Family.POLY_DECAY, m=80, n=60, plateau=5, alpha=2.0, base_seed=21)


def _sweep_bytes(table):
    return [(row.s, row.d, row.l, row.q, row.mean_s_f.hex(), row.mean_s_inf.hex()) for row in table.rows]


def _fresh_sketches(spec, kind, s, d, l, trial, test_kind, plan):
    """The sketch set of a fresh stream that ingests the trial's A as one row block."""
    a, _ = generate(spec.with_trial(trial))
    stream = open_stream(kind, spec.m, spec.n, s, d, l, base_seed=spec.base_seed, trial=trial,
                         test_kind=test_kind, plan=plan)
    return stream.ingest(LinearUpdate.row_block(0, a)).finalize()


def _bits(x):
    """Type, dtype, shape and bytes of a sketch or test matrix (None if absent)."""
    if x is None:
        return None
    kind = type(x).__name__
    x = x.data if isinstance(x, matrix_core.DenseMatrix) else x.toarray() if kind == "csc_array" else x
    return kind, x.dtype.str, x.shape, np.ascontiguousarray(x).tobytes()


_SWEEP_CASES = [(algo, variant, plan) for algo in PipelineKind
                for variant in ("gaussian", "sparse_rademacher") for plan in PrecisionPlan]


@pytest.mark.parametrize("algo, variant, plan", _SWEEP_CASES)
@pytest.mark.parametrize("concurrent", [False, True])
def test_oracle_sweep_points_have_the_sketches_of_fresh_streams(algo, variant, plan, concurrent, monkeypatch):
    """Every point's sketches and test matrices have the bits of a fresh
    stream at its sizes (checked in whichever process makes the point: a
    child's failed check is made again here).  A is folded once a trial
    into all sketches, by the first point's stream; each other point folds
    exactly the sketches whose shape differs from the first point's, which
    the table rule does not let it take."""
    monkeypatch.setattr(matrix_core, "_TWO_CPUS", concurrent)
    test_kind = TestMatrixKind(variant, 0.2)
    spec = PIPELINES[algo.value]
    checked, folds, real_approximate, real_fold = [], [], metrics.approximate, SketchStream._fold_rows

    def check(sk, r, params):
        sweep_folds = len(folds)
        fresh = _fresh_sketches(_SWEEP_SPEC, algo, sk.s, sk.d, sk.l, sk.trial, test_kind, plan)
        del folds[sweep_folds:]
        for name in ("y", "w", "z", "x", "k", "omega", "psi", "phi", "gamma"):
            assert _bits(getattr(sk, name)) == _bits(getattr(fresh, name)), (sk.s, sk.d, sk.l, name)
        checked.append(sk.s)
        return real_approximate(sk, r, params)

    def fold(stream, start, pieces):
        folds.append(((stream.s, stream.d, stream.l), tuple(name for name, *_ in stream._steps)))
        return real_fold(stream, start, pieces)

    monkeypatch.setattr(metrics, "approximate", check)
    monkeypatch.setattr(SketchStream, "_fold_rows", fold)
    table = oracle_sweep(_SWEEP_SPEC, algo, budget_t=40.0, r=4, trials=2, test_kind=test_kind, plan=plan)
    assert len(table.rows) > 3 and len(checked) == 2 * len(table.rows[:: 1 + concurrent])
    # Each trial folds once into the first point's stream, which the first
    # point takes as it is.
    grid = [(row.s, row.d, row.l) for row in table.rows]
    shapes = {sizes: spec.shapes(_SWEEP_SPEC.m, _SWEEP_SPEC.n, *sizes) for sizes in grid}
    assert len(folds) == len(checked) and [sizes for sizes, _ in folds].count(grid[0]) == 2
    for sizes, folded in folds:
        assert folded == tuple(sk.name for sk in spec.sketches
                               if sizes == grid[0] or shapes[sizes][sk.name] != shapes[grid[0]][sk.name]), sizes


def _fresh_stream_table(table, algo, test_kind, plan, q, trials):
    """The table of a loop in which each point of each trial opens its own
    stream, ingests A and is evaluated."""
    sums = {}
    for trial in range(trials):
        spec = _SWEEP_SPEC.with_trial(trial)
        a, factors = generate(spec)
        for row in table.rows:
            sk = _fresh_sketches(_SWEEP_SPEC, algo, row.s, row.d, row.l, trial, test_kind, plan)
            rel = relative_error(a, approximate(sk, 4, SpiParams(q=q)), factors=factors)
            sums[row.s] = sums.get(row.s, np.zeros(2)) + (rel.s_f, rel.s_inf)
    return metrics.SweepTable([
        metrics.SweepRow(row.s, row.d, row.l, row.q, float(sums[row.s][0] / trials), float(sums[row.s][1] / trials))
        for row in table.rows
    ])


@pytest.mark.parametrize("algo, variant, plan", _SWEEP_CASES)
def test_oracle_sweep_has_the_bytes_of_fresh_streams_at_every_point(algo, variant, plan):
    """The table has the bytes of the fresh-stream loop (the points of one
    trial shared out between two processes where the host allows it)."""
    test_kind = TestMatrixKind(variant, 0.2)
    table = oracle_sweep(_SWEEP_SPEC, algo, budget_t=40.0, r=4, q=2, trials=2, test_kind=test_kind, plan=plan)
    assert {row.q for row in table.rows} == {2 if PIPELINES[algo.value].uses("l") else 0}
    assert _sweep_bytes(table) == _sweep_bytes(_fresh_stream_table(table, algo, test_kind, plan, 2, 2))


@pytest.mark.parametrize("fail", [False, True])
@pytest.mark.parametrize("concurrent", [False, True])
def test_oracle_sweep_drops_the_sketches_of_a_trial_when_it_ends(fail, concurrent, monkeypatch):
    """No sketch set of a trial, the shared one included, is alive when the
    next trial starts, nor after the sweep, also when a point raises."""
    monkeypatch.setattr(matrix_core, "_TWO_CPUS", concurrent)
    made, alive_at_start, real_finalize, real_generate = [], [], SketchStream.finalize, synthetic.generate

    def finalize(stream):
        sk = real_finalize(stream)
        made.append((weakref.ref(sk), weakref.ref(sk.y.data), weakref.ref(sk.w.data), weakref.ref(sk.z.data)))
        return sk

    def generate_trial(spec):
        alive_at_start.append(sum(ref() is not None for refs in made for ref in refs))
        return real_generate(spec)

    def fail_in_the_second_trial(a, result, **kwargs):
        if len(alive_at_start) == 2:
            raise RuntimeError("made to fail")
        return relative_error(a, result, **kwargs)

    monkeypatch.setattr(SketchStream, "finalize", finalize)
    monkeypatch.setattr(synthetic, "generate", generate_trial)
    if fail:
        monkeypatch.setattr(metrics, "relative_error", fail_in_the_second_trial)
    with pytest.raises(RuntimeError, match="made to fail") if fail else contextlib.nullcontext():
        oracle_sweep(_SWEEP_SPEC, PipelineKind.TYUC17_SPI, budget_t=24.0, r=4, trials=3)
    gc.collect()
    assert len(made) > 2 and alive_at_start == ([0, 0] if fail else [0, 0, 0])
    assert all(ref() is None for refs in made for ref in refs)


@pytest.mark.parametrize("variant", ["gaussian", "sparse_rademacher"])
@pytest.mark.parametrize("grid", [
    [(4, 20, 12), (5, 21, 12), (6, 18, 12)],  # the first point lacks the largest d
    [(4, 16, 12), (5, 15, 13), (6, 14, 14)],  # l varies
])
def test_oracle_sweep_of_an_irregular_grid_has_the_bytes_of_fresh_streams(grid, variant, monkeypatch):
    def budget_sizes(kind, plan, cls, t, m, n, r, s):
        if s > r + 2:
            raise guidance.InfeasibleBudgetError(t, t + 1)
        return grid[s - r]

    monkeypatch.setattr(guidance, "budget_sizes", budget_sizes)
    test_kind = TestMatrixKind(variant, 0.2)
    table = oracle_sweep(_SWEEP_SPEC, PipelineKind.TYUC17_SPI, budget_t=24.0, r=4, trials=2, test_kind=test_kind)
    assert [(row.s, row.d, row.l) for row in table.rows] == grid
    want = _fresh_stream_table(table, PipelineKind.TYUC17_SPI, test_kind, PrecisionPlan.MIXED_SINGLE_DOUBLE, 1, 2)
    assert _sweep_bytes(table) == _sweep_bytes(want)


@pytest.mark.parametrize("r", [True, 2.5, 2.0], ids=repr)
def test_oracle_sweep_refuses_a_rank_that_is_not_an_integer(r):
    # 2.5 used to sweep nothing and report "minimal feasible T is inf".
    with pytest.raises(ValueError, match=f"^target rank must be an integer, got {r!r}$"):
        oracle_sweep(_SWEEP_SPEC, PipelineKind.TYUC17_SPI, budget_t=24.0, r=r, trials=1)


@pytest.mark.parametrize("trials", [0, -1])
def test_oracle_sweep_needs_a_trial(trials):
    spec = SyntheticSpec(Family.LOWRANK_NOISE, m=40, n=40, plateau=3, snr=1e-2, base_seed=44)
    with pytest.raises(ValueError, match="at least one trial"):
        oracle_sweep(spec, PipelineKind.TYUC17_SPI, budget_t=20.0, r=3, trials=trials)


# -- evaluation without full SVDs ----------------------------------------------


def _clustered_residual(m, n, r, seed):
    # Low rank plus noise, with its dominant rank-r part projected out: the
    # remaining spectrum is the noise's, whose top singular values cluster.
    a = _noisy_lowrank(m, n, r, seed)
    u = np.linalg.svd(a, full_matrices=False)[0][:, :r]
    return a - u @ (u.T @ a)


@pytest.mark.parametrize(
    "x",
    [
        np.random.default_rng(30).standard_normal((120, 90)),
        np.random.default_rng(31).standard_normal((40, 150)),
        _clustered_residual(150, 110, 5, seed=32),
    ],
    ids=["random-tall", "random-wide", "clustered"],
)
def test_sigma1_helper_matches_dense_svd(x):
    fro, spec = metrics._dense_norms(x.copy())
    assert fro == np.linalg.norm(x)
    want = la.svdvals(x)[0]
    assert abs(spec - want) <= 1e-12 * want


def test_sigma1_helper_zero_matrix_is_exactly_zero():
    assert metrics._dense_norms(np.zeros((30, 20))) == (0.0, 0.0)


def test_sigma1_helper_tiny_scale():
    x = 1e-300 * np.random.default_rng(33).standard_normal((40, 30))
    fro, spec = metrics._dense_norms(x.copy())
    assert math.isfinite(spec) and spec > 0.0
    want = la.svdvals(x)[0]
    assert abs(spec - want) <= 1e-12 * want
    assert abs(fro - 1e-300 * np.linalg.norm(x / 1e-300)) <= 1e-12 * fro


@pytest.mark.parametrize("shape", [(25, 1), (1, 25)])
def test_sigma1_helper_vectors_give_two_norm(shape):
    x = np.random.default_rng(34).standard_normal(shape)
    assert metrics._dense_norms(x.copy()) == (np.linalg.norm(x), np.linalg.norm(x))


def test_sigma1_helper_is_deterministic():
    x = _clustered_residual(90, 70, 4, seed=35)
    first = metrics._dense_norms(x.copy())
    assert all(metrics._dense_norms(x.copy()) == first for _ in range(3))


def test_evaluators_hold_one_residual_and_leave_a_alone():
    # Each residual is written over the m x n array it was made in and scaled
    # there, and evaluate drops the first before it makes the second: one
    # m x n array at the peak, plus a slack of a quarter of one (fixed before
    # the first run) for the r x n and d x n products.  The caller's A is not
    # written.
    m = n = 1000
    a = generate(SyntheticSpec(Family.POLY_DECAY, m=m, n=n, base_seed=5))[0]
    before = a.copy()
    res = _run_tyuc17(a, 24, 48, 10)
    spectrum = la.svdvals(a)
    for evaluator in (relative_error, evaluate):
        tracemalloc.start()
        try:
            evaluator(a, res, spectrum=spectrum)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * m * n * 8, (evaluator.__name__, peak)
    assert a.tobytes() == before.tobytes()


def test_extra_error_reduction_matches_dense_product():
    a = _noisy_lowrank(60, 45, 4, seed=36)
    res = _run_tyuc17(a, 8, 19, 4, seed=37)
    res.u = res.u @ np.random.default_rng(38).standard_normal((4, 4))  # not orthonormal
    base_f, base_s = metrics.baselines_from_spectrum(la.svdvals(a), 4)
    err = evaluate(a, res)
    fitted = lstsq(res.psi @ res.q_factor, res.psi @ a).x
    e = res.u @ (res.u_tilde.T @ (res.q_factor.T @ a - fitted))
    assert err.extra_f * base_f == pytest.approx(np.linalg.norm(e), rel=1e-12)
    assert err.extra_s * base_s == pytest.approx(la.svdvals(e)[0], rel=1e-12)


def test_tiny_data_keeps_its_relative_errors():
    # Squares of unscaled entries used to underflow here: the baseline read 0
    # and the result came back as absolute errors with a zero_baseline flag.
    a = _noisy_lowrank(60, 50, 4, seed=40)
    res = _run_tyuc17(a, 8, 18, 4, seed=41)
    tiny = 1e-200 * a
    res_tiny = _run_tyuc17(tiny, 8, 18, 4, seed=41)
    err, err_tiny = evaluate(a, res), evaluate(tiny, res_tiny)
    assert not err_tiny.flags
    assert err_tiny.s_f == pytest.approx(err.s_f, rel=1e-12)
    assert err_tiny.range_f == pytest.approx(err.range_f, rel=1e-12)
    assert err_tiny.extra_f == pytest.approx(err.extra_f, rel=1e-12)
    assert tail_energy([3e-200, 2e-200, 1e-200], 2) == pytest.approx(math.sqrt(5) * 1e-200, rel=1e-15)


@pytest.mark.parametrize("scale", [1.0, 1e-200, 1e200])
def test_rangefinder_is_judged_alike_at_every_scale(scale):
    # qr_economy compared R's diagonal with an unscaled ||Y||_F, which read 0
    # at 1e-200 and inf (with an overflow warning) at 1e200, so a healthy
    # rangefinder came back flagged rangefinder_rank_deficient.
    a = _noisy_lowrank(60, 50, 3, seed=42)
    want = relative_error(a, _run_tyuc17(a, 6, 14, 3, seed=43)).s_f
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = _run_tyuc17(scale * a, 6, 14, 3, seed=43)
        rel = relative_error(scale * a, res)
    assert not res.flags and not rel.flags
    assert rel.s_f == pytest.approx(want, rel=1e-12)


# -- evaluation in the generator's basis ------------------------------------

_TWO_SIDED = (PipelineKind.TYUC19, PipelineKind.TYUC19_SPI)
_FACTORED_SPECS = {
    "poly": dict(family=Family.POLY_DECAY, plateau=4, alpha=1.0),
    "exp": dict(family=Family.EXP_DECAY, plateau=4, alpha=0.3),
    "lowrank": dict(family=Family.LOWRANK_NOISE, plateau=6, snr=0.0),  # k = 6 < r = 8
}


def _factored_case(data, m, n, plan, kind, r=8, seed=60):
    """Noise-free data, its generator factors and one q=1 approximation."""
    a, factors = generate(SyntheticSpec(m=m, n=n, base_seed=seed, **_FACTORED_SPECS[data]))
    stream = open_stream(kind, m, n, 10, 24, 30, base_seed=seed + 1, test_kind=GAUSSIAN, plan=plan)
    return a, factors, approximate(stream.ingest(LinearUpdate.row_block(0, a)).finalize(), r, SpiParams(q=1))


def _norm_pairs(a, factors, res):
    """(dense, factored) norms of each residual the evaluators take."""
    xu = metrics._in_basis(factors.u, res.u)
    pairs = [(metrics._residual_norms(a, res, None, None), metrics._residual_norms(a, res, factors, xu))]
    if res.kind not in _TWO_SIDED:
        pairs.append((metrics._range_residual_norms(a, res.u, None, None),
                      metrics._range_residual_norms(a, res.u, factors, xu)))
    return pairs


@pytest.mark.parametrize("kind", list(PipelineKind), ids=lambda k: k.value)
@pytest.mark.parametrize("plan", list(PrecisionPlan), ids=lambda p: p.value)
@pytest.mark.parametrize("m, n", [(70, 50), (50, 70), (60, 60)], ids=["tall", "wide", "square"])
@pytest.mark.parametrize("data", list(_FACTORED_SPECS))
def test_factored_residual_norms_match_the_dense_residual(data, m, n, plan, kind):
    # Bound fixed before the run: 1e3 eps ||A||_F absolute on every norm.
    # Under the mixed plan a thin U0 or V0 leaves the binary32 sketches'
    # rounding outside their range, which only the R_u and R_v blocks carry.
    a, factors, res = _factored_case(data, m, n, plan, kind)
    tol = 1e3 * np.finfo(np.float64).eps * np.linalg.norm(a)
    for dense, factored in _norm_pairs(a, factors, res):
        assert np.abs(np.subtract(dense, factored)).max() <= tol, (dense, factored)
    spectrum = np.pad(factors.sv, (0, min(m, n) - factors.sv.size))  # lowrank's factors omit its zeros
    factored, dense = evaluate(a, res, factors=factors), evaluate(a, res, spectrum=spectrum)
    assert factored.flags == dense.flags
    assert (factored.range_f is None) == (dense.range_f is None) == (kind in _TWO_SIDED)


def test_factored_frobenius_norm_sums_every_row_chunk():
    # The coefficient matrices here are (k + r) x k = 610 x 600 (V0 is
    # square), more rows than one row chunk of the Frobenius sum holds.
    a, factors, res = _factored_case("poly", 700, 600, PrecisionPlan.ALL_DOUBLE, PipelineKind.TYUC17)
    assert metrics._CHUNK // 600 < 610
    tol = 1e3 * np.finfo(np.float64).eps * np.linalg.norm(a)
    for dense, factored in _norm_pairs(a, factors, res):
        assert np.abs(np.subtract(dense, factored)).max() <= tol, (dense, factored)


@pytest.mark.parametrize("exponent", [-600, 600])
def test_factored_errors_are_unchanged_at_extreme_scales(exponent):
    a, factors, res = _factored_case("poly", 70, 50, PrecisionPlan.ALL_DOUBLE, PipelineKind.TYUC17)
    scaled = synthetic.Factors(factors.u, np.ldexp(factors.sv, exponent), factors.v)
    res_scaled = dataclasses.replace(res, sv=np.ldexp(res.sv, exponent))
    want = evaluate(a, res, factors=factors)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = evaluate(np.ldexp(a, exponent), res_scaled, factors=scaled)
    assert not got.flags
    assert (got.s_f, got.s_inf) == (want.s_f, want.s_inf)
    assert (got.range_f, got.range_s) == (want.range_f, want.range_s)
    assert got.extra_f == pytest.approx(want.extra_f, rel=1e-12)
    assert got.extra_s == pytest.approx(want.extra_s, rel=1e-12)


def test_factored_evaluators_make_no_m_by_n_array():
    # The coefficient matrices are never formed: the peak is one row chunk of
    # the Frobenius sum plus products with r columns, a quarter of an m x n
    # array at 1000 x 1000 where the dense residual takes a whole one.
    m = n = 1000
    a, factors = generate(SyntheticSpec(Family.POLY_DECAY, m=m, n=n, base_seed=5))
    res = _run_tyuc17(a, 24, 48, 10)
    for evaluator in (relative_error, evaluate):
        tracemalloc.start()
        try:
            evaluator(a, res, factors=factors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * metrics._CHUNK + 0.05 * m * n * 8, (evaluator.__name__, peak)


def test_factored_norms_of_zero_data_are_zero():
    # plateau 0 without noise: A = 0 and its factors are empty, so the
    # residual of any approximation is the approximation itself.
    a, factors = generate(SyntheticSpec(Family.LOWRANK_NOISE, 60, 50, plateau=0, snr=0.0))
    assert factors.sv.size == 0 and not a.any()
    res = _factored_case("poly", 60, 50, PrecisionPlan.ALL_DOUBLE, PipelineKind.TYUC17)[2]
    xu = metrics._in_basis(factors.u, res.u)
    dense = metrics._residual_norms(a, res, None, None)
    assert metrics._residual_norms(a, res, factors, xu) == pytest.approx(dense, rel=1e-12)
    assert dense == pytest.approx((np.linalg.norm(res.sv), res.sv[0]), rel=1e-12)
    assert metrics._range_residual_norms(a, res.u, factors, xu) == (0.0, 0.0)


# -- one evaluation per trial -------------------------------------------------

@pytest.mark.parametrize("kind", list(PipelineKind), ids=lambda k: k.value)
@pytest.mark.parametrize("data", ["poly", "noisy", "zero_baseline", "exact_fit"])
def test_evaluate_keeps_the_bits_of_relative_error(kind, data):
    a, factors, res = _factored_case("lowrank" if data == "zero_baseline" else "poly", 70, 50,
                                     PrecisionPlan.ALL_DOUBLE, kind)  # lowrank: rank 6 < r = 8
    spectrum = None
    if data == "noisy":  # the dense path, baselines from an SVD
        a = a + 1e-3 * np.random.default_rng(72).standard_normal(a.shape)
        factors = None
    elif data == "exact_fit":  # the generator's own rank-8 truncation, judged by a spectrum with a tail
        sv = factors.sv.copy()
        sv[8:] = 0.0
        a = (factors.u * sv) @ factors.v.T
        res = dataclasses.replace(res, u=factors.u[:, :8], sv=sv[:8], v=factors.v[:, :8])
        # Not A's spectrum (A's tail is zero), but taken as A's: see
        # test_relative_error_exact_fit_against_a_positive_baseline.
        spectrum, factors = sv + 1e-6 * factors.sv * (sv == 0.0), None
    rel = relative_error(a, res, spectrum=spectrum, factors=factors)
    err = evaluate(a, res, spectrum=spectrum, factors=factors)
    assert (err.s_f.hex(), err.s_inf.hex(), err.flags) == (rel.s_f.hex(), rel.s_inf.hex(), rel.flags)
    assert (rel.range_f, rel.range_s, rel.extra_f, rel.extra_s) == (None, None, None, None)
    split = (err.range_f, err.range_s, err.extra_f, err.extra_s)
    assert all(x is None for x in split) == (kind in _TWO_SIDED)
    want_flags = {"zero_baseline": {"zero_baseline"}, "exact_fit": {"exact_fit"}}.get(data, set())
    assert rel.flags == want_flags


def test_factored_evaluate_forms_the_generator_basis_product_once(monkeypatch):
    a, factors, res = _factored_case("poly", 70, 50, PrecisionPlan.MIXED_SINGLE_DOUBLE, PipelineKind.TYUC17_SPI)
    calls = []
    real = metrics._in_basis
    monkeypatch.setattr(metrics, "_in_basis", lambda b, q: calls.append((b, q)) or real(b, q))
    evaluate(a, res, factors=factors)
    assert [q is res.u for b, q in calls if b is factors.u] == [True]


# -- where the baselines come from -------------------------------------------

@pytest.mark.parametrize("family", [Family.POLY_DECAY, Family.EXP_DECAY, Family.LOWRANK_NOISE], ids=lambda f: f.value)
@pytest.mark.parametrize("m, n", [(60, 50), (50, 60), (45, 45)], ids=["tall", "wide", "square"])
def test_generator_spectrum_gives_the_baselines_of_the_prescribed_one(family, m, n):
    # The factors hold the prescribed spectrum's first k values (k = plateau
    # for low-rank data); the zeros it has beyond them move no baseline bit.
    for plateau, alpha in itertools.product((0, 4, 10), (0.5, 1.0, 2.0)):
        spec = SyntheticSpec(family, m=m, n=n, plateau=plateau, alpha=alpha, snr=0.0, base_seed=40)
        sv, prescribed = synthetic._factors(spec).sv, prescribed_spectrum(spec)
        for r in range(1, 41):
            got, want = metrics.baselines_from_spectrum(sv, r), metrics.baselines_from_spectrum(prescribed, r)
            assert (got[0].hex(), got[1].hex()) == (want[0].hex(), want[1].hex()), (plateau, alpha, r)


def _fields(err):
    return [x.hex() if isinstance(x, float) else x for x in dataclasses.astuple(err)]


@pytest.mark.parametrize("kind", list(PipelineKind), ids=lambda k: k.value)
@pytest.mark.parametrize("data", list(_FACTORED_SPECS))
def test_factors_and_the_prescribed_spectrum_give_the_same_errors(data, kind, monkeypatch):
    # Both take their baselines from baselines_from_spectrum, bit for bit.
    # The factored residual norms agree with the dense ones to roundoff (see
    # test_factored_residual_norms_match_the_dense_residual), so the errors
    # agree to roundoff and their flags exactly.
    spec = SyntheticSpec(m=70, n=50, base_seed=60, **_FACTORED_SPECS[data])
    a, factors, res = _factored_case(data, 70, 50, PrecisionPlan.ALL_DOUBLE, kind)
    seen, real = [], metrics.baselines_from_spectrum
    monkeypatch.setattr(metrics, "baselines_from_spectrum", lambda sv, r: seen.append(real(sv, r)) or seen[-1])
    by_factors = evaluate(a, res, factors=factors)
    by_spectrum = evaluate(a, res, spectrum=prescribed_spectrum(spec))
    assert len(seen) == 2 and [x.hex() for x in seen[0]] == [x.hex() for x in seen[1]]
    assert by_factors.flags == by_spectrum.flags == (frozenset({"zero_baseline"}) if data == "lowrank" else frozenset())
    tol = 1e3 * np.finfo(np.float64).eps * np.linalg.norm(a) / (min(seen[0]) or 1.0)  # absolute at a zero baseline
    for got, want in zip(dataclasses.astuple(by_spectrum)[:6], dataclasses.astuple(by_factors)[:6]):
        assert (got is None and want is None) or abs(got - want) <= tol, (got, want)


def test_a_noisy_trial_spectrum_gives_the_bits_of_none():
    a, factors = generate(SyntheticSpec(Family.LOWRANK_NOISE, m=50, n=40, plateau=5, snr=1e-2, base_seed=46))
    assert factors is None
    st = open_stream(PipelineKind.TYUC17_SPI, 50, 40, 8, 18, 20, base_seed=47)
    res = approximate(st.ingest(LinearUpdate.row_block(0, a)).finalize(), 5)
    for evaluator in (relative_error, evaluate):
        assert _fields(evaluator(a, res, spectrum=la.svdvals(a))) == _fields(evaluator(a, res))


def test_evaluators_refuse_a_spectrum_that_is_not_a_s():
    # Before the refusal: S_F -0.343 and range_F -0.481 unflagged for twice
    # A's spectrum, and S_F 64.4 under zero_baseline for its first three values.
    a = np.random.default_rng(1).standard_normal((60, 50))
    res = approximate(open_stream(PipelineKind.TYUC17_SPI, 60, 50, 6, 14, 14, base_seed=1)
                      .ingest(LinearUpdate.dense(a)).finalize(), 3)
    sv = la.svdvals(a)
    # A truncated or padded spectrum is refused by its size, however small
    # its tail: a wrong tail of norm t moves the 2-norm by about t^2 / (2 ||A||_F),
    # which for the first 15 values of exp-decay A (t about 1e-6) is 1e-13.
    u, _, vt = np.linalg.svd(a, full_matrices=False)
    a_exp = (u * (sv * np.exp(-np.arange(50.0)))) @ vt
    sv_exp = la.svdvals(a_exp)
    assert abs(np.linalg.norm(sv_exp[:15]) / np.linalg.norm(a_exp) - 1) < metrics._SPECTRUM_RTOL
    cases = ((a, 2 * sv, 50), (a, sv[:3], 3), (a, np.append(sv, 0.0), 51), (a_exp, sv_exp[:15], 15))
    for evaluator in (relative_error, evaluate):
        for mat, spectrum, size in cases:
            with pytest.raises(ValueError, match="spectrum is not A's") as info:
                evaluator(mat, res, spectrum=spectrum)
            got = re.fullmatch(r"spectrum is not A's: it has (\d+) values and 2-norm (\S+), "
                               r"but A has (\d+) and \|\|A\|\|_F (\S+)", str(info.value)).groups()
            assert [int(got[0]), int(got[2])] == [size, 50]
            assert [float(got[1]), float(got[3])] == pytest.approx([np.linalg.norm(spectrum), np.linalg.norm(mat)],
                                                                   rel=1e-12)
    # Within the tolerance, a spectrum is taken as A's.
    assert evaluate(a, res, spectrum=sv * (1 + 0.5 * metrics._SPECTRUM_RTOL)).flags == frozenset()


@pytest.mark.parametrize("bad", [[1.0, np.nan], [1.0, np.inf], [1.0, -1e-300]], ids=["nan", "inf", "negative"])
def test_evaluators_refuse_a_bad_spectrum_and_a_spectrum_beside_factors(bad):
    a, factors, res = _factored_case("poly", 70, 50, PrecisionPlan.ALL_DOUBLE, PipelineKind.TYUC17)
    for evaluator in (relative_error, evaluate):
        with pytest.raises(ValueError, match="finite and non-negative"):
            evaluator(a, res, spectrum=bad)
        with pytest.raises(ValueError, match="not both"):
            evaluator(a, res, spectrum=factors.sv, factors=factors)
