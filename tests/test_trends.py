"""Desk-scale reproductions of the reported qualitative trends.

Statistical checks with pinned seeds: each asserts an ordering or a band,
never an exact value.
"""
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from sketchpower import metrics, synthetic
from sketchpower.approximators import tyuc17, tyuc17_spi, tyuc17_spi_variant, tyuc19, tyuc19_spi
from sketchpower.guidance import DecayKind, SpectrumClass, budget_sizes
from sketchpower.precision_model import PrecisionPlan
from sketchpower.spi import SpiParams
from sketchpower.stream_ingest import LinearUpdate, PipelineKind, open_stream
from sketchpower.test_matrices import GAUSSIAN, SeedSpec, Stream, generate


@dataclass
class DistortionResult:
    ratios: np.ndarray
    skipped: int = 0


def distortion_ratio(a, phi) -> DistortionResult:
    """Elementwise sigma_i(A Phi) / sigma_i(A) over the shared index range.

    Singular values of A that are numerically zero (below 1e-13 of the
    largest) are skipped and counted in ``skipped``.
    """
    sv_a = la.svdvals(a, check_finite=False)
    sv_s = la.svdvals(a @ phi, check_finite=False)
    k = min(sv_a.size, sv_s.size)
    keep = sv_a[:k] > 1e-13 * (sv_a[0] if sv_a.size else 0.0)
    return DistortionResult(ratios=sv_s[:k][keep] / sv_a[:k][keep], skipped=int(k - keep.sum()))


def _mean_sf(algo_fn, spec, trials, make_sketch):
    vals = []
    for t in range(trials):
        a = synthetic.generate(spec.with_trial(t))[0]
        res = algo_fn(make_sketch(a, t), t)
        vals.append(metrics.relative_error(a, res).s_f)
    return float(np.mean(vals))


def _guided(kind, cls, t_hat, n, r):
    """The sizes --guidance auto resolves for an n x n matrix under the kind's
    default plan: the mixed-plan table for tyuc17_spi, the binary64 rule's
    (s, d) for tyuc17."""
    if kind is PipelineKind.TYUC17:
        return budget_sizes(kind, PrecisionPlan.ALL_DOUBLE, cls, float(t_hat), n, n, r)[:2]
    return budget_sizes(kind, PrecisionPlan.MIXED_SINGLE_DOUBLE, cls, float(t_hat), n, n, r)


def test_plain_pipeline_error_positive_and_decreasing_in_budget():
    # Medium-noise flat data: the mean relative error stays positive and
    # shrinks as the storage budget grows.
    r, n, trials = 10, 400, 8
    cls = SpectrumClass(DecayKind.FLAT)
    spec = synthetic.SyntheticSpec(synthetic.Family.LOWRANK_NOISE, n, n, plateau=r, snr=1e-2, base_seed=500)
    means = []
    for t_hat in (30, 60):
        s, d = _guided(PipelineKind.TYUC17, cls, t_hat, n, r)

        def sketch(a, t):
            st = open_stream(PipelineKind.TYUC17, n, n, s, d, base_seed=600 + t_hat, trial=t)
            return st.ingest(LinearUpdate.dense(a)).finalize()

        means.append(_mean_sf(lambda sk, t: tyuc17(sk, r), spec, trials, sketch))
    assert means[0] > means[1] > 0.0


def test_powered_pipeline_dominates_on_high_noise():
    # High-noise flat data at a fixed budget: the best power count q in
    # {1,2,3} gives a strictly smaller mean error than the plain pipeline.
    r, n, t_hat, trials = 10, 400, 60, 10
    cls = SpectrumClass(DecayKind.FLAT)
    spec = synthetic.SyntheticSpec(synthetic.Family.LOWRANK_NOISE, n, n, plateau=r, snr=0.1, base_seed=700)
    s2, d2 = _guided(PipelineKind.TYUC17, cls, t_hat, n, r)
    s, d, l = _guided(PipelineKind.TYUC17_SPI, cls, t_hat, n, r)
    plain, powered = [], {1: [], 2: [], 3: []}
    for t in range(trials):
        a = synthetic.generate(spec.with_trial(t))[0]
        spectrum = la.svdvals(a, check_finite=False)
        st = open_stream(PipelineKind.TYUC17, n, n, s2, d2, base_seed=800, trial=t)
        res = tyuc17(st.ingest(LinearUpdate.dense(a)).finalize(), r)
        plain.append(metrics.relative_error(a, res, spectrum=spectrum).s_f)
        st = open_stream(PipelineKind.TYUC17_SPI, n, n, s, d, l,
                         base_seed=801, trial=t, plan=PrecisionPlan.MIXED_SINGLE_DOUBLE)
        sk = st.ingest(LinearUpdate.dense(a)).finalize()
        for q in powered:
            res = tyuc17_spi(sk, SpiParams(q=q), r)
            powered[q].append(metrics.relative_error(a, res, spectrum=spectrum).s_f)
    best_powered = min(float(np.mean(v)) for v in powered.values())
    assert best_powered < float(np.mean(plain))


def test_two_sided_powered_pipeline_improves_on_two_sided():
    # Medium polynomial decay at an equal storage budget.
    r, n, t_hat, trials = 10, 400, 60, 8
    s = 1
    while 2 * s * n + 4 * s * s <= t_hat * n:
        s += 1
    s -= 1
    f19, f19s = [], []
    for t in range(trials):
        spec = synthetic.SyntheticSpec(synthetic.Family.POLY_DECAY, n, n, plateau=r, alpha=1.0,
                                       base_seed=900, trial=t)
        a, factors = synthetic.generate(spec)
        st = open_stream(PipelineKind.TYUC19, n, n, s, 2 * s, base_seed=901, trial=t)
        res = tyuc19(st.ingest(LinearUpdate.dense(a)).finalize(), r)
        f19.append(metrics.relative_error(a, res, factors=factors).s_f)
        l = d = 2 * s
        st = open_stream(PipelineKind.TYUC19_SPI, n, n, s, d, l, base_seed=902, trial=t,
                         plan=PrecisionPlan.MIXED_SINGLE_DOUBLE)
        sk = st.ingest(LinearUpdate.dense(a)).finalize()
        res = tyuc19_spi(sk, SpiParams(q=1), r)
        f19s.append(metrics.relative_error(a, res, factors=factors).s_f)
    assert float(np.mean(f19s)) <= float(np.mean(f19))


def test_fast_exp_mixed_precision_floor():
    # Fast exponential decay at a large budget: the binary32 sketch noise
    # pins the mixed pipeline to a plateau far above the binary64 error
    # floor, and the plain binary64 pipeline overtakes it at equal budget.
    # The corange sketch gets a little oversampling (d = s + 10) to keep the
    # solve away from its square-boundary instability so the measurement
    # isolates the precision floor.
    r, n, t_hat = 10, 500, 200
    spec = synthetic.SyntheticSpec(synthetic.Family.EXP_DECAY, n, n, plateau=r, alpha=0.5, base_seed=1000)
    a, factors = synthetic.generate(spec)
    cls = SpectrumClass(DecayKind.EXP, 0.5)
    s, d, l = _guided(PipelineKind.TYUC17_SPI, cls, t_hat, n, r)
    s_v = min(s, l // 2)
    out = {}
    for plan in PrecisionPlan:
        vals = []
        for t in range(5):
            st = open_stream(PipelineKind.TYUC17_SPI_VARIANT, n, n, s_v, d + 10, l,
                             base_seed=1001, trial=t, plan=plan)
            sk = st.ingest(LinearUpdate.dense(a)).finalize()
            res = tyuc17_spi_variant(sk, SpiParams(q=1), r)
            vals.append(metrics.relative_error(a, res, factors=factors).s_f)
        out[plan] = float(np.mean(vals))
    mixed = out[PrecisionPlan.MIXED_SINGLE_DOUBLE]
    assert 1e-7 <= mixed <= 1e-3  # binary32 noise-floor band
    assert mixed > 10 * 2.2e-16  # far above the binary64 accuracy floor
    assert mixed > out[PrecisionPlan.ALL_DOUBLE]

    s2, d2 = _guided(PipelineKind.TYUC17, cls, t_hat, n, r)
    vals = []
    for t in range(5):
        st = open_stream(PipelineKind.TYUC17, n, n, s2, d2, base_seed=1003, trial=t)
        res = tyuc17(st.ingest(LinearUpdate.dense(a)).finalize(), r)
        vals.append(metrics.relative_error(a, res, factors=factors).s_f)
    assert mixed >= float(np.mean(vals))  # binary64 wins this regime


def test_power_sketch_spectrum_decays_faster():
    # Mean distortion ratios sigma_i(A Phi)/sigma_i(A) fall with the index
    # beyond the signal plateau.
    n, emb, trials, plateau = 300, 20, 10, 10
    acc = np.zeros(emb)
    for t in range(trials):
        spec = synthetic.SyntheticSpec(synthetic.Family.LOWRANK_NOISE, n, n, plateau=plateau,
                                       snr=0.1, base_seed=1100, trial=t)
        a = synthetic.generate(spec)[0]
        phi = generate(GAUSSIAN, n, emb, SeedSpec(1101, Stream.PHI, t))
        acc += distortion_ratio(a, phi).ratios / trials
    tail = acc[plateau:]
    assert tail[0] > tail[len(tail) // 2] > tail[-1]


def test_guidance_near_oracle_medium_poly():
    # Completes the near-oracle coverage for the alpha = 1 decay class.
    spec = synthetic.SyntheticSpec(synthetic.Family.POLY_DECAY, 400, 400, plateau=10,
                                   alpha=1.0, base_seed=55)
    table = metrics.oracle_sweep(spec, PipelineKind.TYUC17_SPI, 60.0, 10, q=1, trials=10)
    best = table.best()
    guided_s = _guided(PipelineKind.TYUC17_SPI, SpectrumClass(DecayKind.POLY, 1.0), 60, 400, 10)[0]
    guided = next(row for row in table.rows if row.s == guided_s)
    assert guided.mean_s_f <= 1.3 * best.mean_s_f


def test_distortion_ratio_orthogonal_and_scaled():
    rng = np.random.default_rng(15)
    a = rng.standard_normal((30, 30))
    q = np.linalg.qr(rng.standard_normal((30, 30)))[0]
    res = distortion_ratio(a, q)
    assert np.allclose(res.ratios, 1.0, atol=1e-10)
    res2 = distortion_ratio(a, 2.0 * np.eye(30))
    assert np.allclose(res2.ratios, 2.0, atol=1e-10)


def test_distortion_ratio_skips_zero_singular_values():
    rng = np.random.default_rng(16)
    u = np.linalg.qr(rng.standard_normal((20, 3)))[0]
    a = u @ rng.standard_normal((3, 15))  # rank 3
    res = distortion_ratio(a, rng.standard_normal((15, 8)))
    assert res.skipped > 0
    assert np.isfinite(res.ratios).all()
