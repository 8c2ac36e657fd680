import dataclasses
import tracemalloc

import numpy as np
import pytest

from sketchpower import approximators
from sketchpower.approximators import (
    approximate,
    rsvd_onepass,
    tyuc17,
    tyuc17_spi,
    tyuc17_spi_variant,
    tyuc19,
    tyuc19_spi,
)
from sketchpower.matrix_core import _CHUNK, DenseMatrix
from sketchpower.precision_model import PIPELINES, PrecisionPlan
from sketchpower.spi import SpiParams
from sketchpower.stream_ingest import LinearUpdate, PipelineKind, open_stream
from sketchpower.test_matrices import GAUSSIAN, SPARSE_RADEMACHER, SeedSpec, Stream, generate


def _rank_r_matrix(m, n, r, seed, svals=None):
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((m, r)))[0]
    v = np.linalg.qr(rng.standard_normal((n, r)))[0]
    if svals is None:
        svals = np.linspace(2.0, 1.0, r)
    return (u * svals) @ v.T


def _sketch(kind, a, s, d=0, l=0, seed=0, plan=PrecisionPlan.ALL_DOUBLE):
    m, n = a.shape
    st = open_stream(kind, m, n, s, d, l, base_seed=seed, plan=plan)
    upd = LinearUpdate.row_block(0, a) if kind is PipelineKind.RSVD_ONEPASS else LinearUpdate.dense(a)
    return st.ingest(upd).finalize()


def _sines(u, w):
    qu = np.linalg.qr(u)[0]
    qw = np.linalg.qr(w)[0]
    return np.linalg.norm(qu - qw @ (qw.T @ qu), 2)


def test_tyuc17_exact_recovery():
    a = _rank_r_matrix(90, 70, 5, seed=0)
    sk = _sketch(PipelineKind.TYUC17, a, s=9, d=20, seed=1)
    res = tyuc17(sk, 5)
    assert np.linalg.norm(a - res.reconstruct()) <= 1e-10 * np.linalg.norm(a)
    assert np.linalg.norm(res.u.T @ res.u - np.eye(5)) <= 1e-10 * np.sqrt(5)


def test_tyuc17_zero_matrix():
    sk = _sketch(PipelineKind.TYUC17, np.zeros((20, 15)), s=3, d=7, seed=2)
    res = tyuc17(sk, 2)
    assert np.allclose(res.sv, 0.0)
    assert not res.reconstruct().any()


def test_tyuc17_spi_q0_matches_tyuc17_subspace():
    a = _rank_r_matrix(60, 50, 4, seed=3) + 0.01 * np.random.default_rng(3).standard_normal((60, 50))
    sk = _sketch(PipelineKind.TYUC17_SPI, a, s=8, d=18, l=12, seed=4)
    res0 = tyuc17_spi(sk, SpiParams(q=0), 4)
    res17 = tyuc17(sk, 4)
    assert _sines(res0.q_factor, res17.q_factor) <= 1e-10


def test_tyuc17_spi_empirical_constant_with_gap():
    # Exact rank k (> s) with a 1e3 gap after the target rank: the powered
    # rangefinder drives the reconstruction error down to a small multiple of
    # sigma_{r+1}.
    m = n = 400
    r, s, d, l, k = 5, 10, 30, 40, 15
    svals = np.concatenate([np.full(r, 1e3), np.linspace(1.0, 0.8, k - r)])
    cs = []
    for t in range(20):
        a = _rank_r_matrix(m, n, k, seed=100 + t, svals=svals)
        sk = _sketch(PipelineKind.TYUC17_SPI, a, s=s, d=d, l=l, seed=200 + t)
        res = tyuc17_spi(sk, SpiParams(q=3), r)
        err = np.linalg.norm(a - res.q_factor @ res.b, 2)
        cs.append(err / svals[r])
    assert np.mean(cs) <= 5.0


def test_variant_matches_spi_on_synthesized_rangefinder():
    a = _rank_r_matrix(50, 45, 6, seed=5) + 0.05 * np.random.default_rng(6).standard_normal((50, 45))
    s, d, l, q, r = 5, 12, 14, 2, 3
    sk = _sketch(PipelineKind.TYUC17_SPI_VARIANT, a, s=s, d=d, l=l, seed=7)
    omt = generate(GAUSSIAN, l, s, SeedSpec(7, Stream.OMEGA_TILDE, 0))  # the pipeline's own draw
    res_var = tyuc17_spi_variant(sk, SpiParams(q=q), r)
    # Oracle: run the plain powered pipeline on Y := Z @ Omega-tilde.
    y = sk.z.as_f64() @ omt.as_f64()
    fake = dataclasses.replace(sk, kind=PipelineKind.TYUC17_SPI,
                               y=type(sk.z).from_array(y), s=s)
    res_spi = tyuc17_spi(fake, SpiParams(q=q, stabilize=False), r)
    ref = np.linalg.norm(a - res_spi.reconstruct())
    got = np.linalg.norm(a - res_var.reconstruct())
    assert abs(got - ref) <= 1e-9 * max(ref, 1.0)


def test_variant_q0_stays_inside_power_sketch_range():
    a = _rank_r_matrix(40, 40, 4, seed=9)
    sk = _sketch(PipelineKind.TYUC17_SPI_VARIANT, a, s=4, d=10, l=8, seed=10)
    res = tyuc17_spi_variant(sk, SpiParams(q=0), 4)
    z = sk.z.as_f64()
    proj = z @ np.linalg.lstsq(z, res.q_factor, rcond=None)[0]
    assert np.linalg.norm(proj - res.q_factor) <= 1e-9


def test_rsvd_onepass_identities():
    rng = np.random.default_rng(12)
    for t in range(20):
        a = rng.standard_normal((50, 40))
        sk = _sketch(PipelineKind.RSVD_ONEPASS, a, s=15, seed=300 + t)
        res = rsvd_onepass(sk, 10)
        assert np.linalg.norm(res.b - res.q_factor.T @ a) <= 1e-11 * np.linalg.norm(a)


def test_rsvd_onepass_exact_recovery():
    a = _rank_r_matrix(80, 60, 6, seed=13)
    sk = _sketch(PipelineKind.RSVD_ONEPASS, a, s=10, seed=14)
    res = rsvd_onepass(sk, 6)
    assert np.linalg.norm(a - res.reconstruct()) <= 1e-10 * np.linalg.norm(a)


def test_tyuc19_exact_recovery_and_core_sketch():
    a = _rank_r_matrix(70, 55, 5, seed=15)
    sk = _sketch(PipelineKind.TYUC19, a, s=8, d=17, seed=16)
    res = tyuc19(sk, 5)
    assert np.linalg.norm(a - res.reconstruct()) <= 1e-9 * np.linalg.norm(a)
    want_k = sk.phi.data @ a @ sk.psi.data.T
    assert np.linalg.norm(sk.k.data - want_k) <= 1e-12 * np.linalg.norm(want_k)
    # core factorization consistency: (Phi Q) C (Psi P)^T ~ K
    fit = (sk.phi.data @ res.q_factor) @ res.core @ (sk.psi.data @ res.p_factor).T
    assert np.linalg.norm(fit - sk.k.data) <= 1e-8 * np.linalg.norm(sk.k.data)


def test_tyuc19_zero_matrix():
    sk = _sketch(PipelineKind.TYUC19, np.zeros((25, 20)), s=4, d=9, seed=17)
    res = tyuc19(sk, 2)
    assert np.allclose(res.core, 0.0, atol=1e-14)


def test_tyuc19_spi_q0_reduces_to_tyuc19():
    a = _rank_r_matrix(60, 48, 4, seed=18) + 0.02 * np.random.default_rng(19).standard_normal((60, 48))
    s, d, l = 6, 13, 12
    sk = _sketch(PipelineKind.TYUC19_SPI, a, s=s, d=d, l=l, seed=20)
    omt = generate(GAUSSIAN, l, s, SeedSpec(20, Stream.OMEGA_TILDE, 0))  # the pipeline's own draws
    gmt = generate(GAUSSIAN, s, l, SeedSpec(20, Stream.GAMMA_TILDE, 0))
    res = tyuc19_spi(sk, SpiParams(q=0), 4)

    y = sk.z.as_f64() @ omt.as_f64()
    x = gmt.as_f64() @ sk.w.as_f64()
    fake = dataclasses.replace(
        sk, kind=PipelineKind.TYUC19,
        y=type(sk.z).from_array(y), x=type(sk.z).from_array(x), w=None,
    )
    ref = tyuc19(fake, 4)
    got = np.linalg.norm(a - res.reconstruct())
    want = np.linalg.norm(a - ref.reconstruct())
    assert abs(got - want) <= 1e-9 * max(want, 1.0)


def test_tyuc19_spi_rank_recovery_mixed_precision():
    a = _rank_r_matrix(90, 75, 4, seed=22)
    sk = _sketch(PipelineKind.TYUC19_SPI, a, s=8, d=18, l=16, seed=23,
                 plan=PrecisionPlan.MIXED_SINGLE_DOUBLE)
    res = tyuc19_spi(sk, SpiParams(q=1), 4)
    assert np.linalg.norm(a - res.reconstruct()) <= 1e-6 * np.linalg.norm(a)


def test_scale_equivariance():
    a = _rank_r_matrix(45, 36, 5, seed=25) + 0.03 * np.random.default_rng(26).standard_normal((45, 36))
    base = tyuc17(_sketch(PipelineKind.TYUC17, a, s=8, d=18, seed=27), 4)
    for c in (-2.0, 0.5, 10.0):
        scaled = tyuc17(_sketch(PipelineKind.TYUC17, c * a, s=8, d=18, seed=27), 4)
        assert np.allclose(scaled.sv, abs(c) * base.sv, rtol=1e-10)
        assert _sines(scaled.u, base.u) <= 1e-10
        assert _sines(scaled.v, base.v) <= 1e-10


def test_one_pass_certificate_enforced():
    a = _rank_r_matrix(30, 25, 3, seed=28)
    sk = _sketch(PipelineKind.TYUC17, a, s=5, d=11, seed=29)
    tampered = dataclasses.replace(sk, pass_count=2)
    with pytest.raises(ValueError, match="pass"):
        tyuc17(tampered, 3)


def test_pipeline_kind_mismatch_rejected():
    a = _rank_r_matrix(30, 25, 3, seed=30)
    sk = _sketch(PipelineKind.RSVD_ONEPASS, a, s=6, seed=31)
    with pytest.raises(ValueError):
        tyuc17(sk, 3)


def test_sketch_config_validation():
    PIPELINES["tyuc17_spi"].check_sizes(40, 30, s=10, d=20, l=25)
    open_stream(PipelineKind.TYUC17_SPI, 40, 30, s=10, d=20, l=25)
    with pytest.raises(ValueError):  # r > s
        tyuc17(_sketch(PipelineKind.TYUC17, _rank_r_matrix(40, 30, 3, seed=35), s=4, d=20), 5)
    with pytest.raises(ValueError):
        open_stream(PipelineKind.TYUC17, 40, 30, s=10, d=8)
    with pytest.raises(ValueError):
        open_stream(PipelineKind.TYUC17_SPI, 40, 30, s=10, d=20, l=10)
    with pytest.raises(ValueError):
        open_stream(PipelineKind.TYUC19, 40, 30, s=10, d=10)


def test_tyuc19_spi_contract_checks():
    with pytest.raises(ValueError, match="2s"):
        open_stream(PipelineKind.TYUC19_SPI, 40, 30, s=6, d=13, l=10)  # l < 2s
    sk = _sketch(PipelineKind.TYUC19_SPI, _rank_r_matrix(40, 30, 3, seed=32), s=6, d=13, l=12, seed=33)
    with pytest.raises(ValueError, match="2s"):
        tyuc19_spi(dataclasses.replace(sk, s=7), SpiParams(q=1), 3)


@pytest.mark.parametrize("kind", list(PipelineKind), ids=lambda k: k.value)
def test_approximate_runs_the_finisher_of_the_kind(kind, monkeypatch):
    a = _rank_r_matrix(40, 30, 3, seed=36) + 0.01 * np.random.default_rng(37).standard_normal((40, 30))
    sk = _sketch(kind, a, s=5, d=12, l=10, seed=38)
    finish = getattr(approximators, kind.value)
    params = SpiParams(q=2)
    direct = finish(sk, params, 3) if PIPELINES[kind.value].uses("l") else finish(sk, 3)
    got = approximate(sk, 3, params)
    assert got.kind is kind
    for name in ("u", "sv", "v"):
        assert np.array_equal(getattr(got, name), getattr(direct, name))
    # Looked up when called: a wrapper on the module attribute is what runs.
    calls = []
    monkeypatch.setattr(approximators, kind.value, lambda *args: calls.append(args) or finish(*args))
    approximate(sk, 3, params)
    assert len(calls) == 1


def test_small_factors_follow_the_sketch_set():
    # The storage-reduced pipelines draw O (l x s) and G (s x l) themselves,
    # so their sizes always match the sketch set's s.
    a = _rank_r_matrix(40, 30, 3, seed=39)
    for kind in (PipelineKind.TYUC17_SPI_VARIANT, PipelineKind.TYUC19_SPI):
        sk = _sketch(kind, a, s=4, d=12, l=12, seed=40)
        res = approximate(sk, 3, SpiParams(q=1))
        assert res.q_factor.shape == (40, 4)
        again = approximate(dataclasses.replace(sk, trial=1), 3, SpiParams(q=1))
        assert not np.array_equal(res.u, again.u)  # another trial, another draw


def _finish_peak(kind, params, m, n=50, s=2, d=30, l=60):
    """tracemalloc peak of the finish of a mixed, sparse-kind stream of an m x n matrix."""
    a = _rank_r_matrix(m, n, 3, 12) + 1e-3 * np.random.default_rng(13).standard_normal((m, n))
    st = open_stream(kind, m, n, s, d, l, base_seed=4, plan=PrecisionPlan.MIXED_SINGLE_DOUBLE,
                     test_kind=SPARSE_RADEMACHER)
    sk = st.ingest(LinearUpdate.row_block(0, a)).finalize()
    del a, st
    tracemalloc.start()
    try:
        res = approximate(sk, 2, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.u.shape == (m, 2) and np.isfinite(res.u).all()
    return peak


@pytest.mark.parametrize("kind, q", [(PipelineKind.TYUC17_SPI, 1), (PipelineKind.TYUC17_SPI, 2),
                                     (PipelineKind.TYUC17_SPI_VARIANT, 1)], ids=lambda v: getattr(v, "value", v))
def test_finish_memory_grows_with_m_s_not_m_l_or_m_d(kind, q):
    """No m x l binary64 copy of Z and no dense d x m Psi: at m = 8000 and
    16000 (Z spans two and four row chunks) the finish's peak stays below one
    d x m binary64 array and grows by less than half of one per 8000 rows,
    room for seven m x s binary64 arrays."""
    s, d, l = 2, 30, 60
    small, large = (_finish_peak(kind, SpiParams(q=q), m, s=s, d=d, l=l) for m in (8000, 16000))
    assert large < 16000 * d * 8
    assert large - small < 8000 * d * 8 / 2 < 8000 * l * 8


def _array_bytes(sk):
    """The bytes of every array of a sketch set, by field."""
    out = {}
    for f in dataclasses.fields(sk):
        value = getattr(sk, f.name)
        if isinstance(value, DenseMatrix):
            out[f.name] = value.data.tobytes()
        elif hasattr(value, "indptr"):
            out[f.name] = (value.data.tobytes(), value.indices.tobytes(), value.indptr.tobytes())
    return out


@pytest.mark.parametrize("test_kind", [GAUSSIAN, SPARSE_RADEMACHER], ids=lambda k: k.variant)
@pytest.mark.parametrize("kind, plan, q", [
    (PipelineKind.TYUC17_SPI, PrecisionPlan.MIXED_SINGLE_DOUBLE, 1),
    (PipelineKind.TYUC17_SPI, PrecisionPlan.MIXED_SINGLE_DOUBLE, 2),
    (PipelineKind.TYUC17, PrecisionPlan.ALL_DOUBLE, 0),
    (PipelineKind.RSVD_ONEPASS, PrecisionPlan.ALL_DOUBLE, 0),
    (PipelineKind.TYUC19_SPI, PrecisionPlan.MIXED_SINGLE_DOUBLE, 1),
    (PipelineKind.TYUC19, PrecisionPlan.ALL_DOUBLE, 0),
], ids=lambda v: getattr(v, "value", v))
def test_tall_finish_factors_y_hat_in_place(kind, plan, q, test_kind):
    """The finish of a tall stream adds at most one m x s binary64 array
    (Y-hat, factored in place into Q), the m x r factor U and one chunk to
    its sketches, and writes none of the sketch set's arrays."""
    m, n, s, d, l, r = 1 << 15, 64, 16, 40, 48, 4
    a = _rank_r_matrix(m, n, 3, 21) + 1e-3 * np.random.default_rng(22).standard_normal((m, n))
    st = open_stream(kind, m, n, s, d, l, base_seed=6, plan=plan, test_kind=test_kind)
    sk = st.ingest(LinearUpdate.row_block(0, a)).finalize()
    del a, st
    before = _array_bytes(sk)
    tracemalloc.start()
    try:
        res = approximate(sk, r, SpiParams(q=q))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (m * s + m * r + _CHUNK)
    assert res.u.shape == (m, r) and np.isfinite(res.u).all()
    assert _array_bytes(sk) == before
