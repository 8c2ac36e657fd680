import functools
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from sketchpower import matrix_core, metrics, synthetic
from sketchpower.matrix_core import Precision
from sketchpower.stream_ingest import PipelineKind, read_matrix
from sketchpower.test_matrices import SeedSpec, Stream
from sketchpower.synthetic import (
    Family,
    SyntheticSpec,
    generate,
    prescribed_spectrum,
    write_spim,
)


def _spec(family, **kw):
    defaults = dict(m=100, n=100, plateau=10, alpha=1.0, snr=1e-2, base_seed=99)
    defaults.update(kw)
    return SyntheticSpec(family, **defaults)


def test_lowrank_noiseless_exact_rank():
    spec = _spec(Family.LOWRANK_NOISE, snr=0.0)
    sv = np.linalg.svd(generate(spec)[0], compute_uv=False)
    assert np.allclose(sv[:10], 1.0, atol=1e-12)
    assert np.all(sv[10:] <= 1e-13)


def test_lowrank_noise_spectral_scales():
    spec = _spec(Family.LOWRANK_NOISE, m=1000, n=1000, snr=1e-4)
    sv = np.linalg.svd(generate(spec)[0], compute_uv=False)
    assert 0.99 <= sv[0] <= 1.01
    noise_scale = 1e-4 * 10 / 1000**2
    assert sv[10] <= 5 * noise_scale * (np.sqrt(1000) + np.sqrt(1000))


def test_lowrank_plateau_count():
    spec = _spec(Family.LOWRANK_NOISE, m=200, n=200, snr=1e-2)
    sv = np.linalg.svd(generate(spec)[0], compute_uv=False)
    assert np.sum(sv >= 0.5) == 10


def test_poly_decay_prescription_r1():
    spec = SyntheticSpec(Family.POLY_DECAY, m=4, n=4, plateau=1, alpha=1.0, base_seed=0)
    assert np.allclose(prescribed_spectrum(spec), [1.0, 0.5, 1 / 3, 0.25], atol=1e-15)


def test_poly_decay_generated_spectrum_matches():
    spec = _spec(Family.POLY_DECAY, alpha=1.0)
    sv = np.linalg.svd(generate(spec)[0], compute_uv=False)
    assert np.max(np.abs(sv - prescribed_spectrum(spec))) <= 1e-12


def test_poly_alpha_zero_is_flat():
    spec = _spec(Family.POLY_DECAY, alpha=0.0)
    assert np.allclose(prescribed_spectrum(spec), 1.0)


def test_exp_decay_ratios_and_spectrum():
    spec = _spec(Family.EXP_DECAY, alpha=0.5)
    sv = prescribed_spectrum(spec)
    ratios = sv[11:] / sv[10:-1]
    assert np.allclose(ratios, np.exp(-0.5), atol=1e-14)
    computed = np.linalg.svd(generate(spec)[0], compute_uv=False)
    assert np.max(np.abs(computed - sv)) <= 1e-12


def test_exp_tail_energy_closed_form():
    spec = _spec(Family.EXP_DECAY, alpha=0.5)
    sv = prescribed_spectrum(spec)
    n, r, a = 100, 10, 0.5
    tail_sq = np.sum(sv[r:] ** 2)
    closed = np.exp(-2 * a) * (1 - np.exp(-2 * a * (n - r))) / (1 - np.exp(-2 * a))
    assert abs(tail_sq - closed) <= 1e-12 * closed


def test_orthonormal_factor_quality_and_determinism():
    spec = _spec(Family.POLY_DECAY, m=150, n=120)
    a = generate(spec)[0]
    b = generate(spec)[0]
    assert np.array_equal(a, b)
    u, sv, vt = np.linalg.svd(a, full_matrices=False)
    assert np.linalg.norm(u.T @ u - np.eye(u.shape[1])) <= 1e-12 * np.sqrt(120)


@pytest.mark.parametrize("m, n, family, plateau", [
    (60, 60, Family.POLY_DECAY, 10),      # square
    (90, 40, Family.EXP_DECAY, 10),       # tall
    (40, 90, Family.POLY_DECAY, 10),      # wide
    (90, 70, Family.LOWRANK_NOISE, 10),   # k = plateau
    (40, 30, Family.LOWRANK_NOISE, 0),    # k = 0
    (1, 30, Family.POLY_DECAY, 1),        # m = 1
    (30, 1, Family.EXP_DECAY, 1),         # n = 1
])
def test_factors_are_orthonormal_for_every_shape(m, n, family, plateau):
    factors = synthetic._factors(_spec(family, m=m, n=n, plateau=plateau, snr=0.0))
    k = factors.sv.size
    for q, rows in ((factors.u, m), (factors.v, n)):
        assert q.shape == (rows, k) and q.flags.c_contiguous
        assert np.linalg.norm(q.T @ q - np.eye(k)) <= 1e-12 * np.sqrt(k)


def test_orthonormal_factor_has_the_law_of_lapacks_q_of_a_gaussian():
    # Directly drawn reflectors against la.qr of independent Gaussian
    # matrices: 2,000 5x5 draws each.  An entry's mean has a standard error
    # of about 0.01 and its second moment about 0.005, so the bounds are
    # near six standard errors of the difference.
    trials = 2000
    drawn = np.array([synthetic._orthonormal(5, 5, SeedSpec(17, Stream.DATA_LEFT, t)) for t in range(trials)])
    rng = np.random.default_rng(2024)
    factored = np.array([scipy.linalg.qr(rng.standard_normal((5, 5)))[0] for _ in range(trials)])
    assert np.abs(drawn.mean(axis=0) - factored.mean(axis=0)).max() <= 0.08
    assert np.abs((drawn**2).mean(axis=0) - (factored**2).mean(axis=0)).max() <= 0.04
    # LAPACK's sign convention: Q[0, 0] = alpha / beta <= 0, so E[Q00] is
    # far from the 0 of a Haar matrix, and four reflectors give det Q = 1.
    assert drawn[:, 0, 0].max() <= 0.0 and factored[:, 0, 0].max() <= 0.0
    assert np.allclose(np.linalg.det(drawn), 1.0, atol=1e-12)


def test_orthonormal_factor_peak_is_two_factors():
    m, k = 600, 400
    tracemalloc.start()
    try:
        synthetic._orthonormal(m, k, SeedSpec(3, Stream.DATA_RIGHT, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * 2 * m * k * 8


def test_factors_overlap_only_with_a_spare_cpu_and_one_blas_thread():
    # The gate needs a spare CPU and a managed BLAS; the pin every entry
    # point holds sets each managed build to one thread.
    assert matrix_core._TWO_CPUS is (matrix_core._CPUS >= 2 and bool(matrix_core._BLAS))
    with matrix_core._one_blas_thread():
        assert all(get() == 1 for get, _ in matrix_core._BLAS)


def test_helpers_run_only_inside_the_one_thread_pin(monkeypatch):
    seen = []

    def spy(helper):
        def call(calls):
            seen.append(matrix_core._pin_holders > 0 and all(get() == 1 for get, _ in matrix_core._BLAS))
            return helper(calls)
        return call

    monkeypatch.setattr(synthetic, "_concurrently", spy(matrix_core._concurrently))
    monkeypatch.setattr(metrics, "_in_two_processes", spy(matrix_core._in_two_processes))
    spec = _spec(Family.POLY_DECAY, m=60, n=50, plateau=4, alpha=2.0)
    generate(spec)
    metrics.oracle_sweep(spec, PipelineKind.TYUC17, budget_t=24.0, r=4, trials=1)
    assert len(seen) >= 3 and all(seen)


@pytest.mark.parametrize("m, n, family, plateau, snr", [
    (150, 120, Family.POLY_DECAY, 10, 0.0),
    # n of every residue mod 8, each with a non-empty first block
    *((70, n, Family.EXP_DECAY, 6, 0.0) for n in range(40, 48)),
    (30, 13, Family.POLY_DECAY, 4, 0.0),        # n < 16: the first block is empty
    (1, 1, Family.POLY_DECAY, 1, 0.0),
    (1, 40, Family.EXP_DECAY, 1, 0.0),          # m = 1
    (40, 1, Family.POLY_DECAY, 1, 0.0),         # n = 1
    (90, 70, Family.LOWRANK_NOISE, 10, 0.0),    # plateau-k factors, k < min(m, n)
    (90, 70, Family.LOWRANK_NOISE, 10, 1e-2),   # noisy
])
def test_concurrent_factors_are_deterministic_and_exact(monkeypatch, m, n, family, plateau, snr):
    spec = _spec(family, m=m, n=n, plateau=plateau, snr=snr)
    widths = []

    def spy(calls):
        widths.append([call.keywords["out"].shape[1] for call in calls if isinstance(call, functools.partial)])
        return matrix_core._concurrently(calls)

    monkeypatch.setattr(synthetic, "_concurrently", spy)
    monkeypatch.setattr(matrix_core, "_TWO_CPUS", False)
    serial = generate(spec)[0]
    plain = synthetic._factors(spec)
    # The product's two column blocks split at a multiple of 8 and cover A.
    h = widths[1][0]
    assert widths[1] == [h, n - h] and h % 8 == 0 and h <= n // 2 < h + 8
    monkeypatch.setattr(matrix_core, "_TWO_CPUS", True)
    first = generate(spec)[0]
    assert first.flags.c_contiguous and first.shape == (m, n)
    assert generate(spec)[0].tobytes() == first.tobytes()

    results = [None] * 4
    barrier = threading.Barrier(4)

    def work(i):
        barrier.wait(timeout=30)
        results[i] = generate(spec)[0].tobytes()

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert results == [first.tobytes()] * 4

    factors = synthetic._factors(spec)
    u, v = factors.u, factors.v
    assert u.flags.c_contiguous and v.flags.c_contiguous
    for q in (u, v):
        assert np.linalg.norm(q.T @ q - np.eye(q.shape[1])) <= 1e-12
    if snr == 0.0:
        computed = np.linalg.svd(first, compute_uv=False)
        assert np.max(np.abs(computed - prescribed_spectrum(spec))) <= 1e-12
    # Both settings factor and multiply with the same kernels on one BLAS thread.
    for a, b in ((first, serial), (u, plain.u), (v, plain.v)):
        assert a.tobytes() == b.tobytes()


def test_generate_peak_is_its_factors_and_one_output():
    # u, v, u diag(sigma) and A, with no half-sized temporaries of A.
    m, n = 600, 400
    spec = _spec(Family.POLY_DECAY, m=m, n=n)
    tracemalloc.start()
    try:
        generate(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * (m * n + n * n + m * n + m * n) * 8


def test_spim_round_trip_binary64_and_binary32(tmp_path):
    spec = _spec(Family.EXP_DECAY, m=23, n=17, alpha=0.3)
    a = generate(spec)[0]
    p64 = tmp_path / "a64.spim"
    write_spim(p64, a)
    assert np.array_equal(read_matrix(p64), a)
    p32 = tmp_path / "a32.spim"
    write_spim(p32, a, precision=Precision.BINARY32)
    back = read_matrix(p32)
    assert np.array_equal(back, a.astype(np.float32).astype(np.float64))


def test_plateau_exceeding_dims_rejected():
    with pytest.raises(ValueError):
        SyntheticSpec(Family.POLY_DECAY, m=5, n=5, plateau=10)


@pytest.mark.parametrize("field, value, problem", [
    ("alpha", -1.0, "alpha must be a non-negative finite number, got -1.0"),
    ("alpha", float("inf"), "alpha must be a non-negative finite number, got inf"),
    ("alpha", float("nan"), "alpha must be a non-negative finite number, got nan"),
    ("snr", -1.0, r"snr \(noise level gamma\) must be a non-negative finite number, got -1.0"),
    ("snr", float("inf"), r"snr \(noise level gamma\) must be a non-negative finite number, got inf"),
    ("plateau", -1, "plateau must be non-negative, got -1"),
    ("m", -5, "m must be at least 1, got -5"),
    ("m", 0, "m must be at least 1, got 0"),
    ("n", 0, "n must be at least 1, got 0"),
])
@pytest.mark.parametrize("family", list(Family))
def test_impossible_specs_rejected_naming_the_field(family, field, value, problem):
    with pytest.raises(ValueError, match=problem):
        _spec(family, **{"m": 60, "n": 50, field: value})


@pytest.mark.parametrize("family", list(Family))
def test_factors_are_the_svd_of_noise_free_data(family):
    spec = _spec(family, m=60, n=45, plateau=5, snr=0.0)
    a, factors = generate(spec)
    k = factors.sv.size
    assert factors.u.shape == (60, k) and factors.v.shape == (45, k)
    assert k == (5 if family is Family.LOWRANK_NOISE else 45)
    assert np.array_equal(factors.sv, prescribed_spectrum(spec)[:k])
    assert np.abs((factors.u * factors.sv) @ factors.v.T - a).max() <= 1e-15


def test_noisy_data_comes_without_factors():
    spec = _spec(Family.LOWRANK_NOISE, m=60, n=45, plateau=5, snr=1e-2)
    a, factors = generate(spec)
    assert factors is None
    assert a.tobytes() == generate(spec)[0].tobytes()
