import threading

import numpy as np
import pytest

from sketchpower import synthetic
from sketchpower.matrix_core import Precision
from sketchpower.stream_ingest import read_matrix
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
    sv = np.linalg.svd(generate(spec).data, compute_uv=False)
    assert np.allclose(sv[:10], 1.0, atol=1e-12)
    assert np.all(sv[10:] <= 1e-13)


def test_lowrank_noise_spectral_scales():
    spec = _spec(Family.LOWRANK_NOISE, m=1000, n=1000, snr=1e-4)
    sv = np.linalg.svd(generate(spec).data, compute_uv=False)
    assert 0.99 <= sv[0] <= 1.01
    noise_scale = 1e-4 * 10 / 1000**2
    assert sv[10] <= 5 * noise_scale * (np.sqrt(1000) + np.sqrt(1000))


def test_lowrank_plateau_count():
    spec = _spec(Family.LOWRANK_NOISE, m=200, n=200, snr=1e-2)
    sv = np.linalg.svd(generate(spec).data, compute_uv=False)
    assert np.sum(sv >= 0.5) == 10


def test_poly_decay_prescription_r1():
    spec = SyntheticSpec(Family.POLY_DECAY, m=4, n=4, plateau=1, alpha=1.0, base_seed=0)
    assert np.allclose(prescribed_spectrum(spec), [1.0, 0.5, 1 / 3, 0.25], atol=1e-15)


def test_poly_decay_generated_spectrum_matches():
    spec = _spec(Family.POLY_DECAY, alpha=1.0)
    sv = np.linalg.svd(generate(spec).data, compute_uv=False)
    assert np.max(np.abs(sv - prescribed_spectrum(spec))) <= 1e-12


def test_poly_alpha_zero_is_flat():
    spec = _spec(Family.POLY_DECAY, alpha=0.0)
    assert np.allclose(prescribed_spectrum(spec), 1.0)


def test_exp_decay_ratios_and_spectrum():
    spec = _spec(Family.EXP_DECAY, alpha=0.5)
    sv = prescribed_spectrum(spec)
    ratios = sv[11:] / sv[10:-1]
    assert np.allclose(ratios, np.exp(-0.5), atol=1e-14)
    computed = np.linalg.svd(generate(spec).data, compute_uv=False)
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
    a = generate(spec)
    b = generate(spec)
    assert np.array_equal(a.data, b.data)
    u, sv, vt = np.linalg.svd(a.data, full_matrices=False)
    assert np.linalg.norm(u.T @ u - np.eye(u.shape[1])) <= 1e-12 * np.sqrt(120)


@pytest.mark.parametrize(
    "environ, cpus, expected",
    [
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, True),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, False),
        ({"OMP_NUM_THREADS": "1"}, 4, True),
        ({}, 2, False),
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}, 1, False),
    ],
)
def test_factors_overlap_only_with_a_spare_cpu_and_one_blas_thread(environ, cpus, expected):
    assert synthetic._factors_overlap(environ, cpus) is expected


def test_concurrent_factors_are_deterministic_and_exact(monkeypatch):
    spec = _spec(Family.POLY_DECAY, m=150, n=120)
    monkeypatch.setattr(synthetic, "_CONCURRENT_FACTORS", False)
    serial = generate(spec).data
    su, _, sv_ = synthetic._factors(spec)
    monkeypatch.setattr(synthetic, "_CONCURRENT_FACTORS", True)
    first = generate(spec).data
    assert generate(spec).data.tobytes() == first.tobytes()

    results = [None] * 4
    barrier = threading.Barrier(4)

    def work(i):
        barrier.wait(timeout=30)
        results[i] = generate(spec).data.tobytes()

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert results == [first.tobytes()] * 4

    u, sv, v = synthetic._factors(spec)
    assert u.flags.c_contiguous and v.flags.c_contiguous
    for q in (u, v):
        assert np.linalg.norm(q.T @ q - np.eye(q.shape[1])) <= 1e-12
    computed = np.linalg.svd(first, compute_uv=False)
    assert np.max(np.abs(computed - prescribed_spectrum(spec))) <= 1e-12
    # Equal bits need the two LAPACK builds to agree, so compare to roundoff.
    for a, b in ((first, serial), (u, su), (v, sv_)):
        assert np.linalg.norm(a - b) <= 1e-14 * np.linalg.norm(b)


def test_spim_round_trip_binary64_and_binary32(tmp_path):
    spec = _spec(Family.EXP_DECAY, m=23, n=17, alpha=0.3)
    a = generate(spec)
    p64 = tmp_path / "a64.spim"
    write_spim(p64, a)
    assert np.array_equal(read_matrix(p64).data, a.data)
    p32 = tmp_path / "a32.spim"
    write_spim(p32, a, precision=Precision.BINARY32)
    back = read_matrix(p32).data
    assert np.array_equal(back, a.data.astype(np.float32).astype(np.float64))


def test_plateau_exceeding_dims_rejected():
    with pytest.raises(ValueError):
        SyntheticSpec(Family.POLY_DECAY, m=5, n=5, plateau=10)
