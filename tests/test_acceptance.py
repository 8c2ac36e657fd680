"""Acceptance suite: one test per release criterion, one PASS line each.

Statistical criteria run with pinned seeds so the suite is deterministic.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines and
per-criterion timings.
"""
import time

import numpy as np

from sketchpower import bench_cli, matrix_core, metrics, synthetic
from sketchpower.approximators import (
    rsvd_onepass,
    tyuc17,
    tyuc17_spi,
    tyuc19,
    tyuc19_spi,
)
from sketchpower.guidance import DecayKind, SpectrumClass, budget_sizes
from sketchpower.metrics import (
    BoundInputsFro,
    BoundInputsSpec,
    bound_frobenius_q1,
    bound_spectral_general_q,
    frobenius_event_statistic,
)
from sketchpower.precision_model import PrecisionPlan, plan_mixed, simulate_storage
from sketchpower.spi import SpiParams, spi_plain, spi_stabilized, spi_variant
from sketchpower.stream_ingest import LinearUpdate, PipelineKind, open_stream
from sketchpower.test_matrices import GAUSSIAN, SeedSpec, Stream, generate


def _report(num, started, detail):
    print(f"\ncriterion {num} PASS ({time.time() - started:.1f}s): {detail}")


def _rank_k(m, n, k, rng, svals):
    u = np.linalg.qr(rng.standard_normal((m, k)))[0]
    v = np.linalg.qr(rng.standard_normal((n, k)))[0]
    return (u * svals) @ v.T


def _sines(u, w):
    qu = np.linalg.qr(u)[0]
    qw = np.linalg.qr(w)[0]
    return np.linalg.norm(qu - qw @ (qw.T @ qu), 2)


def test_criterion_01_spi_equivalence():
    """Stabilized and plain power iterations span the same space; the plain
    form matches the dense operator oracle."""
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst_angle = worst_oracle = 0.0
    for _ in range(200):
        m = int(rng.integers(20, 101))
        l = int(rng.integers(6, 21))
        s = int(rng.integers(2, l))
        q = int(rng.integers(1, 5))
        z = rng.standard_normal((m, l))
        y = rng.standard_normal((m, s))
        plain = spi_plain(z, y, q)
        stab = spi_stabilized(z, y, q).y_hat
        worst_angle = max(worst_angle, float(np.arcsin(min(1.0, _sines(stab, plain)))))
        oracle = np.linalg.matrix_power(z @ z.T, q) @ y
        worst_oracle = max(worst_oracle, float(np.linalg.norm(plain - oracle) / np.linalg.norm(oracle)))
    assert worst_angle <= 1e-8
    assert worst_oracle <= 1e-10
    assert time.time() - t0 < 10
    _report(1, t0, f"max angle {worst_angle:.2e} rad, max oracle deviation {worst_oracle:.2e}")


def test_criterion_02_exact_recovery_all_pipelines():
    """Every pipeline reproduces a rank-r matrix to 1e-9 (binary64 sketches)
    and 1e-5 (binary32 sketches) of its Frobenius norm."""
    t0 = time.time()
    rng = np.random.default_rng(202)
    worst = {PrecisionPlan.ALL_DOUBLE: 0.0, PrecisionPlan.MIXED_SINGLE_DOUBLE: 0.0}
    for inst in range(50):
        m = int(rng.integers(60, 301))
        n = int(rng.integers(60, 301))
        r = int(rng.integers(3, 9))
        s, d, l = r + 4, 2 * r + 10, 2 * (r + 4)
        a = _rank_k(m, n, r, rng, np.linspace(3.0, 1.0, r))
        na = np.linalg.norm(a)
        for plan in worst:
            def sketch(kind):
                st = open_stream(kind, m, n, s, d, l, base_seed=inst, plan=plan)
                upd = (LinearUpdate.row_block(0, a) if kind is PipelineKind.RSVD_ONEPASS
                       else LinearUpdate.dense(a))
                return st.ingest(upd).finalize()

            results = [tyuc17(sketch(PipelineKind.TYUC17), r)]
            sk = sketch(PipelineKind.TYUC17_SPI)
            results += [tyuc17_spi(sk, SpiParams(q=1), r), tyuc17_spi(sk, SpiParams(q=2), r)]
            results.append(rsvd_onepass(sketch(PipelineKind.RSVD_ONEPASS), r))
            results.append(tyuc19(sketch(PipelineKind.TYUC19), r))
            results.append(tyuc19_spi(sketch(PipelineKind.TYUC19_SPI), SpiParams(q=1), r))
            for res in results:
                worst[plan] = max(worst[plan], float(np.linalg.norm(a - res.reconstruct()) / na))
    assert worst[PrecisionPlan.ALL_DOUBLE] <= 1e-9
    assert worst[PrecisionPlan.MIXED_SINGLE_DOUBLE] <= 1e-5
    assert time.time() - t0 < 30
    _report(2, t0, f"worst residual: double {worst[PrecisionPlan.ALL_DOUBLE]:.2e}, "
                   f"mixed {worst[PrecisionPlan.MIXED_SINGLE_DOUBLE]:.2e}")


def test_criterion_03_rsvd_onepass_algebraic_identity():
    """The one-pass orthogonal-projection factor equals Q^T A to roundoff."""
    t0 = time.time()
    rng = np.random.default_rng(303)
    worst = 0.0
    for inst in range(20):
        a = rng.standard_normal((50, 40))
        st = open_stream(PipelineKind.RSVD_ONEPASS, 50, 40, 15, base_seed=inst)
        res = rsvd_onepass(st.ingest(LinearUpdate.row_block(0, a)).finalize(), 10)
        worst = max(worst, float(np.linalg.norm(res.b - res.q_factor.T @ a) / np.linalg.norm(a)))
    assert worst <= 1e-11
    _report(3, t0, f"max ||B - Q^T A|| / ||A|| = {worst:.2e}")


def test_criterion_04_powered_pipeline_beats_plain_at_every_budget():
    """Medium polynomial decay at 1000x1000 with guided sizes: the powered
    mixed-precision pipeline has a strictly smaller mean error than the plain
    binary64 pipeline at each storage budget."""
    t0 = time.time()
    m = n = 1000
    r, trials = 10, 20
    cls = SpectrumClass(DecayKind.POLY, 1.0)
    budgets = (48, 72, 96, 120)
    sizes = {t_hat: (budget_sizes(PipelineKind.TYUC17_SPI, PrecisionPlan.MIXED_SINGLE_DOUBLE, cls, t_hat, m, n, r),
                     budget_sizes(PipelineKind.TYUC17, PrecisionPlan.ALL_DOUBLE, cls, t_hat, m, n, r)[:2])
             for t_hat in budgets}
    sf = {t_hat: {"spi": [], "plain": []} for t_hat in budgets}
    for trial in range(trials):  # each trial's matrix serves every budget
        spec = synthetic.SyntheticSpec(
            synthetic.Family.POLY_DECAY, m, n, plateau=10, alpha=1.0, base_seed=100, trial=trial
        )
        a, factors = synthetic.generate(spec)
        for t_hat, ((s, d, l), (s2, d2)) in sizes.items():
            st = open_stream(PipelineKind.TYUC17_SPI, m, n, s, d, l,
                             base_seed=200 + t_hat, trial=trial, plan=PrecisionPlan.MIXED_SINGLE_DOUBLE)
            res = tyuc17_spi(st.ingest(LinearUpdate.dense(a)).finalize(), SpiParams(q=1), r)
            sf[t_hat]["spi"].append(metrics.relative_error(a, res, factors=factors).s_f)
            st = open_stream(PipelineKind.TYUC17, m, n, s2, d2, base_seed=300 + t_hat, trial=trial)
            res = tyuc17(st.ingest(LinearUpdate.dense(a)).finalize(), r)
            sf[t_hat]["plain"].append(metrics.relative_error(a, res, factors=factors).s_f)
    summary = []
    for t_hat in budgets:
        mean_spi, mean_plain = np.mean(sf[t_hat]["spi"]), np.mean(sf[t_hat]["plain"])
        assert mean_spi < mean_plain, f"budget {t_hat}: {mean_spi} !< {mean_plain}"
        summary.append(f"T={t_hat}: {mean_spi:.3f} < {mean_plain:.3f}")
    assert time.time() - t0 < 600
    _report(4, t0, "; ".join(summary))


def test_criterion_05_more_power_iterations_reduce_error_and_spread():
    """Slow polynomial decay: the mean spectral error and its coefficient of
    variation both improve from q = 1 to q = 3 (5% slack)."""
    t0 = time.time()
    m = n = 1000
    r = 10
    spec = synthetic.SyntheticSpec(
        synthetic.Family.POLY_DECAY, m, n, plateau=10, alpha=0.5, base_seed=77, trial=0
    )
    a, factors = synthetic.generate(spec)
    s_inf = {1: [], 2: [], 3: []}
    for trial in range(50):
        st = open_stream(PipelineKind.TYUC17_SPI, m, n, 20, 40, 60, base_seed=3, trial=trial,
                         plan=PrecisionPlan.MIXED_SINGLE_DOUBLE)
        sk = st.ingest(LinearUpdate.dense(a)).finalize()
        for q in s_inf:
            res = tyuc17_spi(sk, SpiParams(q=q), r)
            s_inf[q].append(metrics.relative_error(a, res, factors=factors).s_inf)
    means = {q: float(np.mean(v)) for q, v in s_inf.items()}
    cvs = {q: float(np.std(v) / np.mean(v)) for q, v in s_inf.items()}
    assert means[3] <= 1.05 * means[1]
    assert cvs[3] <= 1.05 * cvs[1]
    # energy concentration is monotone along the whole chain (5% slack)
    assert means[2] <= 1.05 * means[1] and means[3] <= 1.05 * means[2]
    assert time.time() - t0 < 300
    _report(5, t0, f"mean S_inf {means[1]:.3f} -> {means[3]:.3f}, CV {cvs[1]:.3f} -> {cvs[3]:.3f}")


def test_criterion_06_guidance_is_near_oracle():
    """Guided sketch sizes reach within 1.3x of the oracle-sweep best."""
    t0 = time.time()
    r = 10
    summary = []
    cases = (
        (synthetic.Family.LOWRANK_NOISE, dict(snr=1e-2), SpectrumClass(DecayKind.FLAT), "flat"),
        (synthetic.Family.POLY_DECAY, dict(alpha=2.0), SpectrumClass(DecayKind.POLY, 2.0), "poly2"),
    )
    for family, kwargs, cls, label in cases:
        for t_hat in (60, 100):
            spec = synthetic.SyntheticSpec(family, 400, 400, plateau=10, base_seed=55, **kwargs)
            table = metrics.oracle_sweep(spec, PipelineKind.TYUC17_SPI, float(t_hat), r,
                                         q=1, trials=20)
            best = table.best()
            guided_s = budget_sizes(PipelineKind.TYUC17_SPI, PrecisionPlan.MIXED_SINGLE_DOUBLE, cls,
                                    float(t_hat), 400, 400, r)[0]
            guided = next(row for row in table.rows if row.s == guided_s)
            ratio = guided.mean_s_f / best.mean_s_f
            assert ratio <= 1.3, f"{label} T={t_hat}: guided/oracle = {ratio}"
            summary.append(f"{label} T={t_hat}: {ratio:.2f}x")
    assert time.time() - t0 < 600
    _report(6, t0, "; ".join(summary))


def test_criterion_07_storage_ledger_identities():
    """Word-exact storage accounting of the mixed plans."""
    t0 = time.time()
    assert plan_mixed(1000, 1000, 20, 80) == 100
    assert plan_mixed(2000, 1000, 10, 40) == 30
    m = n = 1000
    for s, d in ((20, 80), (12, 36), (30, 90)):
        l = plan_mixed(m, n, s, d)
        assert m * l == m * s + d * n  # exact word balance at m = n
        led = simulate_storage("tyuc17_spi", PrecisionPlan.MIXED_SINGLE_DOUBLE, m, n, s, d, l)
        slack = led.peak_words - (d * n + m * s)
        assert 0 <= slack <= s
    s, d, l = 20, 60, 80
    led = simulate_storage("tyuc17_spi_variant", PrecisionPlan.MIXED_SINGLE_DOUBLE, m, n, s, d, l)
    assert led.peak_words <= (m * l + d * n) / 2 + l * l + s
    _report(7, t0, "word balance exact; powered-pipeline peak = dn+ms; variant peak within bound")


def test_criterion_08_bound_evaluators():
    """(a) the power factor decreases to 1; (b) screened Monte-Carlo mean
    stays below the Frobenius bound; (c) the empirical (1-p)-quantile stays
    below the spectral bound."""
    t0 = time.time()
    # (a) gamma3 strictly decreasing in q, approaching 1
    sv_a = np.linspace(2, 0.1, 60)
    g_prev = None
    for q in range(1, 15):
        g = bound_spectral_general_q(
            BoundInputsSpec(varrho=4, k=16, l=24, s=10, d=30, q=q, u=3.0, t=2.0, beta=3.0,
                            singular_values=sv_a)
        ).gamma3
        assert g > 1.0 and (g_prev is None or g < g_prev)
        g_prev = g
    assert g_prev < 1.15

    # (b) 100-trial screened mean vs the expected-error bound, gap-1e3 spectrum
    rng = np.random.default_rng(42)
    m = n = 80
    rho, s, d, l = 5, 10, 30, 40
    sv = np.concatenate([np.ones(rho), 1e-3 * np.linspace(1.0, 0.5, n - rho)])
    u0 = np.linalg.qr(rng.standard_normal((m, n)))[0]
    v0 = np.linalg.qr(rng.standard_normal((n, n)))[0]
    a = (u0 * sv) @ v0.T
    xi = 2.0
    bound = bound_frobenius_q1(BoundInputsFro(varrho=rho, l=l, s=s, d=d, xi_hat=xi, singular_values=sv))
    errs, kept = [], 0
    for trial in range(100):
        tr = np.random.default_rng(1000 + trial)
        omega = tr.standard_normal((n, s))
        phi = tr.standard_normal((n, l))
        psi = tr.standard_normal((d, m))
        if frobenius_event_statistic(v0, sv, rho, omega, phi) >= xi:
            continue
        kept += 1
        y_hat = spi_plain(a @ phi, a @ omega, 1)
        q_f = np.linalg.qr(y_hat)[0]
        b = np.linalg.lstsq(psi @ q_f, psi @ a, rcond=None)[0]
        errs.append(float(np.linalg.norm(a - q_f @ b) ** 2))
    mc_mean = float(np.mean(errs))
    assert kept >= 50  # the conditioning event is the typical case
    assert mc_mean <= bound

    # (c) 1000-trial quantile vs the deviation bound on a 200x200 instance
    m2 = n2 = 200
    rho2, k2, s2, l2, d2, q2 = 4, 16, 10, 24, 30, 2
    sv2 = np.concatenate([np.linspace(2, 1, k2), 1e-2 * np.exp(-0.15 * np.arange(n2 - k2))])
    u2 = np.linalg.qr(np.random.default_rng(5).standard_normal((m2, n2)))[0]
    v2 = np.linalg.qr(np.random.default_rng(6).standard_normal((n2, n2)))[0]
    a2 = (u2 * sv2) @ v2.T
    out = bound_spectral_general_q(
        BoundInputsSpec(varrho=rho2, k=k2, l=l2, s=s2, d=d2, q=q2, u=3.0, t=2.0, beta=3.0,
                        singular_values=sv2)
    )
    errs2 = []
    for trial in range(1000):
        tr = np.random.default_rng(50_000 + trial)
        phi = tr.standard_normal((n2, l2))
        omt = tr.standard_normal((l2, s2))
        psi = tr.standard_normal((d2, m2))
        y_hat = spi_variant(a2 @ phi, omt, q2)
        q_f = np.linalg.qr(y_hat)[0]
        b = np.linalg.lstsq(psi @ q_f, psi @ a2, rcond=None)[0]
        errs2.append(float(np.linalg.norm(a2 - q_f @ b, 2)))
    quantile = float(np.quantile(errs2, 1.0 - out.failure_probability))
    assert quantile <= out.bound
    assert time.time() - t0 < 300
    _report(8, t0, f"gamma3 -> {g_prev:.3f}; MC mean/bound = {mc_mean / bound:.2f} "
                   f"({kept}/100 kept); quantile/bound = {quantile / out.bound:.4f}")


def test_criterion_09_sparse_embedding_close_to_gaussian():
    """One-percent sparse-Rademacher embeddings condition a 50-dim subspace
    nearly as well as Gaussian embeddings (within 20% mean condition number)."""
    t0 = time.time()
    from sketchpower.test_matrices import TestMatrixKind

    n, dim, emb, trials = 2000, 50, 100, 100
    u = np.linalg.qr(np.random.default_rng(9).standard_normal((n, dim)))[0]
    kappa = {"sparse_rademacher": [], "gaussian": []}
    for trial in range(trials):
        for name in kappa:
            kind = TestMatrixKind(name, 0.01) if name != "gaussian" else GAUSSIAN
            phi = generate(kind, n, emb, SeedSpec(11, Stream.PHI, trial))
            sv = np.linalg.svd(phi.T @ u, compute_uv=False)
            kappa[name].append(sv[0] / sv[-1])
    mean_sparse = float(np.mean(kappa["sparse_rademacher"]))
    mean_gauss = float(np.mean(kappa["gaussian"]))
    assert abs(mean_sparse - mean_gauss) <= 0.2 * mean_gauss
    assert time.time() - t0 < 120
    _report(9, t0, f"mean condition numbers: sparse {mean_sparse:.3f} vs gaussian {mean_gauss:.3f}")


def test_criterion_10_one_pass_and_determinism(tmp_path, monkeypatch):
    """Block-streamed ingestion equals one-shot; equal seeds give
    byte-identical CSV across runs, with or without a forked child."""
    t0 = time.time()
    rng = np.random.default_rng(1010)
    a = rng.standard_normal((120, 90))
    one = open_stream(PipelineKind.TYUC17_SPI, 120, 90, 8, 20, 18, base_seed=6)
    sk_one = one.ingest(LinearUpdate.dense(a)).finalize()
    blk = open_stream(PipelineKind.TYUC17_SPI, 120, 90, 8, 20, 18, base_seed=6)
    for i in range(0, 120, 11):
        blk.ingest(LinearUpdate.row_block(i, a[i : i + 11]))
    sk_blk = blk.finalize()
    for name in ("y", "w", "z"):
        x1 = getattr(sk_one, name).data
        x2 = getattr(sk_blk, name).data
        assert np.linalg.norm(x2 - x1) <= 1e-12 * np.linalg.norm(x1)
    assert sk_one.pass_count == 1 and sk_blk.pass_count == 1

    args = ["run", "--data", "poly", "--alpha", "1", "--rank", "5", "--algo", "tyuc17_spi",
            "--q", "1", "--budget", "30", "--trials", "4", "--guidance", "auto",
            "--m", "100", "--n", "100", "--base-seed", "21"]
    outs = []
    gate = matrix_core._TWO_CPUS
    for i, two_cpus in enumerate((gate, gate, not gate)):
        monkeypatch.setattr(matrix_core, "_TWO_CPUS", two_cpus)
        path = tmp_path / f"det{i}.csv"
        assert bench_cli.main(args + ["--out", str(path)]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1] == outs[2]
    _report(10, t0, "streamed == one-shot at 1e-12; CSV byte-identical across runs and schedules")
