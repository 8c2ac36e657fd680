import numpy as np
import pytest

from sketchpower.matrix_core import Precision
from sketchpower.precision_model import (
    PIPELINES,
    LedgerError,
    PrecisionPlan,
    StorageLedger,
    accuracy_floor,
    plan_mixed,
    simulate_storage,
)


def test_plan_mixed_identity_square():
    assert plan_mixed(1000, 1000, 20, 80) == 100  # l = s + d when m = n


def test_plan_mixed_rectangular():
    assert plan_mixed(2000, 1000, 10, 40) == 30  # ceil((20000 + 40000)/2000)


def test_plan_mixed_rejects_degenerate():
    with pytest.raises(ValueError):
        plan_mixed(10, 10, 0, 5)


def test_mixed_identity_exact_word_balance():
    # Freed words of the power sketch equal the upcast cost of the other two.
    m = n = 1000
    s, d = 20, 80
    l = plan_mixed(m, n, s, d)
    freed = m * l * 0.5
    upcast_cost = (m * s + d * n) * 0.5
    assert freed == upcast_cost


def test_ledger_mixed_peak_matches_double_pipeline():
    m = n = 1000
    s, d = 20, 80
    l = plan_mixed(m, n, s, d)
    led = simulate_storage("tyuc17_spi", PrecisionPlan.MIXED_SINGLE_DOUBLE, m, n, s, d, l)
    assert led.peak_words == d * n + m * s
    assert led.current_words == d * n + m * s


def test_ledger_all_double_peak():
    led = simulate_storage("tyuc17_spi", PrecisionPlan.ALL_DOUBLE, 500, 400, 10, 30, 40)
    assert led.peak_words == 400 * 30 + 500 * 10 + 500 * 40


def test_ledger_variant_peak_bound():
    m = n = 800
    s, d, l = 20, 60, 80
    led = simulate_storage("tyuc17_spi_variant", PrecisionPlan.MIXED_SINGLE_DOUBLE, m, n, s, d, l)
    assert led.peak_words <= (m * l + d * n) / 2 + l * l + s
    assert led.peak_words == (m * l + d * n) / 2 + l * l + s


def test_ledger_variant_contract_violation():
    with pytest.raises(LedgerError):
        simulate_storage("tyuc17_spi_variant", PrecisionPlan.MIXED_SINGLE_DOUBLE, 100, 100, 30, 40, 50)


def test_ledger_infeasible_reuse_raises():
    # l too small for the word balance of the mixed plan.
    with pytest.raises(LedgerError):
        simulate_storage("tyuc17_spi", PrecisionPlan.MIXED_SINGLE_DOUBLE, 1000, 1000, 20, 80, 50)


def test_ledger_tracks_peak_and_free():
    led = StorageLedger()
    led.alloc("a", 10, 10, Precision.BINARY64)
    led.alloc("b", 10, 10, Precision.BINARY32)
    assert led.current_words == 150
    led.free("b")
    assert led.current_words == 100
    assert led.peak_words == 150
    with pytest.raises(LedgerError):
        led.free("b")
    with pytest.raises(LedgerError):
        led.alloc("a", 1, 1, Precision.BINARY64)


def test_sketch_precisions_table():
    def precisions(kind, plan):
        spec = PIPELINES[kind]
        return {sk.name: spec.precision(sk.name, plan) for sk in spec.sketches}

    mixed = precisions("tyuc17_spi", PrecisionPlan.MIXED_SINGLE_DOUBLE)
    assert all(p is Precision.BINARY32 for p in mixed.values())
    k_mixed = precisions("tyuc19_spi", PrecisionPlan.MIXED_SINGLE_DOUBLE)
    assert k_mixed["k"] is Precision.BINARY64
    assert k_mixed["z"] is Precision.BINARY32
    double = precisions("tyuc17_spi", PrecisionPlan.ALL_DOUBLE)
    assert all(p is Precision.BINARY64 for p in double.values())


def test_accuracy_floor_ordering():
    assert accuracy_floor(PrecisionPlan.MIXED_SINGLE_DOUBLE) == pytest.approx(1.2e-7)
    assert accuracy_floor(PrecisionPlan.ALL_DOUBLE) < 1e-15


def test_mixed_and_double_pipelines_agree_when_well_conditioned():
    from sketchpower.approximators import tyuc17_spi
    from sketchpower.spi import SpiParams
    from sketchpower.stream_ingest import LinearUpdate, PipelineKind, open_stream

    rng = np.random.default_rng(40)
    u = np.linalg.qr(rng.standard_normal((80, 6)))[0]
    v = np.linalg.qr(rng.standard_normal((60, 6)))[0]
    a = (u * np.linspace(2.0, 1.0, 6)) @ v.T
    outs = {}
    for plan in PrecisionPlan:
        st = open_stream(PipelineKind.TYUC17_SPI, 80, 60, 8, 18, 16, base_seed=41, plan=plan)
        sk = st.ingest(LinearUpdate.dense(a)).finalize()
        outs[plan] = tyuc17_spi(sk, SpiParams(q=1), 6).reconstruct()
    diff = np.linalg.norm(outs[PrecisionPlan.ALL_DOUBLE] - outs[PrecisionPlan.MIXED_SINGLE_DOUBLE])
    assert diff <= 50 * np.finfo(np.float32).eps * np.linalg.norm(a)


_B32, _B64 = "binary32", "binary64"

# Mixed-plan ledgers at m=60, n=45, s=4, d=10, l=12, as (csv_rows, peak_words).
_MIXED_LEDGERS = {
    "tyuc17": ([("y", 60, 4, _B64, 240.0), ("w", 10, 45, _B32, 225.0), ("b", 4, 45, _B32, 90.0),
                ("b", 4, 45, _B64, 180.0)], 555.0),
    "tyuc17_spi": ([("y", 60, 4, _B32, 120.0), ("w", 10, 45, _B32, 225.0), ("z", 60, 12, _B32, 360.0),
                    ("y", 60, 4, _B64, 240.0), ("w", 10, 45, _B64, 450.0)], 705.0),
    "tyuc17_spi_variant": ([("w", 10, 45, _B32, 225.0), ("z", 60, 12, _B32, 360.0), ("ztz", 12, 12, _B64, 144.0),
                            ("colbuf", 1, 4, _B64, 4.0), ("y", 60, 4, _B32, 120.0), ("y", 60, 4, _B64, 240.0)],
                           733.0),
    "rsvd_onepass": ([("y", 60, 4, _B32, 120.0), ("w", 45, 4, _B32, 90.0), ("y", 60, 4, _B64, 240.0),
                      ("w", 45, 4, _B64, 180.0)], 420.0),
    "tyuc19": ([("y", 60, 4, _B32, 120.0), ("x", 4, 45, _B32, 90.0), ("k", 10, 10, _B64, 100.0),
                ("y", 60, 4, _B64, 240.0), ("x", 4, 45, _B64, 180.0)], 520.0),
    "tyuc19_spi": ([("z", 60, 12, _B32, 360.0), ("w", 12, 45, _B32, 270.0), ("k", 10, 10, _B64, 100.0),
                    ("ztz", 12, 12, _B64, 144.0), ("colbuf", 1, 4, _B64, 4.0), ("y", 60, 4, _B32, 120.0),
                    ("y", 60, 4, _B64, 240.0), ("wwt", 12, 12, _B64, 144.0), ("x", 4, 45, _B32, 90.0),
                    ("x", 4, 45, _B64, 180.0)], 878.0),
}


@pytest.mark.parametrize("kind", list(PIPELINES))
def test_mixed_ledger_of_every_kind_is_pinned(kind):
    PIPELINES[kind].check_sizes(60, 45, 4, 10, 12)
    led = simulate_storage(kind, PrecisionPlan.MIXED_SINGLE_DOUBLE, 60, 45, 4, 10, 12)
    assert (led.csv_rows(), led.peak_words) == _MIXED_LEDGERS[kind]


@pytest.mark.parametrize("kind, sizes", [
    ("tyuc17_spi", (1000, 1000, 20, 80, 50)),  # Z's words cannot cover the upcasts of Y and W
    ("tyuc17_spi_variant", (100, 100, 30, 40, 50)),  # l < 2s
    ("tyuc17_spi_variant", (60, 45, 4, 10, 7)),
    ("tyuc19_spi", (100, 100, 30, 40, 50)),
    ("tyuc19_spi", (60, 45, 4, 10, 7)),
])
def test_mixed_ledger_reuse_failures_raise(kind, sizes):
    with pytest.raises(LedgerError):
        simulate_storage(kind, PrecisionPlan.MIXED_SINGLE_DOUBLE, *sizes)
    simulate_storage(kind, PrecisionPlan.ALL_DOUBLE, *sizes)  # no reuse, no failure


def test_pipeline_table_is_complete_and_consistent():
    from sketchpower import approximators
    from sketchpower.guidance import _BUDGET_RULES
    from sketchpower.stream_ingest import PipelineKind

    assert {k.value for k in PipelineKind} == set(PIPELINES) == {k.value for k in _BUDGET_RULES}
    for kind, spec in PIPELINES.items():
        assert spec.kind == kind and callable(getattr(approximators, kind))
        live = {sk.name for sk in spec.sketches}
        for step in spec.finish:
            op, label, *new = step.split()
            assert op in ("new", "free", "up"), step
            if op == "new":
                assert label not in live and len(new) == 3 and new[2] in (_B32, _B64), step
                assert set(new[:2]) <= set("mnsdl1"), step
                live.add(label)
            else:
                assert label in live, step
                if op == "free":
                    live.remove(label)
