#!/usr/bin/env bash
# Byte-identity check list: 83 sketchpower-bench commands, each writing its
# CSV (NAME.csv) and stderr (NAME.err) into OUTDIR, and one exit code per
# command into OUTDIR/status.txt.
#
#   tools/checklist.sh OUTDIR [CHECKOUT]
#
# CHECKOUT (default: the checkout this script is in) is the source tree whose
# src/ is run, so one copy of the script serves a parent and a change:
#
#   tools/checklist.sh /tmp/cl-parent /path/to/parent-checkout
#   tools/checklist.sh /tmp/cl-change
#   diff -r /tmp/cl-parent /tmp/cl-change
#
# The commands: `run` tyuc17_spi at the paper's 1000x1000 (T=96, auto, 4
# trials), and once more at --q 2 in binary64 (2 trials); fourteen `sweep`s,
# which take each branch of the oracle sweep's sharing of one ingest per
# trial: tyuc17_spi on 400x400 poly-2 (T=100, 3 trials) with Gaussian and
# with the default sparse_rademacher test matrices, tyuc17 there with
# Gaussian ones (no Z, q written as 0), tyuc17_spi on a 1000x600 poly-2
# matrix of several row chunks (T=50, Gaussian, 1 trial), rsvd_onepass
# there with Gaussian and with the default test matrices (its gram sketch
# folded over several row chunks), and each other kind on 120x100 poly-2
# (T=30, r=4, 2 trials) with Gaussian and with the default
# sparse_rademacher test matrices; all six
# algorithms on lowrank 300x200 (T=40, r=5, auto) and on exp-0.5 60x50 (T=32,
# r=4, Gaussian); the three powered algorithms on that lowrank case at
# --q 2 and --q 3, where tyuc17_spi re-orthonormalizes at each step; three
# algorithms on a 300x200 SPIM file and three on noise-free lowrank
# (`--gamma 0`); and the ledgers of the sizes `--guidance auto` resolves
# for all six algorithms under both plans on 400x400 poly-2 at T=60 and
# T=100, and the `--guidance auto` ledger refusal of each of the six at
# 2,000,000x1000 and T=21, which names the least budget that resolves (no
# data is made for a ledger); and each per-column test-matrix kind,
# sparse_sign and countsketch, in a `run` of tyuc17_spi and of tyuc19 on that
# lowrank case and in a `sweep` of tyuc17_spi on 120x100 poly-2; two `sweep`s
# of tyuc17_spi on noisy lowrank 120x100 data (T=30, r=4, 2 trials), with
# Gaussian and with the default test matrices, where each trial's spectrum is
# taken once and serves every grid point; the ledger of tyuc17_spi at manual
# sizes (6, 14, 20) on the binary64 and binary32 SPIM files, which are walked,
# not loaded, and on a missing file (refused); and the ledgers of tyuc17_spi
# (refused by its storage rule) and tyuc19 on the SPIM file at the sizes
# `--guidance auto` resolves at T=40 from the file's spectrum.
# The file is written into OUTDIR
# with NumPy alone and named by a relative path, so the CSVs' param column
# is the same in every OUTDIR and `diff -r` compares numbers only.
#
# The CLI reads files whole, so two stream paths it never takes are checked
# apart, in OUTDIR/stream.txt (one "LABEL SKETCH SHA1" line per sketch):
# ingest_file on the SPIM file and on a binary32 copy, for all six pipelines;
# and a seeded mix of rank-one terms, 8-column blocks (two of them sharing
# four columns, which tyuc17_spi, at k = 17, folds in one flush, and one
# ending at column n) and one block k+1 columns wide (k the staging width)
# into every pipeline that stages, under both plans; under the all-double
# plan the mix ends with a rank-one term whose left vector has entries near
# 1e160 and an 8-column block of such entries, whose squares overflow, so the
# finiteness check's exact fallback takes them.  Both test-matrix kinds are
# used.
set -euo pipefail
if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 OUTDIR [CHECKOUT]" >&2
    exit 2
fi
src="$(cd "${2:-$(dirname "$0")/..}" && pwd)/src"
mkdir -p "$1"
cd "$1"
export PYTHONPATH="$src"
: > status.txt

bench() {  # NAME ARGS...
    local name=$1 rc=0
    shift
    python3 -m sketchpower.bench_cli "$@" --out "$name.csv" 2> "$name.err" || rc=$?
    echo "$name $rc" >> status.txt
}

python3 - <<'PY'
import numpy as np

m, n = 300, 200
a = np.random.default_rng(4).standard_normal((m, n)) * np.arange(1.0, n + 1) ** -1.0
head = b"SPIM" + np.array([1], "<u2").tobytes() + bytes([0, 0]) + np.array([m, n], "<u8").tobytes()
with open("poly300x200.spim", "wb") as fh:
    fh.write(head + a.astype("<f8").tobytes())
head32 = head[:6] + bytes([1]) + head[7:]
with open("poly300x200_f32.spim", "wb") as fh:
    fh.write(head32 + a.astype("<f4").tobytes())
PY

python3 - <<'PY'
import hashlib

import numpy as np

from sketchpower.precision_model import PIPELINES, PrecisionPlan
from sketchpower.stream_ingest import LinearUpdate, PipelineKind, ingest_file, open_stream
from sketchpower.test_matrices import GAUSSIAN, TestMatrixKind

lines = []


def record(label, sk):
    for name in ("y", "w", "z", "x", "k"):
        mat = getattr(sk, name)
        if mat is not None:
            lines.append(f"{label} {name} {hashlib.sha1(np.asarray(mat.data).tobytes()).hexdigest()}")


def sizes(kind):
    spec = PIPELINES[kind.value]
    return 6, 14 if spec.uses("d") else 0, 14 if spec.uses("l") else 0


m, n = 300, 200
test_kinds = {"gaussian": GAUSSIAN, "sparse_rademacher": TestMatrixKind("sparse_rademacher", 0.01)}
for tk_name, tk in test_kinds.items():
    for plan in PrecisionPlan:
        for kind in PipelineKind:
            for path in ("poly300x200.spim", "poly300x200_f32.spim"):
                sk = ingest_file(path, kind, *sizes(kind), base_seed=5, trial=1, test_kind=tk, plan=plan)
                record(f"file:{path}:{kind.value}:{plan.value}:{tk_name}", sk)
            stream = open_stream(kind, m, n, *sizes(kind), base_seed=6, trial=2, test_kind=tk, plan=plan)
            k = stream._stage_cols
            if k == 0:
                continue
            rng = np.random.default_rng(8)
            for i in range(60):
                if i % 3:
                    stream.ingest(LinearUpdate.rank_one(rng.standard_normal(m), rng.standard_normal(n)))
                else:
                    j = int(rng.integers(0, n - 8))
                    stream.ingest(LinearUpdate.column_block(j, rng.standard_normal((m, 8))))
            j = int(rng.integers(0, n - 12))
            stream.ingest(LinearUpdate.column_block(j, rng.standard_normal((m, 8))))
            stream.ingest(LinearUpdate.column_block(j + 4, rng.standard_normal((m, 8))))
            stream.ingest(LinearUpdate.column_block(n - 8, rng.standard_normal((m, 8))))
            stream.ingest(LinearUpdate.column_block(n - k - 1, rng.standard_normal((m, k + 1))))
            stream.ingest(LinearUpdate.rank_one(rng.standard_normal(m), rng.standard_normal(n)))
            if plan is PrecisionPlan.ALL_DOUBLE:  # squares overflow: the exact fallback accepts them
                stream.ingest(LinearUpdate.rank_one(1e160 * rng.standard_normal(m), rng.standard_normal(n)))
                j = int(rng.integers(0, n - 8))
                stream.ingest(LinearUpdate.column_block(j, 1e160 * rng.standard_normal((m, 8))))
            record(f"staged:{kind.value}:{plan.value}:{tk_name}", stream.finalize())
with open("stream.txt", "w") as fh:
    fh.write("\n".join(lines) + "\n")
PY

kinds="tyuc17 tyuc17_spi tyuc17_spi_variant rsvd_onepass tyuc19 tyuc19_spi"
bench run_paper run --algo tyuc17_spi --data poly --alpha 1 --m 1000 --n 1000 --budget 96 --guidance auto --trials 4
bench run_paper_q2 run --algo tyuc17_spi --data poly --alpha 1 --m 1000 --n 1000 --budget 96 --guidance auto \
    --q 2 --precision double --trials 2
bench sweep_poly2 sweep --algo tyuc17_spi --data poly --alpha 2 --m 400 --n 400 --budget 100 --trials 3 \
    --test-matrix gaussian
bench sweep_poly2_sparse sweep --algo tyuc17_spi --data poly --alpha 2 --m 400 --n 400 --budget 100 --trials 3
bench sweep_poly2_tyuc17 sweep --algo tyuc17 --data poly --alpha 2 --m 400 --n 400 --budget 100 --trials 3 \
    --test-matrix gaussian
bench sweep_chunks sweep --algo tyuc17_spi --data poly --alpha 2 --m 1000 --n 600 --budget 50 --trials 1 \
    --test-matrix gaussian
bench sweep_chunks_rsvd_onepass sweep --algo rsvd_onepass --data poly --alpha 2 --m 1000 --n 600 --budget 50 \
    --trials 1 --test-matrix gaussian
bench sweep_chunks_rsvd_onepass_sparse sweep --algo rsvd_onepass --data poly --alpha 2 --m 1000 --n 600 --budget 50 \
    --trials 1
for k in tyuc17_spi_variant rsvd_onepass tyuc19 tyuc19_spi; do
    for tm in gaussian sparse_rademacher; do
        bench "sweep_${k}_$tm" sweep --algo "$k" --data poly --alpha 2 --m 120 --n 100 --budget 30 --rank 4 \
            --trials 2 --test-matrix "$tm"
    done
done
for k in $kinds; do
    bench "lowrank_$k" run --algo "$k" --data lowrank --m 300 --n 200 --budget 40 --rank 5 --guidance auto --trials 3
    bench "exp_$k" run --algo "$k" --data exp --alpha 0.5 --m 60 --n 50 --budget 32 --rank 4 --guidance auto \
        --trials 3 --test-matrix gaussian
done
for k in tyuc17_spi tyuc17_spi_variant tyuc19_spi; do
    for q in 2 3; do
        bench "lowrank_${k}_q$q" run --algo "$k" --data lowrank --m 300 --n 200 --budget 40 --rank 5 --guidance auto \
            --q "$q" --trials 3
    done
done
for k in tyuc17_spi rsvd_onepass tyuc19; do
    bench "file_$k" run --algo "$k" --data file --file poly300x200.spim --budget 40 --rank 5 --guidance auto --trials 3
    bench "lowrank0_$k" run --algo "$k" --data lowrank --gamma 0 --m 300 --n 200 --budget 40 --rank 5 \
        --guidance auto --trials 3
done
for k in $kinds; do
    for p in double mixed; do
        for t in 60 100; do
            bench "ledger_${k}_${p}_$t" ledger --algo "$k" --precision "$p" --data poly --alpha 2 --m 400 --n 400 \
                --budget "$t" --guidance auto
        done
    done
done
for k in $kinds; do
    bench "ledger_tall_$k" ledger --algo "$k" --m 2000000 --n 1000 --budget 21 --guidance auto
done
for tm in sparse_sign countsketch; do
    for k in tyuc17_spi tyuc19; do
        bench "lowrank_${k}_$tm" run --algo "$k" --data lowrank --m 300 --n 200 --budget 40 --rank 5 --guidance auto \
            --trials 3 --test-matrix "$tm"
    done
    bench "sweep_tyuc17_spi_$tm" sweep --algo tyuc17_spi --data poly --alpha 2 --m 120 --n 100 --budget 30 --rank 4 \
        --trials 2 --test-matrix "$tm"
done
for tm in gaussian sparse_rademacher; do
    bench "sweep_lowrank_$tm" sweep --algo tyuc17_spi --data lowrank --m 120 --n 100 --budget 30 --rank 4 \
        --trials 2 --test-matrix "$tm"
done
for f in poly300x200 poly300x200_f32 missing; do
    bench "ledger_file_$f" ledger --algo tyuc17_spi --data file --file "$f.spim" --s 6 --d 14 --l 20
done
for k in tyuc17_spi tyuc19; do
    bench "ledger_file_auto_$k" ledger --algo "$k" --data file --file poly300x200.spim --budget 40 --guidance auto
done
