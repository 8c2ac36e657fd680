#!/usr/bin/env bash
# Byte-identity check list: 20 sketchpower-bench commands, each writing its
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
# trials); the 400x400 poly-2 Gaussian `sweep` (T=100, 3 trials); all six
# algorithms on lowrank 300x200 (T=40, r=5, auto) and on exp-0.5 60x50 (T=32,
# r=4, Gaussian); three algorithms on a 300x200 SPIM file and three on
# noise-free lowrank (`--gamma 0`).  The file is written into OUTDIR with NumPy
# alone and named by a relative path, so the CSVs' param column is the same
# in every OUTDIR and `diff -r` compares numbers only.
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
PY

kinds="tyuc17 tyuc17_spi tyuc17_spi_variant rsvd_onepass tyuc19 tyuc19_spi"
bench run_paper run --algo tyuc17_spi --data poly --alpha 1 --m 1000 --n 1000 --budget 96 --guidance auto --trials 4
bench sweep_poly2 sweep --algo tyuc17_spi --data poly --alpha 2 --m 400 --n 400 --budget 100 --trials 3 \
    --test-matrix gaussian
for k in $kinds; do
    bench "lowrank_$k" run --algo "$k" --data lowrank --m 300 --n 200 --budget 40 --rank 5 --guidance auto --trials 3
    bench "exp_$k" run --algo "$k" --data exp --alpha 0.5 --m 60 --n 50 --budget 32 --rank 4 --guidance auto \
        --trials 3 --test-matrix gaussian
done
for k in tyuc17_spi rsvd_onepass tyuc19; do
    bench "file_$k" run --algo "$k" --data file --file poly300x200.spim --budget 40 --rank 5 --guidance auto --trials 3
    bench "lowrank0_$k" run --algo "$k" --data lowrank --gamma 0 --m 300 --n 200 --budget 40 --rank 5 \
        --guidance auto --trials 3
done
