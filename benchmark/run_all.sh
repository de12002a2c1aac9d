#!/usr/bin/env bash
# Runs every workload once, untraced (the gated end-to-end metrics) and,
# with --trace, traced as well (per-layer metrics and trace files under
# benchmark/out/). The last line of each run is the contract's JSON.
#
#   benchmark/run_all.sh [--trace] [--seed N]
set -euo pipefail
cd "$(dirname "$0")/.."

TRACE=0
SEED=1
while [ $# -gt 0 ]; do
  case "$1" in
    --trace) TRACE=1 ;;
    --seed) SEED=$2; shift ;;
    *) echo "usage: benchmark/run_all.sh [--trace] [--seed N]" >&2; exit 2 ;;
  esac
  shift
done

for w in dense_incore spill_write spill_scan sim_paper_scale optimize_search serve_mix; do
  for t in $(seq 0 $TRACE); do
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
      --workload "$w" --seed "$SEED" --seconds 20 --trace "$t"
    echo
  done
done
