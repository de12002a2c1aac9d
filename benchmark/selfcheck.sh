#!/usr/bin/env bash
# Runs every workload RUNS times back to back, each with another seed, and
# prints per end-to-end metric the relative spread of its values against
# the bound BENCHMARK.json fixes: the distance between the first and third
# quartile over the median — what the driver accepts the benchmark on, with
# quartiles as Python's statistics.quantiles(values, n=4) gives them — and
# the full range (max − min) over the median beside it. Exits non-zero when
# an interquartile spread exceeds half its bound ("ok" is within a third of
# the bound, which is the target; "wide" is within half) — except that of
# setup_s, which the driver holds only to its median from one set of runs to
# the next, and which is printed for information. Then repeats with
# half the runs beside a bursty hog (one core busy 1 s in every 5, as on a
# shared host) and prints that spread for information only.
#
#   benchmark/selfcheck.sh [RUNS] [WORKLOAD...]      # default 10, all six
#
# The tables are markdown: NOISE.md is this script's output.
set -euo pipefail
cd "$(dirname "$0")/.."

RUNS=${1:-10}
shift || true
WORKLOADS=("$@")
if [ ${#WORKLOADS[@]} -eq 0 ]; then
  WORKLOADS=(dense_incore spill_write spill_scan sim_paper_scale optimize_search serve_mix)
fi
METRICS=(setup_s round_ms_p02 cpu_ms_per_round peak_heap_mb)
OUT=benchmark/out/selfcheck
mkdir -p "$OUT"

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bench() {
  cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
}

bound_of() {
  grep -o "\"name\": *\"$1\"[^}]*" BENCHMARK.json | grep -o '"bound": *[0-9.]*' | grep -o '[0-9.]*$'
}

# pass <label> <first seed> <runs>: one results file per workload, one JSON
# line a run.
pass() {
  local label=$1 seed=$2 runs=$3
  for w in "${WORKLOADS[@]}"; do
    : >"$OUT/$label-$w.jsonl"
    for ((i = 0; i < runs; i++)); do
      bench --workload "$w" --seed $((seed + i)) --seconds 20 --trace 0 | tail -n 1 >>"$OUT/$label-$w.jsonl"
    done
    if grep -qv '"correct":true,"attempted":[0-9]*,"failed":0,' "$OUT/$label-$w.jsonl"; then
      echo "selfcheck: $w reported failed rounds" >&2
      exit 1
    fi
  done
}

# table <label> <gate 0|1>: prints the spreads; returns 1 if gated and over.
table() {
  local label=$1 gate=$2 over=0
  echo "| workload | metric | median | IQR/median | range/median | bound | verdict |"
  echo "|---|---|---:|---:|---:|---:|---|"
  for w in "${WORKLOADS[@]}"; do
    for m in "${METRICS[@]}"; do
      local bound gated=$gate
      bound=$(bound_of "$m")
      [ "$m" = setup_s ] && gated=0
      local row
      row=$(grep -o "\"$m\":{\"value\":[0-9.e+-]*" "$OUT/$label-$w.jsonl" | grep -o '[0-9.e+-]*$' | sort -g |
        awk -v bound="$bound" -v gate="$gated" '
          function q(p,   pos, lo) {   # statistics.quantiles, method "exclusive"
            pos = p * (n + 1); lo = int(pos)
            if (lo < 1) return v[1]
            if (lo >= n) return v[n]
            return v[lo] + (v[lo + 1] - v[lo]) * (pos - lo)
          }
          { v[++n] = $1 }
          END {
            med = q(0.5); range = (v[n] - v[1]) / med; iqr = (q(0.75) - q(0.25)) / med
            verdict = (iqr <= bound / 3) ? "ok" : (iqr <= bound / 2) ? "wide" : (gate ? "OVER" : "over")
            printf "%.4g | %.4f | %.4f | %.2f | %s", med, iqr, range, bound, verdict
          }')
      echo "| $w | $m | $row |"
      case "$row" in *OVER*) over=1 ;; esac
    done
  done
  return $over
}

echo "## Quiet host: $RUNS runs a workload, seeds 101..$((100 + RUNS))"
echo
pass quiet 101 "$RUNS"
status=0
table quiet 1 || status=1
echo

echo "## Beside a bursty hog (one core busy 1 s in every 5), $(((RUNS + 1) / 2)) runs: for information"
echo
(while :; do
  timeout 1 bash -c 'while :; do :; done' || true
  sleep 4
done) &
HOG=$!
trap 'kill "$HOG" 2>/dev/null || true; wait "$HOG" 2>/dev/null || true' EXIT
pass hog 201 $(((RUNS + 1) / 2))
table hog 0 || true
echo

if [ $status -ne 0 ]; then
  echo "selfcheck: an interquartile spread exceeds half its bound" >&2
fi
exit $status
