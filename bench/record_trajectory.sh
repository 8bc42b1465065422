#!/usr/bin/env bash
# Folds one bench_node_throughput JSON array into the cross-PR throughput
# record: bench/trajectory/BENCH_<commit>.json, one file per measured
# commit, committed to the repo so `sustained_tx_per_sec` can be compared
# across PRs (the ROADMAP's trajectory item). The file is also copied
# into the bench output dir so CI artifacts carry it.
#
# usage: bench/record_trajectory.sh <bench_node_throughput.json> [out-dir]
set -euo pipefail
SRC="${1:?usage: record_trajectory.sh <bench_node_throughput.json> [out-dir]}"
OUT_DIR="${2:-bench_results}"
# Resolve caller-relative paths before moving to the repo root.
SRC="$(readlink -f "$SRC")"
mkdir -p "$OUT_DIR"
OUT_DIR="$(readlink -f "$OUT_DIR")"
cd "$(dirname "$0")/.."

COMMIT="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
DIRTY=""
git diff --quiet HEAD 2>/dev/null || DIRTY="-dirty"
DATE="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
HW_THREADS="$(nproc 2>/dev/null || echo 0)"
# Lift the bench's machine-speed fingerprint (CycleBurner calibration,
# burn-iterations/µs) into the file header so check_trajectory.py can
# refuse to compare runs from differently-fast machine states — a
# same-box frequency or steal-time shift is invisible to hardware_threads.
MACHINE_SPEED="$(python3 -c "
import json
points = json.load(open('$SRC'))
print(next((p['machine_iters_per_us'] for p in points
            if p.get('machine_iters_per_us')), 0))" 2>/dev/null || echo 0)"

# The state-scale ablation rides along when its JSON sits next to the
# node-throughput file (run_all.sh writes both into one dir).
# check_trajectory.py gates its state_root_ms / wall_ms ratio; the rest
# of each point is informational.
STATE_SRC="$(dirname "$SRC")/bench_state_scale.json"

# Same deal for the MVCC read storm: read QPS / latency / write-path
# delta recorded informationally next to the gated throughput points.
READ_SRC="$(dirname "$SRC")/bench_read_storm.json"

# And the network layer: replicated blocks/s, propagation p50/p99 and
# the leader's tx/s delta with a follower attached. Non-gating.
NET_SRC="$(dirname "$SRC")/bench_net_throughput.json"

mkdir -p bench/trajectory
DEST="bench/trajectory/BENCH_${COMMIT}${DIRTY}.json"
{
  printf '{\n'
  printf '  "commit": "%s%s",\n' "$COMMIT" "$DIRTY"
  printf '  "date": "%s",\n' "$DATE"
  printf '  "hardware_threads": %s,\n' "$HW_THREADS"
  printf '  "machine_iters_per_us": %s,\n' "$MACHINE_SPEED"
  if [[ -s "$STATE_SRC" ]] && grep -q '{' "$STATE_SRC"; then
    printf '  "state_scale": '
    cat "$STATE_SRC"
    printf ',\n'
  fi
  if [[ -s "$READ_SRC" ]] && grep -q '{' "$READ_SRC"; then
    printf '  "read_storm": '
    cat "$READ_SRC"
    printf ',\n'
  fi
  if [[ -s "$NET_SRC" ]] && grep -q '{' "$NET_SRC"; then
    printf '  "net": '
    cat "$NET_SRC"
    printf ',\n'
  fi
  printf '  "node_throughput": '
  cat "$SRC"
  printf '}\n'
} > "$DEST"
cp -f "$DEST" "$OUT_DIR/"
echo "trajectory: $DEST"
