#!/usr/bin/env python3
"""Trajectory consumer: diff sustained_tx_per_sec across the committed
bench/trajectory/BENCH_*.json files and fail on a regression.

Each trajectory file (written by record_trajectory.sh) wraps one
bench_node_throughput run: {commit, date, hardware_threads,
node_throughput: [points...]}, plus optional state_scale and read_storm
arrays (the bench_state_scale arena ablation and the bench_read_storm
MVCC read-path storm; the read storm and the arena comparison are
reported informationally, the state-scale root ratio gates — see below).
node_throughput points are keyed by
(benchmark, pipelined, pipeline_depth, mine_shards); files that predate
the depth-k ring carry no pipeline_depth field and read as depth 1, and
files that predate sharded production carry no mine_shards field and
read as 1 shard. Only mine_shards == 1 points gate — the shard-scaling
lane is reported informationally, exactly like state_scale.

The gate compares the NEWEST file against its predecessor only — older
transitions are history (they were green when committed, and a
retroactively-red gate would block every future PR). A >--threshold drop
in sustained_tx_per_sec on any shared key fails with exit 1. Files
measured on different hardware_threads counts are not comparable
(pipeline overlap needs cores); the gate warns and passes instead of
guessing. The same applies to the machine-speed fingerprint
(machine_iters_per_us, the CycleBurner calibration recorded per run):
on shared infrastructure the same box can run 2x slower between
recording dates, which hardware_threads cannot see — when the
fingerprints of the two newest files disagree by more than 10% (or only
one file carries one), absolute tx/s is not comparable and the gate
skips instead of red-flagging phantom regressions. The full history
table is always printed.

The state-root key does not need the fingerprint: for every
bench_state_scale point it takes state_root_ms / wall_ms (root hashing
over mining, both measured in the same run, so host speed cancels),
pairs the points both newest files carry (same benchmark, accounts,
skew, conflict, arena), and fails if the median of their ratio changes
rose by more than ROOT_THRESHOLD. One point alone is too noisy to gate:
in two sets of eight run_all.sh sweeps of one commit (54 quick points
each, a 4-core host) single points moved by up to 170% between two
sweeps, while the median over the shared points moved by at most 11%;
ROOT_THRESHOLD is close to three times that. With fewer than
MIN_ROOT_POINTS shared points the changes are printed but not gated.
It still needs equal hardware_threads (mining is multi-threaded,
hashing is not).

usage: check_trajectory.py [--threshold=0.15] [trajectory-dir]
"""

import json
import pathlib
import sys


def load_points(path):
    """-> (meta dict, {key: {"tx": sustained_tx_per_sec, "snapshot_ms": ...}}).

    snapshot_ms (the per-run boundary-snapshot time; O(state) deep clones
    before the COW state layer, O(contracts) forks after) is carried for
    informational reporting only — it never gates."""
    data = json.loads(path.read_text())
    points = {}
    for point in data.get("node_throughput") or []:
        key = (
            point.get("benchmark", "?"),
            bool(point.get("pipelined")),
            int(point.get("pipeline_depth", 1)),
            int(point.get("mine_shards", 1)),
        )
        points[key] = {
            "tx": float(point.get("sustained_tx_per_sec", 0.0)),
            "snapshot_ms": float(point.get("snapshot_ms", 0.0)),
        }
    return data, points


def machine_speed(meta):
    """CycleBurner burn-iterations/µs the run was recorded at, or None.

    Newer files carry it in the header (record_trajectory.sh lifts it
    from the points); fall back to scanning the points so a hand-rolled
    file still fingerprints. Files predating the field return None."""
    value = meta.get("machine_iters_per_us")
    if value:
        return float(value)
    for point in meta.get("node_throughput") or []:
        if point.get("machine_iters_per_us"):
            return float(point["machine_iters_per_us"])
    return None


# Shared state-scale points needed before the root ratio gates; a
# run_all.sh sweep records 54.
MIN_ROOT_POINTS = 9
# Largest median rise of the root ratio the gate lets through (see the
# module docstring for the spread it comes from).
ROOT_THRESHOLD = 0.30


def root_ratios(meta):
    """-> {(benchmark, accounts, skew, conflict, arena): state_root_ms / wall_ms}.

    bench_state_scale reports state_root_ms (root hashing) and wall_ms
    (the mining loop without it) from one run, so their ratio is the
    within-run cost of the state root per unit of mining. Repeated
    points of one key (several samples in one file) fold to the median."""
    ratios = {}
    for point in meta.get("state_scale") or []:
        root = float(point.get("state_root_ms", 0.0))
        mining = float(point.get("wall_ms", 0.0))
        if root <= 0 or mining <= 0:
            continue
        key = (
            point.get("benchmark", "?"),
            int(point.get("accounts", 0)),
            float(point.get("skew", 0.0)),
            int(point.get("conflict_percent", 0)),
            bool(point.get("arena")),
        )
        ratios.setdefault(key, []).append(root / mining)
    return {key: sorted(values)[len(values) // 2] for key, values in ratios.items()}


def fmt_ratio_key(key):
    benchmark, accounts, skew, conflict, arena = key
    return (
        f"{benchmark} @ {accounts} accounts skew {skew:g} conflict {conflict}% "
        f"arena {'on' if arena else 'off'}"
    )


def gate_root_ratio(prev_name, prev_meta, cur_name, cur_meta):
    """Gates the median change of state_root_ms / mining ms over the
    points both files carry. Returns 1 on a regression, else 0."""
    prev_ratios, cur_ratios = root_ratios(prev_meta), root_ratios(cur_meta)
    shared = sorted(set(prev_ratios) & set(cur_ratios))
    if not shared:
        print(
            f"check_trajectory: root ratio — {prev_name} and {cur_name} share no "
            "state-scale points; nothing to gate"
        )
        return 0
    deltas = []
    for key in shared:
        prev_ratio, cur_ratio = prev_ratios[key], cur_ratios[key]
        deltas.append((cur_ratio - prev_ratio) / prev_ratio)
        print(
            f"  root/mining {fmt_ratio_key(key)}: {prev_ratio:.2f} -> {cur_ratio:.2f} "
            f"({deltas[-1]:+.1%})"
        )
    median = sorted(deltas)[len(deltas) // 2]
    if len(shared) < MIN_ROOT_POINTS:
        print(
            f"  root/mining median change {median:+.1%} over {len(shared)} shared point(s); "
            f"fewer than {MIN_ROOT_POINTS}, informational only"
        )
        return 0
    regressed = median > ROOT_THRESHOLD
    marker = "  << REGRESSION" if regressed else ""
    print(f"  root/mining median change {median:+.1%} over {len(shared)} shared points{marker}")
    return int(regressed)


def fmt_key(key):
    benchmark, pipelined, depth, shards = key
    mode = f"pipelined k={depth}" if pipelined else "sequential"
    if shards > 1:
        mode += f" shards={shards}"
    return f"{benchmark} [{mode}]"


def report_state_scale(meta, name):
    """Informational arena-ablation summary from a file's state_scale
    points (recorded by record_trajectory.sh when bench_state_scale ran
    alongside bench_node_throughput). Never gates: the ablation's own
    acceptance — arena on beating off — is asserted where the points are
    measured; here the interest is the cross-PR trend line."""
    points = meta.get("state_scale") or []
    pairs = {}
    for point in points:
        key = (point.get("benchmark", "?"), int(point.get("accounts", 0)))
        side = "on" if point.get("arena") else "off"
        pairs.setdefault(key, {})[side] = float(point.get("sustained_tx_per_sec", 0.0))
    if not pairs:
        return
    print(f"  [info] {name} state-scale arena ablation (informational, non-gating):")
    for (benchmark, accounts), sides in sorted(pairs.items()):
        on, off = sides.get("on", 0.0), sides.get("off", 0.0)
        gain = f"{(on - off) / off:+.1%}" if off > 0 else "n/a"
        print(
            f"    {benchmark} @ {accounts} accounts: "
            f"arena {on:.0f} vs heap {off:.0f} tx/s ({gain})"
        )


def report_read_storm(meta, name):
    """Informational MVCC read-path summary from a file's read_storm
    points (recorded by record_trajectory.sh when bench_read_storm ran
    alongside bench_node_throughput). Never gates: read QPS and the
    write-path delta are core-count-shaped (a 1-vCPU runner timeshares
    readers against the miner), so the interest is the cross-PR trend
    line, and the bench's own pinned-root check is the correctness
    gate where the points are measured."""
    points = meta.get("read_storm") or []
    if not points:
        return
    print(f"  [info] {name} MVCC read storm (informational, non-gating):")
    for point in points:
        qps = float(point.get("read_qps", 0.0))
        p99 = float(point.get("read_p99_us", 0.0))
        delta = float(point.get("write_delta_pct", 0.0))
        print(
            f"    {point.get('benchmark', '?')} shards={point.get('mine_shards', 1)} "
            f"readers={point.get('readers', 0)}: {qps:.0f} reads/s "
            f"(p99 {p99:.1f}µs), write-path delta {delta:+.1f}%"
        )


def report_shard_scaling(points, name):
    """Informational shard-scaling summary from a file's mine_shards > 1
    node-throughput points, compared against the 1-shard point at the
    same (benchmark, pipelined, depth). Never gates: cross-shard traffic
    makes n-shard throughput workload-dependent by design; the interest
    here is the cross-PR trend line."""
    sharded = {key: p for key, p in points.items() if key[3] > 1}
    if not sharded:
        return
    print(f"  [info] {name} shard scaling (informational, non-gating):")
    for key in sorted(sharded):
        benchmark, pipelined, depth, shards = key
        base = points.get((benchmark, pipelined, depth, 1))
        n_tx = sharded[key]["tx"]
        if base and base["tx"] > 0:
            ratio = f"{n_tx / base['tx']:.2f}x vs 1 shard"
        else:
            ratio = "no 1-shard reference"
        print(f"    {fmt_key(key)}: {n_tx:.0f} tx/s ({ratio})")


def main(argv):
    threshold = 0.15
    trajectory_dir = pathlib.Path(__file__).resolve().parent / "trajectory"
    for arg in argv[1:]:
        if arg.startswith("--threshold="):
            threshold = float(arg.split("=", 1)[1])
        elif arg.startswith("--"):
            print(__doc__, file=sys.stderr)
            return 2
        else:
            trajectory_dir = pathlib.Path(arg)

    files = sorted(trajectory_dir.glob("BENCH_*.json"))
    if not files:
        print(f"check_trajectory: no BENCH_*.json under {trajectory_dir}; nothing to check")
        return 0

    loaded = []
    for path in files:
        try:
            meta, points = load_points(path)
        except (json.JSONDecodeError, ValueError) as err:
            print(f"check_trajectory: FAIL — {path.name} is unreadable: {err}")
            return 1
        loaded.append((path.name, meta, points))
    # Chronology comes from the recorded date, not the filename (commit
    # hashes don't sort by time).
    loaded.sort(key=lambda item: item[1].get("date", ""))

    print(f"check_trajectory: {len(loaded)} trajectory file(s), threshold {threshold:.0%}")
    for name, meta, points in loaded:
        line = ", ".join(
            f"{fmt_key(key)}: {p['tx']:.0f} tx/s" for key, p in sorted(points.items())
        )
        speed = machine_speed(meta)
        speed_txt = f", {speed:.0f} iters/µs" if speed else ""
        print(
            f"  {meta.get('date', '?')} {name} "
            f"(hw={meta.get('hardware_threads', '?')}{speed_txt}): {line}"
        )

    report_state_scale(loaded[-1][1], loaded[-1][0])
    report_read_storm(loaded[-1][1], loaded[-1][0])
    report_shard_scaling(loaded[-1][2], loaded[-1][0])

    if len(loaded) < 2:
        print("check_trajectory: single data point — no transition to gate")
        return 0

    (prev_name, prev_meta, prev_points) = loaded[-2]
    (cur_name, cur_meta, cur_points) = loaded[-1]

    if prev_meta.get("hardware_threads") != cur_meta.get("hardware_threads"):
        print(
            f"check_trajectory: SKIP — {prev_name} (hw={prev_meta.get('hardware_threads')}) and "
            f"{cur_name} (hw={cur_meta.get('hardware_threads')}) ran on different hardware; "
            "sustained throughput is not comparable across core counts"
        )
        return 0

    root_regressions = gate_root_ratio(prev_name, prev_meta, cur_name, cur_meta)
    tx_regressions = gate_throughput(prev_name, prev_meta, prev_points, cur_name, cur_meta,
                                     cur_points, threshold)
    if root_regressions or tx_regressions:
        print(
            f"check_trajectory: FAIL — {tx_regressions} throughput key(s) regressed more "
            f"than {threshold:.0%}, {root_regressions} state-root median more than "
            f"{ROOT_THRESHOLD:.0%}, between {prev_name} and {cur_name}"
        )
        return 1
    print(
        f"check_trajectory: OK — no tx/s regression beyond {threshold:.0%} and no state-root "
        f"median rise beyond {ROOT_THRESHOLD:.0%} in {cur_name}"
    )
    return 0


def gate_throughput(prev_name, prev_meta, prev_points, cur_name, cur_meta, cur_points,
                    threshold):
    """Gates absolute sustained tx/s when the machine-speed fingerprints
    agree. Returns the number of regressions (0 when it skips)."""
    prev_speed, cur_speed = machine_speed(prev_meta), machine_speed(cur_meta)
    if (prev_speed is None) != (cur_speed is None):
        unfingerprinted = prev_name if prev_speed is None else cur_name
        print(
            f"check_trajectory: SKIP tx/s — {unfingerprinted} carries no machine-speed "
            "fingerprint; without machine_iters_per_us on both sides, absolute tx/s cannot be "
            "attributed to code vs. host state (shared-infra frequency/steal shifts)"
        )
        return 0
    if prev_speed is not None and cur_speed is not None and prev_speed > 0:
        drift = abs(cur_speed - prev_speed) / prev_speed
        if drift > 0.10:
            print(
                f"check_trajectory: SKIP tx/s — machine speed drifted {drift:.0%} between runs "
                f"({prev_speed:.0f} -> {cur_speed:.0f} burn-iters/µs); the host, not the code, "
                "changed — absolute tx/s is not comparable"
            )
            return 0

    # Gate only the 1-shard keys: shard-scaling points are informational
    # (cross-shard arbitration makes their throughput workload-shaped).
    shared = sorted(key for key in set(prev_points) & set(cur_points) if key[3] == 1)
    if not shared:
        print(f"check_trajectory: SKIP tx/s — {prev_name} and {cur_name} share no benchmark keys")
        return 0

    regressions = 0
    for key in shared:
        prev_tx, cur_tx = prev_points[key]["tx"], cur_points[key]["tx"]
        if prev_tx <= 0:
            continue
        delta = (cur_tx - prev_tx) / prev_tx
        marker = ""
        if delta < -threshold:
            marker = "  << REGRESSION"
            regressions += 1
        print(f"  {fmt_key(key)}: {prev_tx:.0f} -> {cur_tx:.0f} tx/s ({delta:+.1%}){marker}")

    # snapshot_ms deltas are informational only (never gate): the number
    # tracks the COW fork cost per boundary, and how much of it a PR moved
    # between snapshot_ms and mine_ms (detach-on-write) is a design choice,
    # not a regression.
    for key in shared:
        prev_ms, cur_ms = prev_points[key]["snapshot_ms"], cur_points[key]["snapshot_ms"]
        if prev_ms <= 0 and cur_ms <= 0:
            continue
        delta_txt = f"{(cur_ms - prev_ms) / prev_ms:+.1%}" if prev_ms > 0 else "n/a"
        print(
            f"  [info] {fmt_key(key)}: snapshot_ms {prev_ms:.3f} -> {cur_ms:.3f} "
            f"({delta_txt}; informational, non-gating)"
        )
    return regressions


if __name__ == "__main__":
    sys.exit(main(sys.argv))
