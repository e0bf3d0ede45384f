"""B5 — remote master store: round-trip amortisation over real sockets.

The remote backend's whole performance story is *fewer, fatter round
trips*: a naive client pays one HTTP round trip per probe, while
``probe_many`` routes a batch by shard and crosses the network once
per (shard, chunk). This bench boots a 3-shard cluster (real TCP on
loopback), replays one probe workload through the naive per-probe path
and through ``probe_many`` at several chunk sizes, and records
wall-clock, probes/s and the round trips counted by the client's
per-shard stats. A last point runs the rule-only batch pipeline from a
trusted ``zip``, whose first-round probes go out as one ``probe_many``
per window. (The oracle-driven pipeline end to end is perfbench's
``batch-remote`` workload.)

Acceptance (asserted): batched probing crosses the network at least 5x
fewer times than naive probing, and is faster. A replicated cluster (2
replicas per shard, client-side failover) adds zero probe round trips
and, in full mode, at most 5% steady-state wall-clock: the median ratio
over ~90 short calls of each client, paired and alternated so a slow
spell of the box hits both alike (quick mode's workload is too small to
time). Killing a replica under load costs at most one jittered
retry-storm per shard before the circuit parks it, answers
bit-identical. The rule-only pipeline crosses the network at most once
per 32 probes.

``CERFIX_BENCH_QUICK=1`` shrinks the workload for CI. The dump names
``probes/s`` as its floor, anchored on the naive rows, for
``check_bench_json.py --baseline``. Results land in
``benchmarks/out/b5_remote_store.txt`` and ``BENCH_remote.json``.
"""

import gc
import os
import statistics
import time

import pytest

from repro import CerFix
from repro.bench.harness import BenchResult, save_json, save_table, time_call
from repro.master.remote import RemoteMasterStore
from repro.master.shardserver import ShardCluster
from repro.scenarios import uk_customers as uk

QUICK = os.environ.get("CERFIX_BENCH_QUICK", "") == "1"

SHARDS = 3
REPLICAS = 2
# The quick geometry doubles as the full sweep's anchor point: a full
# run replays it verbatim (test_remote_probe_round_trips).
ANCHOR_MASTER = 300
ANCHOR_INPUTS = 80
ANCHOR_ROUNDS = 1
MASTER_SIZE = ANCHOR_MASTER if QUICK else 2_000
PROBE_INPUTS = ANCHOR_INPUTS if QUICK else 400
PROBE_ROUNDS = ANCHOR_ROUNDS if QUICK else 5
BATCH_ROWS = 100 if QUICK else 1_000
CHUNK_SIZES = (64, 512)
#: naive must cross the network at least this many times more often
MIN_TRIP_REDUCTION = 5.0
#: replicated steady state may cost at most this much over unreplicated
MAX_REPLICATION_OVERHEAD = 0.05
#: the steady-state comparison times calls of this many probes, one
#: flat and one replicated call per pair, over this many passes
STEADY_STATE_SLICE = 1_000
STEADY_STATE_PASSES = 5
#: the prefetching rule-only pipeline must batch at least this many
#: probes per round trip
MIN_PIPELINE_PROBES_PER_TRIP = 32


@pytest.fixture(scope="module")
def table():
    result = BenchResult(
        f"B5 — remote master store: naive vs batched probing over "
        f"{SHARDS} shard servers",
        ("mode", "probes", "round trips", "seconds", "probes/s"),
        key=("mode", "probes"),
        floor="probes/s",
        anchor={"mode": "naive per-probe"},
    )
    yield result
    result.note(
        f"{SHARDS} in-process shard servers over loopback TCP (HTTP/1.1 "
        f"keep-alive); master {MASTER_SIZE} rows; round trips measured "
        f"client-side (per-shard stats), handshake excluded"
    )
    if not QUICK:
        result.note(
            f"the second naive/probe_many rows replay the quick (CI) geometry "
            f"against a {ANCHOR_MASTER}-row master — the --baseline anchor points"
        )
    save_table(result, "b5_remote_store.txt")
    save_json(result, "BENCH_remote.json")


@pytest.fixture(scope="module")
def world():
    master = uk.generate_master(MASTER_SIZE, seed=31)
    ruleset = uk.paper_ruleset()
    inputs = uk.generate_workload(master, PROBE_INPUTS, rate=0.0, seed=32).clean
    batch_wl = uk.generate_workload(master, BATCH_ROWS, rate=0.15, seed=33)
    cluster = ShardCluster.in_process(ruleset, master, SHARDS)
    yield master, ruleset, inputs, batch_wl, cluster
    cluster.close()


def _round_trips(store: RemoteMasterStore) -> int:
    """Total round trips, less one handshake GET per shard (differences
    between two readings need no correction)."""
    return sum(s["round_trips"] - 1 for s in store.stats()["per_shard"])


def _requests(ruleset, inputs, rounds: int) -> list:
    """Every master-sourced rule against every input, ``rounds`` times."""
    rules = [r for r in ruleset if not r.is_constant]
    rows = [r.to_dict() for r in inputs.rows()]
    return [(rule, values) for _ in range(rounds) for values in rows for rule in rules]


def _probe_sweep(table, cluster, requests) -> None:
    """Time the naive client and ``probe_many`` per chunk size on one
    workload, add a row each, and assert the round-trip savings."""
    # naive: one round trip per probe (what a store without probe_many
    # batching — or a client ignoring it — pays)
    naive = RemoteMasterStore(cluster.urls)

    def probe_naive():
        for rule, values in requests:
            naive.probe(rule, values)
        return len(requests)

    t_naive, n = time_call(probe_naive, repeat=1)
    naive_trips = _round_trips(naive)
    naive.close()
    assert naive_trips == len(requests)
    table.add("naive per-probe", n, naive_trips, round(t_naive, 3), round(n / t_naive))

    reference = None
    for chunk in CHUNK_SIZES:
        batched = RemoteMasterStore(cluster.urls, max_batch=chunk)
        t_batched, matches = time_call(lambda: batched.probe_many(requests), repeat=1)
        reference = matches if reference is None else reference
        assert matches == reference, "chunk size changed probe results"
        trips = _round_trips(batched)
        batched.close()
        table.add(
            f"probe_many (chunk {chunk})",
            len(requests),
            trips,
            round(t_batched, 3),
            round(len(requests) / t_batched),
        )
        assert trips <= -(-len(requests) // chunk) + SHARDS
        assert naive_trips / trips >= MIN_TRIP_REDUCTION, (
            f"batched probing only saved {naive_trips / trips:.1f}x round trips"
        )
        assert t_batched < t_naive, "batched probing slower than naive"


def test_remote_probe_round_trips(table, world):
    _, ruleset, inputs, _, cluster = world
    _probe_sweep(table, cluster, _requests(ruleset, inputs, PROBE_ROUNDS))
    if QUICK:
        return
    # A full sweep also replays the quick geometry (same seeds and sizes,
    # own cluster), so the committed dump shares (mode, probes) rows with
    # CI's quick run: the rows ``check_bench_json.py --baseline`` compares.
    master = uk.generate_master(ANCHOR_MASTER, seed=31)
    inputs = uk.generate_workload(master, ANCHOR_INPUTS, rate=0.0, seed=32).clean
    cluster = ShardCluster.in_process(ruleset, master, SHARDS)
    try:
        _probe_sweep(table, cluster, _requests(ruleset, inputs, ANCHOR_ROUNDS))
    finally:
        cluster.close()


def test_remote_replicated_steady_state_and_failover(table, world):
    """The replicated client vs the flat one on the identical workload:
    zero extra probe round trips, bounded steady-state overhead — and a
    replica killed under load costs at most one jittered retry-storm
    per shard before its circuit parks it, answers bit-identical."""
    master, ruleset, inputs, _, cluster = world
    requests = _requests(ruleset, inputs, PROBE_ROUNDS)
    rcluster = ShardCluster.in_process(ruleset, master, SHARDS, replicas=REPLICAS)
    try:
        flat = RemoteMasterStore(cluster.urls)
        repl = RemoteMasterStore(rcluster.urls)
        expected = flat.probe_many(requests)  # warms both clients
        assert repl.probe_many(requests) == expected, "replication changed probe answers"
        flat_warm, repl_warm = _round_trips(flat), _round_trips(repl)
        # Many short calls, the two clients paired and swapping order
        # each pair, so a slow spell of the box hits both sides alike;
        # the overhead is the median of the per-pair ratios.
        step = STEADY_STATE_SLICE
        slices = [requests[i : i + step] for i in range(0, len(requests), step)]
        ratios, t_repl = [], 0.0
        gc.collect()
        gc.disable()
        try:
            for n, chunk in enumerate(slices * STEADY_STATE_PASSES):
                seconds = {}
                for store in (flat, repl) if n % 2 == 0 else (repl, flat):
                    started = time.perf_counter()
                    store.probe_many(chunk)
                    seconds[store] = time.perf_counter() - started
                ratios.append(seconds[repl] / seconds[flat])
                t_repl += seconds[repl]
        finally:
            gc.enable()
        flat_trips = (_round_trips(flat) - flat_warm) // STEADY_STATE_PASSES
        repl_trips = (_round_trips(repl) - repl_warm) // STEADY_STATE_PASSES
        flat.close()
        repl.close()
        assert repl_trips == flat_trips, "replication added probe round trips"
        overhead = statistics.median(ratios) - 1
        table.add(
            f"replicated x{REPLICAS} steady state",
            len(requests),
            repl_trips,
            round(t_repl / STEADY_STATE_PASSES, 3),
            round(len(requests) * STEADY_STATE_PASSES / t_repl),
        )
        table.note(f"replicated steady state: {overhead:+.1%} wall-clock vs flat")
        if not QUICK:  # quick workloads are too small to time a 5% bound
            assert overhead <= MAX_REPLICATION_OVERHEAD, (
                f"replicated steady state cost {overhead:+.1%} over unreplicated"
            )

        circuit_threshold = 3
        store = RemoteMasterStore(
            rcluster.urls,
            retries=1,
            backoff=0.01,
            circuit_threshold=circuit_threshold,
            circuit_reset=60.0,
        )
        assert store.probe_many(requests) == expected  # warm, all healthy
        warm_trips = _round_trips(store)
        for shard in range(SHARDS):
            rcluster.stop(shard, 0)  # one replica of every shard dies

        def probe_through_failure():
            return [store.probe_many(requests) for _ in range(2)]

        t_failover, sweeps = time_call(probe_through_failure, repeat=1)
        assert all(sweep == expected for sweep in sweeps), "failover changed answers"
        per_shard = store.stats()["per_shard"]
        failovers = sum(s["failovers"] for s in per_shard)
        dead_errors = sum(s["replicas"][0]["errors"] for s in per_shard)
        trips = _round_trips(store) - warm_trips
        store.close()
        assert failovers >= 1, "the killed replicas were never routed around"
        # <= one retry-storm per failed request, <= circuit_threshold
        # failed requests per shard before the circuit parks the replica
        assert dead_errors <= SHARDS * circuit_threshold, (
            f"dead replicas absorbed {dead_errors} exhausted requests — "
            f"the circuit never parked them"
        )
        table.add(
            f"replicated x{REPLICAS}, replica killed",
            2 * len(requests),
            trips,
            round(t_failover, 3),
            round(2 * len(requests) / t_failover),
        )
        table.note(
            f"replica killed: {failovers} failovers, {dead_errors} dead-end "
            f"trips on the killed replicas"
        )
    finally:
        rcluster.close()


def test_remote_batch_pipeline_rule_only(table, world):
    """The batch pipeline from a trusted ``zip`` with no oracle: each
    shard prefetches its groups' first-round probes, so the clean
    crosses the network once per (window, shard, chunk) instead of once
    per cache miss."""
    master, ruleset, _, batch_wl, cluster = world

    def clean_once():
        engine = CerFix(ruleset, master, store="remote", store_urls=list(cluster.urls))
        result = engine.clean_relation(batch_wl.dirty, validated=("zip",))
        trips = _round_trips(engine.master.store)  # the handshake is the only non-probe trip
        engine.master.store.close()
        return result, trips

    t_batch, (result, trips) = time_call(clean_once, repeat=1)
    probes = result.report.cache.misses
    # Each plan shard prefetches on its own, so a clean cannot go below
    # one round trip per (plan shard, store shard): quick mode's 100
    # rows make too few probes to reach the per-32 bound above that floor.
    floor = len(result.report.shards) * SHARDS
    bound = floor if QUICK else -(-probes // MIN_PIPELINE_PROBES_PER_TRIP)
    assert trips <= bound, f"rule-only pipeline made {trips} round trips for {probes} probes"
    table.add(
        "batch pipeline rule-only (serial)",
        probes,
        trips,
        round(t_batch, 3),
        round(probes / t_batch),
    )
    table.note(
        f"rule-only pipeline: {BATCH_ROWS} rows at "
        f"{BATCH_ROWS / t_batch:.0f} tuples/s; its probes are cache misses"
    )
