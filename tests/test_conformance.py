"""The store-conformance kit, run over all three backends.

This is the registration point for every backend: the ``single``,
``sqlite`` and ``remote`` backends all run through
:func:`repro.master.conformance.run_conformance` — monitor path, batch
path, async-service path and the interleaving fuzz — and must stay
bit-identical to the ``single`` reference.

The remote backend runs against an in-process thread cluster by
default (fast); the CI ``remote-store`` leg sets
``CERFIX_REMOTE_PROCESSES=1`` to boot real ``cerfix shard-server``
subprocesses instead, and ``CERFIX_REMOTE_REPLICAS=2`` to boot that
many replicas per shard (the whole kit then runs through the
replicated failover client). Every cluster is torn down on test exit
so no server process leaks into later CI steps.
"""

from __future__ import annotations

import os

import pytest

from repro.master.conformance import (
    case_cluster,
    generate_case,
    run_conformance,
    run_failover_conformance,
    store_factories,
)

#: CI's remote-store leg flips these to exercise real subprocess
#: servers and replicated shard groups.
REMOTE_PROCESSES = os.environ.get("CERFIX_REMOTE_PROCESSES", "") == "1"
REMOTE_REPLICAS = max(1, int(os.environ.get("CERFIX_REMOTE_REPLICAS", "1") or "1"))
SHARDS = 3
ALL_BACKENDS = {"single", "sqlite", "remote"}


@pytest.mark.parametrize(
    "seed,scenario,n,paths",
    [
        (1101, "uk", 24, ("monitor", "batch", "service")),
        (1202, "hospital", 10, ("monitor", "batch")),
    ],
)
def test_all_backends_conform(seed, scenario, n, paths, tmp_path):
    """Monitor, batch and service paths: identical fixes, regions and
    audit trails on every backend, remote included."""
    case = generate_case(seed, scenario=scenario, n=n)
    with case_cluster(
        case, tmp_path, shards=SHARDS, replicas=REMOTE_REPLICAS, processes=REMOTE_PROCESSES
    ) as cluster:
        factories = store_factories(case, tmp_path, remote_urls=cluster.urls)
        results = run_conformance(case, factories, paths=paths)
    for path in paths:
        assert set(results[path]) >= ALL_BACKENDS, path
    # sanity: the case exercised the master data, not just normalisation
    assert any(
        e["source"] == "rule" for e in results["monitor"]["single"].audit_events
    )


def test_all_backends_interleaving_fuzz(tmp_path):
    """Seeded random interleavings of non-oracle sessions: per-tuple
    outcomes identical across every backend *and* every order."""
    case = generate_case(1303, scenario="uk", n=16)
    with case_cluster(
        case, tmp_path, shards=SHARDS, replicas=REMOTE_REPLICAS, processes=REMOTE_PROCESSES
    ) as cluster:
        factories = store_factories(case, tmp_path, remote_urls=cluster.urls)
        results = run_conformance(case, factories, paths=("interleaved",))
    outcomes = results["interleaved"]
    assert {name.split("/")[0] for name in outcomes} == ALL_BACKENDS
    reference = next(iter(outcomes.values()))
    assert 0 < reference.report["completed"] <= reference.report["tuples"]


def test_remote_rolling_restart_mid_run_conformance(tmp_path):
    """The CI matrix point's acceptance scenario: a replicated cluster
    rolled member by member *while* the entry service serves 8
    concurrent sessions against it — bit-identical to the single
    backend's serial monitor run, zero wrong answers."""
    _rolling_restart_conformance(tmp_path, path="service")


def test_remote_rolling_restart_mid_run_conformance_serial(tmp_path):
    """The same under a serial batch clean, which must also have
    retried or failed over."""
    _rolling_restart_conformance(tmp_path, path="batch")


def _rolling_restart_conformance(tmp_path, *, path: str) -> None:
    case = generate_case(1707, scenario="uk", n=20)
    replicas = max(2, REMOTE_REPLICAS)
    with case_cluster(
        case, tmp_path, shards=SHARDS, replicas=replicas, processes=REMOTE_PROCESSES
    ) as cluster:
        run_failover_conformance(
            case,
            cluster,
            disrupt=lambda c: c.rolling_restart(pause=0.02),
            path=path,
        )


def test_kit_rejects_unknown_paths_and_reference(tmp_path):
    case = generate_case(1404, scenario="uk", n=4)
    factories = store_factories(case, tmp_path)
    with pytest.raises(ValueError, match="unknown conformance paths"):
        run_conformance(case, factories, paths=("monitor", "websocket"))
    with pytest.raises(ValueError, match="not registered"):
        run_conformance(case, factories, reference="remote")


def test_kit_catches_a_divergent_backend(tmp_path):
    """The kit must *fail* when a backend lies — a conformance suite
    that cannot catch a wrong value proves nothing."""
    from repro.master.store import MasterMatch, SingleRelationStore

    class LyingStore(SingleRelationStore):
        def probe(self, rule, values, *, use_index=True):
            match = super().probe(rule, values, use_index=use_index)
            if match.values:  # corrupt the correction value
                return MasterMatch(match.positions, ("wrong",) + match.values[1:])
            return match

    case = generate_case(1505, scenario="uk", n=8)
    factories = store_factories(case, tmp_path)
    factories["lying"] = lambda: LyingStore(
        type(case.master)(case.master.schema, case.master.tuples())
    )
    with pytest.raises(AssertionError):
        run_conformance(case, factories, paths=("monitor",))
