"""The cluster monitoring plane: Prometheus exposition, scraper, CLI.

Three layers under test:

* :mod:`repro.obs.promfmt` — conformance to the Prometheus text format
  0.0.4 (a small strict parser lives in this file): name sanitization,
  ``# TYPE`` discipline, counter monotonicity of cumulative buckets.
* :mod:`repro.obs.monitor` — :class:`ClusterMonitor` merge semantics
  against a live replicated cluster, including one replica dying
  mid-scrape; the health rollup must name the dead replica and its
  opened circuit.
* ``cerfix health`` / ``cerfix top`` — exit codes and rendered output.

The cluster fixtures are in-process by default (tier-1 speed); set
``CERFIX_MONITOR_PROCESSES=1`` (the CI obs leg does) to run the
spawned-subprocess variant too.
"""

from __future__ import annotations

import json
import os
import re
import urllib.request

import pytest

from repro.errors import MasterDataError
from repro.explorer import cli
from repro.obs import promfmt
from repro.obs.metrics import BUCKET_BOUNDS_MS, MetricsRegistry
from repro.obs.monitor import (
    ClusterMonitor,
    describe_rollup,
    install_process_gauges,
    render_top,
)
from repro.master.shardserver import ShardCluster
from repro.scenarios import uk_customers as uk

SHARDS = 2
REPLICAS = 2


@pytest.fixture(scope="module")
def world():
    master = uk.generate_master(30, seed=7)
    ruleset = uk.paper_ruleset()
    return master, ruleset


@pytest.fixture()
def cluster(world):
    master, ruleset = world
    cluster = ShardCluster.in_process(ruleset, master, SHARDS, replicas=REPLICAS)
    yield cluster
    cluster.close()


def flat_urls(cluster) -> str:
    return ";".join(",".join(group) for group in cluster.urls)


# ---------------------------------------------------------------------------
# A small, strict text-format parser (the conformance oracle)
# ---------------------------------------------------------------------------

_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_SAMPLE = re.compile(
    rf"^(?P<name>{_NAME})(?P<labels>\{{[^{{}}]*\}})? (?P<value>\S+)$"
)
_TYPE = re.compile(rf"^# TYPE (?P<name>{_NAME}) (?P<kind>counter|gauge|histogram)$")
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_exposition(text: str):
    """Parse (strictly) into {family: {"kind", "samples": [(name, labels, value)]}}.

    Enforces what a real Prometheus parser enforces: every sample line
    matches the grammar, every sample is preceded by its family's single
    ``# TYPE`` line, and no family is declared twice.
    """
    assert text.endswith("\n"), "exposition must end with a newline"
    families: dict[str, dict] = {}
    current: str | None = None
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            m = _TYPE.match(line)
            assert m, f"malformed comment line: {line!r}"
            name = m.group("name")
            assert name not in families, f"family {name} declared twice"
            families[name] = {"kind": m.group("kind"), "samples": []}
            current = name
            continue
        m = _SAMPLE.match(line)
        assert m, f"malformed sample line: {line!r}"
        name = m.group("name")
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in families:
                base = name[: -len(suffix)]
                break
        assert current == base, f"sample {name} outside its family group ({current})"
        labels = dict(_LABEL.findall(m.group("labels") or ""))
        value = float(m.group("value").replace("+Inf", "inf"))
        families[base]["samples"].append((name, labels, value))
    return families


# ---------------------------------------------------------------------------
# Exposition conformance
# ---------------------------------------------------------------------------


class TestPromfmt:
    def test_name_sanitization(self):
        assert promfmt.sanitize_name("cerfix.remote.failovers") == "cerfix_remote_failovers"
        assert promfmt.sanitize_name("9lives") == "_9lives"
        assert promfmt.sanitize_name("a b/c-d") == "a_b_c_d"
        assert promfmt.sanitize_name("") == "_"
        pattern = re.compile(rf"^{_NAME}$")
        for ugly in ("cerfix.proc.rss_bytes", "1", "-", "x:y", "ü"):
            assert pattern.match(promfmt.sanitize_name(ugly))

    def test_label_escaping(self):
        assert promfmt.escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'

    def test_counter_total_suffix_and_types(self):
        reg = MetricsRegistry()
        reg.inc("cerfix.shard.probes", 5)
        reg.set_gauge("cerfix.proc.threads", 3)
        families = parse_exposition(promfmt.render(reg.dump()))
        assert families["cerfix_shard_probes_total"]["kind"] == "counter"
        assert families["cerfix_shard_probes_total"]["samples"][0][2] == 5.0
        assert families["cerfix_proc_threads"]["kind"] == "gauge"

    def test_histogram_buckets_cumulative(self):
        reg = MetricsRegistry()
        for seconds in (0.0001, 0.003, 0.003, 0.4, 100.0):
            reg.observe("cerfix.shard.request_seconds", seconds)
        families = parse_exposition(promfmt.render(reg.dump()))
        hist = families["cerfix_shard_request_seconds"]
        assert hist["kind"] == "histogram"
        buckets = [s for s in hist["samples"] if s[0].endswith("_bucket")]
        assert len(buckets) == len(BUCKET_BOUNDS_MS) + 1
        values = [v for _, _, v in buckets]
        assert values == sorted(values), "bucket counts must be cumulative"
        les = [labels["le"] for _, labels, _ in buckets]
        assert les[-1] == "+Inf"
        assert [float(le.replace("+Inf", "inf")) for le in les] == sorted(
            float(le.replace("+Inf", "inf")) for le in les
        )
        count = next(v for n, _, v in hist["samples"] if n.endswith("_count"))
        total = next(v for n, _, v in hist["samples"] if n.endswith("_sum"))
        assert values[-1] == count == 5.0
        # one 100s observation dominates the sum; sum is in seconds
        assert total == pytest.approx(100.41, rel=0.01)

    def test_render_labeled_one_type_line_per_family(self):
        reg = MetricsRegistry()
        reg.inc("cerfix.shard.requests", 2)
        reg.observe("cerfix.shard.request_seconds", 0.01)
        dump = reg.dump()
        text = promfmt.render_labeled(
            [({"shard": "0", "replica": "0"}, dump), ({"shard": "0", "replica": "1"}, dump)]
        )
        families = parse_exposition(text)  # parser enforces grouping itself
        samples = families["cerfix_shard_requests_total"]["samples"]
        assert {s[1]["replica"] for s in samples} == {"0", "1"}
        assert text.count("# TYPE cerfix_shard_request_seconds histogram") == 1

    def test_empty_dump_renders_empty(self):
        assert promfmt.render(MetricsRegistry().dump()) == ""


# ---------------------------------------------------------------------------
# Process self-gauges
# ---------------------------------------------------------------------------


class TestProcessGauges:
    def test_gauges_present_and_sane(self):
        reg = MetricsRegistry()
        install_process_gauges(reg)
        gauges = reg.dump()["gauges"]
        assert gauges["cerfix.proc.rss_bytes"] > 1024 * 1024
        assert gauges["cerfix.proc.open_fds"] >= 1
        assert gauges["cerfix.proc.threads"] >= 1
        assert gauges["cerfix.proc.uptime_seconds"] >= 0
        # lazily evaluated: nothing recorded on the registry until dump
        assert reg.gauge_value("cerfix.proc.rss_bytes") is None

    def test_reinstall_is_idempotent(self):
        reg = MetricsRegistry()
        install_process_gauges(reg)
        install_process_gauges(reg)
        assert sorted(
            name for name in reg.dump()["gauges"] if name.startswith("cerfix.proc.")
        ) == [
            "cerfix.proc.open_fds",
            "cerfix.proc.rss_bytes",
            "cerfix.proc.threads",
            "cerfix.proc.uptime_seconds",
        ]


# ---------------------------------------------------------------------------
# Live scrape surfaces
# ---------------------------------------------------------------------------


class TestScrapeEndpoints:
    def test_shard_server_prometheus_endpoint(self, cluster):
        url = cluster.urls[0][0]
        with urllib.request.urlopen(f"{url}/metrics?format=prometheus") as resp:
            assert resp.headers["Content-Type"].startswith("text/plain; version=0.0.4")
            families = parse_exposition(resp.read().decode("utf-8"))
        assert families["cerfix_shard_requests_total"]["kind"] == "counter"
        assert "cerfix_proc_rss_bytes" in families
        assert "cerfix_shard_request_seconds" in families

    def test_shard_server_json_metrics_include_rates(self, cluster):
        url = cluster.urls[0][0]
        for _ in range(2):  # two scrapes → two snapshots → a real window
            with urllib.request.urlopen(f"{url}/metrics") as resp:
                data = json.loads(resp.read())
        assert data["schema"] == "cerfix.metrics.v1"
        assert data["counters"]["cerfix.shard.requests"] >= 2
        assert "counters_per_s" in data["rates"]

    def test_counter_monotonic_across_scrapes(self, cluster):
        url = cluster.urls[0][0]

        def requests_total():
            with urllib.request.urlopen(f"{url}/metrics?format=prometheus") as resp:
                families = parse_exposition(resp.read().decode("utf-8"))
            return families["cerfix_shard_requests_total"]["samples"][0][2]

        first = requests_total()
        urllib.request.urlopen(f"{url}/healthz").read()
        second = requests_total()
        assert second > first


# ---------------------------------------------------------------------------
# ClusterMonitor merge + rollup
# ---------------------------------------------------------------------------


class TestClusterMonitor:
    def test_healthy_rollup(self, cluster):
        monitor = ClusterMonitor(cluster.urls, fail_threshold=1)
        snap = monitor.scrape_once()
        rollup = snap["rollup"]
        assert rollup["status"] == "ok"
        assert rollup["replicas_up"] == rollup["replicas_total"] == SHARDS * REPLICAS
        assert rollup["open_circuits"] == []
        assert rollup["digest_agreement"] is True
        # every shard's live digests agree and are non-empty
        for shard, digests in rollup["digests"].items():
            assert len({d for d in digests if d}) == 1

    def test_one_replica_down_mid_scrape(self, cluster):
        monitor = ClusterMonitor(cluster.urls, fail_threshold=1)
        assert monitor.scrape_once()["rollup"]["status"] == "ok"
        dead_url = cluster.urls[1][0]
        cluster.stop(1, 0)
        snap = monitor.scrape_once()
        rollup = snap["rollup"]
        assert rollup["status"] == "degraded"
        assert rollup["replicas_up"] == SHARDS * REPLICAS - 1
        assert [d["url"] for d in rollup["down"]] == [dead_url]
        assert rollup["down"][0]["shard"] == 1
        circuits = [c for c in rollup["open_circuits"] if c["source"] == "monitor"]
        assert [c["url"] for c in circuits] == [dead_url]
        # the healthy members still merged: their dumps are present
        up = [m for m in snap["members"] if m["up"]]
        assert len(up) == 3
        assert all(m["metrics"]["schema"] == "cerfix.metrics.v1" for m in up)
        assert rollup["shards_down"] == []  # replica 1 still covers shard 1

    def test_whole_shard_down_is_down(self, cluster):
        monitor = ClusterMonitor(cluster.urls, fail_threshold=1)
        cluster.stop(1, 0)
        cluster.stop(1, 1)
        rollup = monitor.scrape_once()["rollup"]
        assert rollup["status"] == "down"
        assert rollup["shards_down"] == [1]

    def test_fail_threshold_gates_monitor_circuit(self, cluster):
        monitor = ClusterMonitor(cluster.urls, fail_threshold=2)
        cluster.stop(0, 0)
        first = monitor.scrape_once()["rollup"]
        assert first["status"] == "degraded"
        assert all(c["source"] != "monitor" for c in first["open_circuits"])
        second = monitor.scrape_once()["rollup"]
        assert any(c["source"] == "monitor" for c in second["open_circuits"])

    def test_rates_from_consecutive_scrapes(self, cluster):
        monitor = ClusterMonitor(cluster.urls, fail_threshold=1)
        monitor.scrape_once()
        assert monitor.rates()["window_s"] == 0.0  # one snapshot: no window yet
        # generate some traffic so the deltas are non-zero
        for group in cluster.urls:
            for url in group:
                urllib.request.urlopen(f"{url}/healthz").read()
        monitor.scrape_once()
        monitor._history[0]["ts"] -= 1.0  # widen the window deterministically
        rates = monitor.rates()
        assert rates["window_s"] > 0
        assert rates["requests_per_s"] > 0
        assert set(rates["per_shard"]) == {"0", "1"}
        for shard_rates in rates["per_shard"].values():
            assert shard_rates["p50_ms"] <= shard_rates["p95_ms"] <= shard_rates["p99_ms"]

    def test_fleet_counts_each_member_once(self, cluster):
        """Shard servers sharing a process each count their own requests:
        the fleet delta between two scrapes is what the members served,
        and a shard's latency count covers only that shard's members."""
        n = 10
        monitor = ClusterMonitor(cluster.urls, fail_threshold=1)
        first = monitor.scrape_once()
        for _ in range(n):
            urllib.request.urlopen(f"{cluster.urls[0][0]}/healthz").read()
        second = monitor.scrape_once()
        members = SHARDS * REPLICAS
        # A member's dump is taken inside its /metrics request, which the
        # scrape sends after /healthz; between the two dumps each member
        # served one scrape's /healthz + /metrics, and replica 0 of
        # shard 0 also the n test requests.
        served = n + 2 * members
        fleet = [ClusterMonitor._fleet_counters(s) for s in (first, second)]
        assert fleet[1]["cerfix.shard.requests"] - fleet[0]["cerfix.shard.requests"] == served
        # A request is timed after its response is built: the window
        # holds the first scrape's /metrics instead of the second's.
        hists = [
            ClusterMonitor._shard_hist(s, "cerfix.shard.request_seconds")
            for s in (first, second)
        ]
        latency_counts = {shard: hists[1][shard][1] - hists[0][shard][1] for shard in (0, 1)}
        assert latency_counts == {0: n + 2 * REPLICAS, 1: 2 * REPLICAS}

    def test_bad_topology_rejected(self):
        with pytest.raises(MasterDataError):
            ClusterMonitor("http://127.0.0.1:1")

    def test_describe_and_top_render(self, cluster):
        monitor = ClusterMonitor(cluster.urls, fail_threshold=1)
        cluster.stop(0, 0)
        snap = monitor.scrape_once()
        lines = describe_rollup(snap["rollup"])
        text = "\n".join(lines)
        dead_url = cluster.urls[0][0]
        assert dead_url in text and "DOWN" in text and "CIRCUIT open" in text
        frame = render_top(snap, monitor.rates())
        assert "status: DEGRADED" in frame
        assert dead_url[:28] in frame


# ---------------------------------------------------------------------------
# Operator CLI
# ---------------------------------------------------------------------------


class TestHealthCli:
    def test_health_ok_exit_zero(self, cluster, capsys):
        assert cli.main(["health", "--shard-urls", flat_urls(cluster)]) == 0
        out = capsys.readouterr().out
        assert "cluster status: ok" in out

    def test_health_names_dead_replica_and_circuit(self, cluster, capsys):
        dead_url = cluster.urls[0][1]
        cluster.stop(0, 1)
        assert cli.main(["health", "--shard-urls", flat_urls(cluster)]) == 1
        out = capsys.readouterr().out
        assert dead_url in out
        assert "DOWN" in out
        assert "CIRCUIT open" in out

    def test_health_json_snapshot(self, cluster, capsys):
        assert cli.main(["health", "--shard-urls", flat_urls(cluster), "--json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["schema"] == "cerfix.cluster.v1"
        assert snap["rollup"]["status"] == "ok"

    def test_health_requires_urls(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["health"])

    def test_top_single_frame(self, cluster, capsys):
        rc = cli.main(
            ["top", "--shard-urls", flat_urls(cluster), "--iterations", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "cerfix top" in out
        assert f"{SHARDS} shard(s)" in out
        assert "\x1b[2J" not in out  # final frame carries no screen control


# ---------------------------------------------------------------------------
# Spawned-cluster variant (the CI obs leg's scrape-path smoke test)
# ---------------------------------------------------------------------------


@pytest.mark.skipif(
    os.environ.get("CERFIX_MONITOR_PROCESSES") != "1",
    reason="spawned-cluster scrape smoke runs when CERFIX_MONITOR_PROCESSES=1",
)
def test_spawned_cluster_scrape_and_health(tmp_path, capsys):
    from repro.master.conformance import generate_case, write_case_instance

    case = generate_case(13, master_size=24, n=6)
    instance = write_case_instance(case, tmp_path)
    cluster = ShardCluster.spawn(instance, SHARDS, replicas=REPLICAS)
    try:
        with urllib.request.urlopen(
            f"{cluster.urls[0][0]}/metrics?format=prometheus"
        ) as resp:
            families = parse_exposition(resp.read().decode("utf-8"))
        assert "cerfix_proc_rss_bytes" in families
        assert cli.main(["health", "--shard-urls", flat_urls(cluster)]) == 0
        capsys.readouterr()
        cluster.stop(1, 0)
        assert cli.main(["health", "--shard-urls", flat_urls(cluster)]) == 1
        out = capsys.readouterr().out
        assert cluster.urls[1][0] in out and "CIRCUIT open" in out
    finally:
        cluster.close()
