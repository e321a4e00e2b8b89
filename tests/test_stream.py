"""Tests for the streaming dataflow engine.

The contract under test is the differential oracle's: a streaming
parallel campaign must be byte-identical to a serial one — records per
stage and the rendered ``metrics.json`` — including under injected
faults with retries enabled.  The scheduling tests cover chunk
partitioning, overlap, backpressure accounting, graceful degradation
and the cache-taint guard.
"""

import pytest

from repro.crypto.rand import DeterministicRandom
from repro.experiments.campaign import (
    _STAGE_ORDER,
    Campaign,
    CampaignConfig,
)
from repro.internet.providers import Scale
from repro.observability.report import render_metrics_json
from repro.parallel import stream as stream_module
from repro.scanners.permutation import CyclicGroupPermutation
from repro.scanners.retry import RetryPolicy


STREAM_SCALE = Scale(addresses=20_000, ases=200, domains=20_000)


# -- contiguous range partition (the streaming sweep primitive) ---------------


@pytest.mark.parametrize("size", [10, 97, 1000, 4096])
@pytest.mark.parametrize("chunks", [1, 2, 3, 7])
def test_ranges_partition_exactly(size, chunks):
    """Concatenated range blocks reproduce the serial walk exactly."""
    rngs = [DeterministicRandom("s") for _ in range(chunks + 2)]
    serial = list(CyclicGroupPermutation(size, rngs[0]))
    cycle = CyclicGroupPermutation(size, rngs[-1]).cycle_length
    merged = []
    for chunk in range(chunks):
        permutation = CyclicGroupPermutation(size, rngs[chunk + 1])
        lo = chunk * cycle // chunks
        hi = (chunk + 1) * cycle // chunks
        block = list(permutation.iter_range(lo, hi))
        # Positions are absolute and strictly increasing: each block is
        # a contiguous segment of the serial order, so completed blocks
        # form a prefix — the property streaming is built on.
        assert [p for p, _ in block] == sorted(p for p, _ in block)
        merged.extend(index for _, index in block)
    assert merged == serial


def test_range_bounds_validated():
    permutation = CyclicGroupPermutation(100, DeterministicRandom("x"))
    with pytest.raises(ValueError):
        list(permutation.iter_range(5, permutation.cycle_length + 1))
    with pytest.raises(ValueError):
        list(permutation.iter_range(-1, 5))


def test_range_sweep_matches_shard_sweep(tiny_campaign):
    """Chunked contiguous sweeps equal the interleaved-shard sweep."""
    scanner = tiny_campaign._zmap_scanner(4)
    space = tiny_campaign.world.ipv4_space
    serial = scanner.scan_ipv4_space_shard(space, 0, 1)
    cycle = scanner.sweep_cycle_length(space)
    chunked = []
    for k in range(5):
        lo, hi = k * cycle // 5, (k + 1) * cycle // 5
        chunked.extend(scanner.scan_ipv4_range(space, lo, hi))
    assert chunked == serial


# -- streaming campaign == serial campaign ------------------------------------


@pytest.fixture(scope="module")
def chaos_stream_config():
    # Faults + retries: the hardest determinism case (fault epochs,
    # retry rng, backoff clock all have to replay the serial schedule).
    return CampaignConfig(
        week=18,
        scale=STREAM_SCALE,
        seed=29,
        fault_profile="flaky-edge",
        retry=RetryPolicy(attempts=2),
    )


@pytest.fixture(scope="module")
def stream_serial(chaos_stream_config):
    campaign = Campaign(chaos_stream_config)
    campaign.run_all_stages()
    return campaign


@pytest.fixture(scope="module")
def stream_parallel(chaos_stream_config):
    campaign = Campaign(chaos_stream_config, workers=2)
    campaign.run_all_stages()
    yield campaign
    campaign.close()


def test_streaming_byte_identical_under_faults(stream_serial, stream_parallel):
    for stage in _STAGE_ORDER:
        assert getattr(stream_parallel, stage) == getattr(stream_serial, stage), stage
    assert render_metrics_json(stream_parallel) == render_metrics_json(stream_serial)


def test_streaming_populates_volatile_telemetry(stream_parallel):
    """Scheduling telemetry exists, is volatile, and shows real overlap."""
    snapshot = stream_parallel.metrics.snapshot(include_volatile=True)
    counters, gauges = snapshot["counters"], snapshot["gauges"]
    assert counters["stream.tasks"] > 0
    assert counters["stream.stages"] > 0
    assert "stream.backpressure_stalls" in counters
    assert gauges["stream.queue_depth_max"] >= 0
    assert gauges["stream.inflight_max"] >= 2  # both workers were busy
    assert gauges["stream.wall_seconds"] > 0
    # Stage windows overlapped: their sum exceeds the pipeline wall.
    assert gauges["stream.overlap_ratio"] > 1.0
    # None of it may reach the deterministic metrics.json.
    volatile = set(snapshot["volatile"])
    for name in list(counters) + list(gauges):
        if name.startswith("stream."):
            assert name in volatile, name


def test_streaming_stage_health_success(stream_parallel):
    for stage in _STAGE_ORDER:
        assert stream_parallel.stage_health[stage].status == "success", stage


# -- backpressure --------------------------------------------------------------


def test_backpressure_stalls_sources(monkeypatch):
    """A tiny queue limit forces sweep dispatch to stall measurably."""
    monkeypatch.setattr(stream_module, "_QUEUE_LIMIT", 1)
    campaign = Campaign(CampaignConfig(week=18, scale=STREAM_SCALE, seed=7), workers=2)
    try:
        campaign.run_all_stages()
        snapshot = campaign.metrics.snapshot(include_volatile=True)
        assert snapshot["counters"]["stream.backpressure_stalls"] > 0
        assert snapshot["gauges"]["stream.queue_limit"] == 1
        # Backpressure slows the pipeline down; it never changes output.
        reference = Campaign(CampaignConfig(week=18, scale=STREAM_SCALE, seed=7))
        reference.run_all_stages()
        assert render_metrics_json(campaign) == render_metrics_json(reference)
    finally:
        campaign.close()


# -- graceful degradation ------------------------------------------------------


def test_streaming_chunk_failure_degrades_stage(monkeypatch):
    """One failing chunk degrades its stage; downstream keeps running."""
    original = Campaign.compute_stage_chunk

    def boom_on_first_chunk(self, name, lo, items):
        if name == "goscanner_nosni_v4" and lo == 0:
            raise RuntimeError("chunk down")
        return original(self, name, lo, items)

    # Patch the class before the pool forks so workers inherit the fault.
    monkeypatch.setattr(Campaign, "compute_stage_chunk", boom_on_first_chunk)
    campaign = Campaign(CampaignConfig(week=18, scale=STREAM_SCALE, seed=31), workers=2)
    try:
        counts = campaign.run_all_stages()
    finally:
        campaign.close()
    health = campaign.stage_health["goscanner_nosni_v4"]
    assert health.status == "degraded"
    assert health.shards_failed == 1
    assert "chunk down" in health.error
    assert campaign.degraded_stages() == ["goscanner_nosni_v4"]
    assert campaign.failed_stages() == []
    # Surviving records flowed on: the campaign still finished QUIC scans.
    assert 0 < counts["goscanner_nosni_v4"] < counts["syn_v4"]
    assert counts["qscan_sni_v4"] > 0
    assert campaign.stage_health["qscan_sni_v4"].status == "success"


def test_degraded_streaming_stage_is_not_cached(monkeypatch, tmp_path):
    def boom(self, name, lo, items):
        raise RuntimeError("all chunks down")

    monkeypatch.setattr(Campaign, "compute_stage_chunk", boom)
    campaign = Campaign(
        CampaignConfig(week=18, scale=STREAM_SCALE, seed=31),
        workers=2,
        cache_dir=tmp_path,
    )
    try:
        campaign.run_all_stages()
    finally:
        campaign.close()
    directory = campaign.stage_cache.directory
    # Chunked (stateful) stages all failed: never persisted.
    assert not (directory / "goscanner_nosni_v4.pkl").exists()
    assert not (directory / "qscan_sni_v4.pkl").exists()
    # The sweeps succeeded and cached normally.
    assert (directory / "zmap_v4.pkl").exists()
    assert (directory / "syn_v4.pkl").exists()


def test_stages_streamed_over_a_degraded_input_are_not_cached(monkeypatch, tmp_path):
    """One failed sweep chunk taints every stage computed from it."""
    original = Campaign.compute_stage_range

    def boom_on_first_syn_chunk(self, name, lo, hi):
        if name == "syn_v4" and lo == 0:
            raise RuntimeError("chunk down")
        return original(self, name, lo, hi)

    monkeypatch.setattr(Campaign, "compute_stage_range", boom_on_first_syn_chunk)
    campaign = Campaign(
        CampaignConfig(week=18, scale=STREAM_SCALE, seed=31),
        workers=2,
        cache_dir=tmp_path,
    )
    try:
        campaign.run_all_stages()
    finally:
        campaign.close()
    assert campaign.stage_health["syn_v4"].status == "degraded"
    directory = campaign.stage_cache.directory
    # Computed successfully, but over a short input: a warm rerun must
    # recompute them rather than serve short records as authoritative.
    for stage in ("syn_v4", "goscanner_nosni_v4", "goscanner_sni_v4", "qscan_sni_v4"):
        assert not (directory / f"{stage}.pkl").exists(), stage
    # Stages independent of the failure still cache.
    for stage in ("zmap_v4", "qscan_nosni_v4", "syn_v6", "goscanner_sni_v6"):
        assert (directory / f"{stage}.pkl").exists(), stage
