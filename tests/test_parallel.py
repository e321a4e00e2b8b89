"""Tests for the parallel scan paths and the stage cache.

Covers the three guarantees the parallel paths are built on:

1. sharding the cyclic-group permutation partitions the address space
   exactly (no duplicates, no gaps, any shard count), and contiguous
   blocks partition target lists without splitting one host's run,
2. a parallel campaign — streamed whole, walked stage by stage, or
   attached to a fleet — produces record-for-record identical output
   to a serial one, on one pool per campaign,
3. the persistent stage cache round-trips records, is keyed on the
   full configuration (including ``scan_timeout``), and discards
   version-skewed or corrupt entries instead of serving them.
"""

import dataclasses
import os
import pickle

import pytest

from repro.crypto.rand import DeterministicRandom
from repro.experiments.campaign import (
    _STAGE_ORDER,
    Campaign,
    CampaignConfig,
    aligned_block_bounds,
    shard_block_bounds,
)
from repro.experiments import stage_cache
from repro.experiments.stage_cache import CampaignStageCache
from repro.internet.providers import Scale
from repro.observability.report import render_metrics_json
from repro.parallel import engine as engine_module
from repro.scanners.permutation import CyclicGroupPermutation

from tests.conftest import TINY_SCALE


# -- permutation sharding ------------------------------------------------------


@pytest.mark.parametrize("size", [10, 97, 1000, 4096])
@pytest.mark.parametrize("seed", ["a", "b"])
@pytest.mark.parametrize("shards", [1, 2, 3, 7])
def test_shards_partition_exactly(size, seed, shards):
    """The union of all shards is the full space: no dups, no gaps."""
    rngs = [DeterministicRandom(seed) for _ in range(shards + 1)]
    serial = list(CyclicGroupPermutation(size, rngs[0]))
    seen = {}
    for shard in range(shards):
        permutation = CyclicGroupPermutation(size, rngs[shard + 1])
        for position, index in permutation.iter_shard(shard, shards):
            assert position not in seen, "duplicate cycle position across shards"
            seen[position] = index
    assert sorted(seen.values()) == sorted(range(size))
    merged = [index for _, index in sorted(seen.items())]
    assert merged == serial, "merged shard order differs from serial order"


def test_shard_out_of_range():
    permutation = CyclicGroupPermutation(100, DeterministicRandom("x"))
    with pytest.raises(ValueError):
        list(permutation.iter_shard(3, 3))


def test_block_bounds_partition():
    for count in (0, 1, 10, 101):
        for of in (1, 2, 3, 8):
            cuts = [shard_block_bounds(count, shard, of) for shard in range(of)]
            assert cuts[0][0] == 0 and cuts[-1][1] == count
            for (_, hi), (lo, _) in zip(cuts, cuts[1:]):
                assert hi == lo


def test_aligned_block_bounds_never_split_runs():
    keys = ["a", "a", "a", "b", "c", "c", "d", "d", "d", "d"]
    for of in (2, 3, 4):
        covered = []
        for shard in range(of):
            lo, hi = aligned_block_bounds(keys, shard, of)
            if lo < hi:
                # A run of equal keys never crosses a cut.
                assert lo == 0 or keys[lo] != keys[lo - 1]
                assert hi == len(keys) or keys[hi] != keys[hi - 1]
            covered.extend(range(lo, hi))
        assert covered == list(range(len(keys)))


# -- parallel == serial -------------------------------------------------------


@pytest.fixture(scope="module")
def parallel_campaign(tiny_campaign):
    campaign = Campaign(tiny_campaign.config, workers=3)
    yield campaign
    campaign.close()


@pytest.mark.parametrize(
    "stage",
    [
        "zmap_v4",  # walk-range chunked IPv4 sweep
        "syn_v6",  # sliced target list
        "goscanner_sni_v4",  # address-aligned chunks + rng seek
        "qscan_sni_v4",  # aligned chunks + target sources
    ],
)
def test_parallel_output_identical_to_serial(tiny_campaign, parallel_campaign, stage):
    """A lazily accessed stage streams its closure, record for record."""
    serial = getattr(tiny_campaign, stage)
    parallel = getattr(parallel_campaign, stage)
    assert len(parallel) == len(serial)
    assert parallel == serial


# -- one chunk engine: serial, streamed, stage-by-stage, fleet ----------------


@pytest.fixture(scope="module")
def full_serial():
    campaign = Campaign(CampaignConfig(week=18, scale=TINY_SCALE, seed=7))
    campaign.run_all_stages()
    return campaign


@pytest.fixture(scope="module")
def full_parallel():
    campaign = Campaign(
        CampaignConfig(week=18, scale=TINY_SCALE, seed=7), workers=2
    )
    campaign.run_all_stages()
    yield campaign
    campaign.close()


def test_parallel_campaign_byte_identical_to_serial(full_serial, full_parallel):
    """Every stage's records and the whole metrics.json match a serial run."""
    for stage in _STAGE_ORDER:
        assert getattr(full_parallel, stage) == getattr(full_serial, stage), stage
    assert render_metrics_json(full_parallel) == render_metrics_json(full_serial)
    assert full_parallel.metrics.counter_value("stream.tasks") > 0


def test_lazy_stage_streams_only_its_dependency_closure(full_serial):
    campaign = Campaign(full_serial.config, world=full_serial.world, workers=2)
    try:
        assert campaign.qscan_nosni_v4 == full_serial.qscan_nosni_v4
        assert "zmap_v4" in campaign.__dict__
        for stage in ("syn_v4", "zmap_v6", "goscanner_sni_v4", "qscan_sni_v4"):
            assert stage not in campaign.__dict__, stage
        assert sorted(campaign.stage_health) == ["qscan_nosni_v4", "zmap_v4"]
    finally:
        campaign.close()


def test_big_stages_oversharded(full_parallel):
    """Source sweeps split into more chunks than there are workers."""
    health = full_parallel.stage_health["zmap_v4"]
    assert health.status == "success"
    assert health.shards > full_parallel._workers


@pytest.fixture
def counted_forks(monkeypatch):
    forks = []
    original = engine_module.fork_pool

    def fork_pool(*args, **kwargs):
        forks.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(engine_module, "fork_pool", fork_pool)
    return forks


def _walk_stages(campaign):
    """Touch every stage one at a time, as execute_week_scans does."""
    for stage in _STAGE_ORDER:
        getattr(campaign, stage)


def test_stage_walk_on_workers_matches_serial_on_one_pool(full_serial, counted_forks):
    campaign = Campaign(full_serial.config, workers=2)
    try:
        _walk_stages(campaign)
    finally:
        campaign.close()
    assert counted_forks == [2], "a stage-by-stage walk must fork exactly one pool"
    for stage in _STAGE_ORDER:
        assert getattr(campaign, stage) == getattr(full_serial, stage), stage
    assert render_metrics_json(campaign) == render_metrics_json(full_serial)


def test_stage_walk_on_fleet_matches_serial_on_one_pool(full_serial, counted_forks):
    from repro.parallel.fleet import FleetScheduler

    with FleetScheduler(jobs=2, campaign_workers=1) as fleet:
        campaign = fleet.cell_campaign(full_serial.config)
        _walk_stages(campaign)
        assert fleet.pool_respawns == 0
    assert len(counted_forks) == 1, "a fleet campaign must reuse the fleet's pool"
    for stage in _STAGE_ORDER:
        assert getattr(campaign, stage) == getattr(full_serial, stage), stage
    assert render_metrics_json(campaign) == render_metrics_json(full_serial)


def test_engine_close_is_graceful_and_idempotent(full_serial):
    campaign = Campaign(full_serial.config, world=full_serial.world, workers=2)
    pool = campaign._worker_pool()
    assert campaign._worker_pool() is pool, "the campaign keeps one pool"
    workers = list(pool._pool)
    assert workers and all(process.is_alive() for process in workers)
    campaign.close()
    assert all(not process.is_alive() for process in workers)
    campaign.close()  # second close is a no-op


def test_bad_repro_workers_value_warns(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_WORKERS", "three")
    assert engine_module.default_worker_count() == (os.cpu_count() or 1)
    err = capsys.readouterr().err
    assert "REPRO_WORKERS" in err and "three" in err


def test_fast_sweep_matches_slow_probe_path():
    """The specialised sweep is bit-identical to the generic probe loop.

    Two campaigns over the same configuration: one sweeps the IPv4
    space through the routed fast path, the other replays the generic
    paced/retry loop over the identical permutation walk.  Records and
    traffic-counter deltas must match exactly.
    """
    config = CampaignConfig(week=18, scale=TINY_SCALE, seed=7)
    fast_campaign = Campaign(config)
    slow_campaign = Campaign(config)
    fast_scanner = fast_campaign._zmap_scanner(4)
    slow_scanner = slow_campaign._zmap_scanner(4)
    assert fast_scanner.pps is None and not fast_scanner.retry.enabled

    space = fast_campaign.world.ipv4_space
    fast_before = dataclasses.astuple(fast_campaign.world.network.stats)
    fast_records = fast_scanner.scan_ipv4_space_shard(space, 0, 1)
    fast_after = dataclasses.astuple(fast_campaign.world.network.stats)

    slow_space = slow_campaign.world.ipv4_space
    rng = DeterministicRandom(slow_scanner.seed)
    permutation = CyclicGroupPermutation(slow_space.num_addresses, rng.child("perm"))
    targets = (
        (position, slow_space.address_at(index))
        for position, index in permutation.iter_shard(0, 1)
    )
    slow_before = dataclasses.astuple(slow_campaign.world.network.stats)
    slow_records = slow_scanner._probe_all(targets, rng)
    slow_after = dataclasses.astuple(slow_campaign.world.network.stats)

    assert fast_records == slow_records
    fast_delta = [a - b for a, b in zip(fast_after, fast_before)]
    slow_delta = [a - b for a, b in zip(slow_after, slow_before)]
    assert fast_delta == slow_delta


# -- stage cache --------------------------------------------------------------


def _config(**overrides):
    return CampaignConfig(week=18, scale=TINY_SCALE, seed=7, **overrides)


def test_cache_key_covers_every_field():
    names = [name for name, _ in _config().cache_key()]
    assert "scan_timeout" in names  # regression: used to be omitted
    import dataclasses

    assert names == [f.name for f in dataclasses.fields(CampaignConfig)]


def test_cache_round_trip(tmp_path):
    cache = CampaignStageCache(tmp_path, _config())
    records = [{"address": "192.0.2.1", "versions": [1]}]
    assert cache.load("zmap_v4") is None
    cache.store("zmap_v4", records)
    assert cache.load("zmap_v4") == records
    assert cache.hits == 1 and cache.misses == 1


def test_cache_separates_configs(tmp_path):
    a = CampaignStageCache(tmp_path, _config())
    b = CampaignStageCache(tmp_path, _config(scan_timeout=9.0))
    a.store("zmap_v4", ["a-records"])
    assert b.load("zmap_v4") is None, "scan_timeout must key the cache"
    assert a.directory != b.directory


def test_cache_rejects_version_skew(tmp_path, monkeypatch):
    cache = CampaignStageCache(tmp_path, _config())
    cache.store("syn_v4", [1, 2, 3])
    monkeypatch.setattr(stage_cache, "CACHE_VERSION", stage_cache.CACHE_VERSION + 1)
    assert cache.load("syn_v4") is None
    assert not (cache.directory / "syn_v4.pkl").exists(), "stale entry not dropped"


def test_cache_rejects_corrupt_file(tmp_path):
    cache = CampaignStageCache(tmp_path, _config())
    cache.store("syn_v4", [1, 2, 3])
    (cache.directory / "syn_v4.pkl").write_bytes(b"\x80garbage")
    assert cache.load("syn_v4") is None


def test_cache_rejects_wrong_stage_payload(tmp_path):
    cache = CampaignStageCache(tmp_path, _config())
    cache.store("syn_v4", [1])
    payload = pickle.loads((cache.directory / "syn_v4.pkl").read_bytes())
    payload["stage"] = "zmap_v4"
    (cache.directory / "syn_v4.pkl").write_bytes(pickle.dumps(payload))
    assert cache.load("syn_v4") is None


def test_campaign_warm_cache_round_trip(tmp_path):
    """A second campaign with the same cache dir replays stages from disk."""
    config = CampaignConfig(
        week=18, scale=Scale(addresses=2_000, ases=50, domains=2_000), seed=3
    )
    cold = Campaign(config, cache_dir=tmp_path)
    cold_records = cold.zmap_v4
    assert cold.stage_cache.misses > 0

    warm = Campaign(config, cache_dir=tmp_path)
    warm_records = warm.zmap_v4
    assert warm_records == cold_records
    assert warm.stage_cache.hits == 1
    # The warm campaign served the stage without building a world.
    assert warm._world is None
