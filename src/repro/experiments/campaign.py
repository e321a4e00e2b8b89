"""A weekly measurement campaign over the simulated Internet.

Orchestrates the paper's §3 scan pipeline for one calendar week:

1. DNS scans of all input lists (A/AAAA/HTTPS/SVCB),
2. ZMap QUIC scans — IPv4 full-space sweep, IPv6 from AAAA + hitlist,
3. ZMap TCP SYN scans on :443,
4. stateful TLS-over-TCP scans (no-SNI and SNI) harvesting Alt-Svc,
5. stateful QUIC scans with the QScanner — no-SNI over ZMap
   responders, SNI over the union of all three target sources.

All stages are lazy cached properties, so an experiment touching only
Figure 5 never pays for stateful scans.  Campaigns themselves are
memoised per configuration.

Two optional accelerations sit underneath the lazy properties:

- with ``workers > 1`` (or a fleet attached) stages stream through
  :class:`~repro.parallel.stream.StreamEngine` on a process pool the
  campaign keeps until :meth:`Campaign.close` — every stage's serial
  work list (:meth:`Campaign.stage_targets`) is cut into contiguous
  chunks computed by the same entry points a serial stage calls once
  over the whole list, and merged back into serial order, record for
  record,
- a :class:`~repro.experiments.stage_cache.CampaignStageCache`
  (``cache_dir``) persists completed stages on disk so repeated runs
  skip them entirely (warm runs never even build the world).

Observability: every campaign owns a
:class:`~repro.observability.metrics.MetricsRegistry` and an
:class:`~repro.observability.tracing.EventTracer`.  The stage wrappers
install them as *current* while a stage computes (so the scanners and
engines record into them), account per-stage record counts, cache
hits/misses and wall times, and — in parallel runs — merge the chunk
workers' metric snapshots back in.  ``repro report`` renders the
result (see :mod:`repro.observability.report`).
"""

from __future__ import annotations

import dataclasses
import sys
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.joins import DnsJoin, join_dns_addresses
from repro.crypto.rand import derive_seed
from repro.internet.generator import World, build_world
from repro.internet.providers import Scale
from repro.netsim.addresses import Address, IPv6Address
from repro.observability.metrics import MetricsRegistry, use_metrics
from repro.observability.tracing import EventTracer, use_tracer
from repro.quic.versions import DRAFT_29, DRAFT_32, DRAFT_34, QSCANNER_SUPPORTED, QUIC_V1
from repro.scanners.dnsscan import DnsScanner
from repro.scanners.goscanner import Goscanner, GoscannerConfig
from repro.scanners.qscanner import QScanner, QScannerConfig
from repro.scanners.results import (
    DnsScanRecord,
    GoscannerRecord,
    QScanRecord,
    SynRecord,
    TargetSource,
    ZmapQuicRecord,
)
from repro.scanners.retry import RetryPolicy
from repro.scanners.zmapquic import ZmapQuicScanner
from repro.scanners.zmaptcp import ZmapTcpScanner
from repro.dns.resolver import Resolver
from repro.tls.ciphersuites import SUITE_AES_128_GCM_SHA256, SUITE_SIM_SHA256
from repro.tls.extensions import GROUP_SIM, GROUP_X25519

__all__ = [
    "CampaignConfig",
    "Campaign",
    "StageHealth",
    "get_campaign",
    "COMPATIBLE_ALPN_TOKENS",
    "shard_block_bounds",
    "aligned_block_bounds",
]

# ALPN tokens compatible with the QScanner's supported versions.
COMPATIBLE_ALPN_TOKENS = frozenset({"h3", "h3-29", "h3-32", "h3-34"})


@dataclass(frozen=True)
class CampaignConfig:
    week: int = 18
    scale: Scale = field(default_factory=Scale)
    seed: int = 0
    fast_crypto: bool = True
    # The paper caps at 100 domains per address per source; the default
    # here is lower to keep simulated campaigns quick (configurable).
    max_domains_per_address: int = 25
    qscanner_versions: Tuple[int, ...] = (DRAFT_29, DRAFT_32, DRAFT_34, QUIC_V1)
    scan_timeout: float = 3.0
    # Resilience knobs: a named fault profile from repro.netsim.faults
    # (None = no injected faults) and the scanners' shared retry
    # policy (the default never retries — baseline runs unchanged).
    fault_profile: Optional[str] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    # Path-condition profile (repro.netsim.paths): a named profile
    # ("geo-satellite") or a "rate=2mbps,rtt=600ms" spec string applied
    # to every deployment's conditions.  None = ambient baseline paths.
    path_profile: Optional[str] = None

    def cache_key(self) -> Tuple:
        """A hashable key covering *every* configuration field.

        Derived from ``dataclasses.fields`` so adding a field that
        affects scan results can never silently be left out of the
        memoisation/persistent-cache key again (nested dataclasses
        such as :class:`Scale` are flattened).
        """
        parts = []
        for spec in dataclasses.fields(self):
            value = getattr(self, spec.name)
            if dataclasses.is_dataclass(value) and not isinstance(value, type):
                value = dataclasses.astuple(value)
            parts.append((spec.name, value))
        return tuple(parts)


def shard_block_bounds(count: int, shard: int, of: int) -> Tuple[int, int]:
    """Balanced contiguous partition of ``range(count)`` into ``of`` blocks."""
    if not 0 <= shard < of:
        raise ValueError(f"shard {shard} out of range for {of} shards")
    return shard * count // of, (shard + 1) * count // of


def aligned_block_bounds(keys: Sequence, shard: int, of: int) -> Tuple[int, int]:
    """Contiguous partition whose cuts never split a run of equal keys.

    Used for per-address target lists: all connections to one server
    stay in one shard, preserving the server's per-connection state
    sequence exactly as in a serial scan.
    """

    def align(position: int) -> int:
        while 0 < position < len(keys) and keys[position] == keys[position - 1]:
            position += 1
        return position

    lo, hi = shard_block_bounds(len(keys), shard, of)
    return align(lo), align(hi)


@dataclass
class StageHealth:
    """Outcome of one stage's execution (graceful-degradation contract).

    ``success``: every shard completed; ``degraded``: at least one
    shard failed but others survived (partial records); ``failed``:
    the stage produced nothing (serial exception, or every shard
    failed).  Degraded and failed stages are never written to the
    persistent cache, and downstream stages still run on whatever
    records survived.
    """

    stage: str
    status: str = "success"  # success | degraded | failed
    error: Optional[str] = None
    shards: int = 1
    shards_failed: int = 0
    records: int = 0


class Campaign:
    """Lazily executed scan campaign for one week."""

    def __init__(
        self,
        config: CampaignConfig,
        world: Optional[World] = None,
        workers: Optional[int] = None,
        cache_dir: Optional[object] = None,
        tracer: Optional[EventTracer] = None,
        fleet: Optional[object] = None,
    ):
        self.config = config
        self._world = world
        self._workers = max(1, workers or 1)
        self._pool = None
        self._cache = None
        # When attached to a fleet scheduler, parallel stages run on the
        # fleet's shared pool instead of a per-campaign one.
        self._fleet = fleet
        # Every campaign owns its metrics so concurrent campaigns in
        # one process (tests, benchmarks) never mix telemetry.  The
        # registry is installed as *current* around each stage, so the
        # scanners pick it up without constructor plumbing; chunk
        # workers record into fresh registries that merge back here.
        self.metrics = MetricsRegistry()
        self.tracer = tracer if tracer is not None else EventTracer(0.0)
        # Per-stage execution outcomes (see StageHealth); populated as
        # stages run so callers can distinguish clean, degraded and
        # failed runs after the fact.
        self.stage_health: Dict[str, StageHealth] = {}
        if cache_dir is not None:
            from repro.experiments.stage_cache import CampaignStageCache

            self._cache = CampaignStageCache(
                cache_dir, config, metrics=self.metrics, tracer=self.tracer
            )

    @property
    def world(self) -> World:
        """The simulated Internet, built on first use.

        Lazy so that a fully warm-cached campaign never pays for world
        construction at all.
        """
        if self._world is None:
            start = time.perf_counter()
            self._world = build_world(
                week=self.config.week,
                scale=self.config.scale,
                seed=self.config.seed,
                fast_crypto=self.config.fast_crypto,
            )
            if self.config.fault_profile:
                self._apply_fault_profile(self._world)
            if self.config.path_profile:
                self._apply_path_profile(self._world)
            self.metrics.gauge("campaign.world_build_seconds", volatile=True).set(
                round(time.perf_counter() - start, 6)
            )
        return self._world

    def _apply_fault_profile(self, world: World) -> None:
        """Attach the configured fault profile to the freshly built world.

        The selection seed derives from the campaign seed and profile
        name only, so serial runs, shard workers' replicas and repeat
        runs all fault the exact same hosts.
        """
        from repro.netsim.faults import apply_profile, get_profile

        profile = get_profile(self.config.fault_profile)
        counts = apply_profile(
            world.network,
            [deployment.address for deployment in world.deployments],
            profile,
            derive_seed("faults", self.config.seed, profile.name),
        )
        for kind in sorted(counts):
            self.metrics.gauge("faults.hosts", fault=kind).set(counts[kind])

    def _apply_path_profile(self, world: World) -> None:
        """Attach the configured path profile to the freshly built world.

        The shaping seed derives from the campaign seed and the spec's
        canonical form only, so serial runs and shard workers' replicas
        shape the exact same hosts identically.  Composes with
        ``fault_profile`` (applied first; faults tuples are preserved).
        """
        from repro.netsim.paths import apply_path_profile, parse_path_spec

        spec = parse_path_spec(self.config.path_profile)
        count = apply_path_profile(
            world.network,
            [deployment.address for deployment in world.deployments],
            spec,
            derive_seed("paths", self.config.seed, spec.canonical()),
        )
        self.metrics.gauge("paths.hosts", profile=spec.name).set(count)

    @property
    def stage_cache(self):
        return self._cache

    @property
    def _parallel(self) -> bool:
        """Whether scan stages stream on a worker pool."""
        return self._workers > 1 or self._fleet is not None

    def _worker_pool(self):
        """The pool parallel stages run on: the fleet's, else our own.

        The campaign's own pool forks on first use and lives until
        :meth:`close`, so a stage-by-stage walk forks once per campaign.
        Passing the built world lets the fork inherit it copy-on-write
        instead of each worker rebuilding one.
        """
        if self._fleet is not None:
            return self._fleet.acquire_pool(self)
        if self._pool is None:
            from repro.parallel.engine import _init_worker, fork_pool, world_digest

            self._pool = fork_pool(
                self._workers,
                _init_worker,
                (self.config,),
                {world_digest(self.config): (self.config, self.world)},
            )
        return self._pool

    def close(self) -> None:
        """Shut down the campaign's worker pool, if any."""
        pool, self._pool = self._pool, None
        if pool is not None:
            from repro.parallel.engine import close_pool

            close_pool(pool)

    # -- stage execution ---------------------------------------------------------
    #
    # Every scan stage is a serial work list (stage_targets) walked by
    # one of three chunk entry points returning (position, record)
    # pairs; a serial stage is one chunk over the whole list.  The
    # wrapper below layers the persistent cache on top, and parallel
    # campaigns hand the stage to the streaming engine instead.

    def _stage(self, name: str) -> List:
        if self._parallel:
            from repro.parallel.stream import run_streaming

            run_streaming(self, (name,))
            return self.__dict__[name]
        start = time.perf_counter()
        cache_state = "off" if self._cache is None else "miss"
        records: Optional[List] = None
        health: Optional[StageHealth] = None
        if self._cache is not None:
            cached = self._cache.load(name)
            if cached is not None:
                records, cache_state = cached, "hit"
        if records is None:
            records, health = self._serial_compute(name)
            # Partial or empty results must never poison future runs:
            # only fully successful stages with healthy dependencies are
            # persisted — a stage downstream of a degraded one can be
            # silently short even when its own compute succeeded.
            if (
                self._cache is not None
                and health.status == "success"
                and not self._tainted(name)
            ):
                self._cache.store(name, records)
        if health is None:
            health = StageHealth(stage=name)
        health.records = len(records)
        self.stage_health[name] = health
        self._account_stage(name, len(records), cache_state, start, health)
        return records

    def _tainted(self, name: str) -> bool:
        """Whether any transitive input of ``name`` finished non-``success``.

        Inputs always execute before their dependents, so at store time
        their health is final: a stage computed over a degraded or
        failed input may be silently short and must not be cached as
        authoritative.  Stages independent of the failure still cache
        normally.
        """
        seen: Set[str] = set()
        stack = list(_STAGE_INPUTS.get(name, ()))
        while stack:
            dep = stack.pop()
            if dep in seen:
                continue
            seen.add(dep)
            entry = self.stage_health.get(dep)
            if entry is not None and entry.status != "success":
                return True
            stack.extend(_STAGE_INPUTS.get(dep, ()))
        return False

    def _serial_compute(self, name: str) -> Tuple[List, StageHealth]:
        """Compute a stage in-process as one chunk, degrading on failure.

        The target list resolves the stage's inputs *before* the entry
        point opens this stage's fault epoch: an input may itself
        compute here (under its own epoch), so this stage's traffic
        always starts on a freshly keyed epoch — exactly as a chunk
        worker (whose targets arrive precomputed) sees it.
        """
        with use_metrics(self.metrics), use_tracer(self.tracer):
            try:
                targets = self.stage_targets(name)
                if name in ("zmap_v4", "syn_v4"):
                    pairs = self.compute_stage_range(name, 0, len(targets))
                elif name in ("zmap_v6", "syn_v6"):
                    pairs = self.compute_stage_targets(name, 0, targets)
                else:
                    pairs = self.compute_stage_chunk(name, 0, targets)
                records = [record for _, record in pairs]
            except Exception as exc:
                return [], StageHealth(
                    stage=name,
                    status="failed",
                    error=f"{type(exc).__name__}: {exc}",
                    shards=1,
                    shards_failed=1,
                )
        return records, StageHealth(stage=name)

    def _plain_stage(
        self,
        name: str,
        compute: Callable[[], object],
        empty: Callable[[], object] = list,
    ):
        """A cacheable but unsharded stage (DNS, derived target lists)."""
        start = time.perf_counter()
        cache_state = "off" if self._cache is None else "miss"
        value = None
        health: Optional[StageHealth] = None
        if self._cache is not None:
            cached = self._cache.load(name)
            if cached is not None:
                value, cache_state = cached, "hit"
        if value is None:
            with use_metrics(self.metrics), use_tracer(self.tracer):
                try:
                    value = compute()
                    health = StageHealth(stage=name)
                except Exception as exc:
                    value = empty()
                    health = StageHealth(
                        stage=name,
                        status="failed",
                        error=f"{type(exc).__name__}: {exc}",
                        shards=1,
                        shards_failed=1,
                    )
            if (
                self._cache is not None
                and health.status == "success"
                and not self._tainted(name)
            ):
                self._cache.store(name, value)
        if health is None:
            health = StageHealth(stage=name)
        count = len(value) if hasattr(value, "__len__") else None
        health.records = count or 0
        self.stage_health[name] = health
        self._account_stage(name, count, cache_state, start, health)
        return value

    def _account_stage(
        self,
        name: str,
        records: Optional[int],
        cache_state: str,
        start: float,
        health: Optional[StageHealth] = None,
    ) -> None:
        """Per-stage bookkeeping: record counts, cache result, wall time.

        Record and cache counters are deterministic for a given cache
        state; wall times are volatile (excluded from ``metrics.json``).
        Non-success outcomes additionally emit a ``campaign.stage_status``
        counter and a stderr warning; healthy runs' metrics stay
        byte-identical to pre-degradation builds.
        """
        status = health.status if health is not None else "success"
        if records is not None:
            self.metrics.counter("campaign.stage_records", stage=name).inc(records)
        if cache_state != "off":
            self.metrics.counter(
                "campaign.stage_cache", result=cache_state, stage=name
            ).inc()
        if status != "success":
            self.metrics.counter(
                "campaign.stage_status", stage=name, status=status
            ).inc()
            print(
                f"warning: stage {name} {status}"
                f" ({health.shards_failed}/{health.shards} shards failed):"
                f" {health.error}",
                file=sys.stderr,
            )
        elapsed = round(time.perf_counter() - start, 6)
        self.metrics.gauge("campaign.stage_seconds", volatile=True, stage=name).set(
            elapsed
        )
        self.tracer.event(
            "scan.stage",
            stage=name,
            records=records,
            cache=cache_state,
            seconds=elapsed,
            status=status,
        )

    def failed_stages(self) -> List[str]:
        """Stages that produced nothing at all (total failure)."""
        return [n for n, h in self.stage_health.items() if h.status == "failed"]

    def degraded_stages(self) -> List[str]:
        """Stages that completed with partial records."""
        return [n for n, h in self.stage_health.items() if h.status == "degraded"]

    # -- chunk entry points (see repro.parallel.stream) --------------------
    #
    # Work is partitioned into *contiguous serial-order segments* of
    # each stage's target list; serial runs compute one segment
    # covering the whole list, streaming workers compute many.  Each
    # entry point opens the stage's fault epoch and seeks scanner rng
    # state to the chunk's global offset, so records and merged metrics
    # are byte-identical whichever way the list was cut.

    def stage_targets(self, name: str) -> Sequence:
        """A stage's complete serial work list (resolves its inputs).

        IPv4 sweeps walk ``range(cycle)`` permutation positions, IPv6
        sweeps probe :attr:`ipv6_scan_input`, stateful stages scan the
        targets :meth:`derive_items` draws from their upstream sweep,
        and the SNI QUIC scans walk the sorted target union.
        """
        family = 6 if name.endswith("v6") else 4
        if name in ("zmap_v4", "syn_v4"):
            scanner = self._zmap_scanner(4) if name == "zmap_v4" else self._syn_scanner(4)
            return range(scanner.sweep_cycle_length(self.world.ipv4_space))
        if name in ("zmap_v6", "syn_v6"):
            return self.ipv6_scan_input
        if name.startswith("goscanner"):
            return self.derive_items(name, self._syn_records(family))
        if name.startswith("qscan_nosni"):
            return self.derive_items(name, self.zmap_v4 if family == 4 else self.zmap_v6)
        if name.startswith("qscan_sni"):
            return self._sorted_sni_targets(family)
        raise KeyError(f"unknown stage: {name}")

    def derive_items(self, name: str, records: Sequence) -> List:
        """A stateful stage's target items drawn from upstream records.

        Order-preserving, so a prefix of upstream records yields a
        prefix of the stage's serial target list — which is what lets
        the streaming engine feed consumers chunk by chunk.
        """
        if name.startswith("goscanner_nosni"):
            return [record.address for record in records]
        if name.startswith("goscanner_sni"):
            cap = self.config.max_domains_per_address
            join = self.dns_join
            return [
                (record.address, domain)
                for record in records
                for domain in join.domains_for(record.address)[:cap]
            ]
        if name.startswith("qscan_nosni"):
            return [record.address for record in self._zmap_compatible(records)]
        raise KeyError(f"not a derived stage: {name}")

    def compute_stage_range(self, name: str, lo: int, hi: int) -> List[Tuple[int, object]]:
        """Sweep the contiguous walk segment ``[lo, hi)`` of an IPv4 sweep."""
        self.world.network.begin_fault_epoch(name)
        if name == "zmap_v4":
            return self._zmap_scanner(4).scan_ipv4_range(self.world.ipv4_space, lo, hi)
        if name == "syn_v4":
            return self._syn_scanner(4).scan_ipv4_range(self.world.ipv4_space, lo, hi)
        raise KeyError(f"not a range-sweep stage: {name}")

    def compute_stage_targets(
        self, name: str, lo: int, targets: Sequence[Address]
    ) -> List[Tuple[int, object]]:
        """Probe a contiguous slice of an explicit target list (v6 sweeps)."""
        self.world.network.begin_fault_epoch(name)
        if name == "zmap_v6":
            return self._zmap_scanner(6).scan_targets_shard(targets, lo)
        if name == "syn_v6":
            return self._syn_scanner(6).scan_targets_shard(targets, lo)
        raise KeyError(f"not a target-sweep stage: {name}")

    def _stage_scanner(self, name: str):
        """A stateful stage's scanner and its per-target scan call."""
        family = 6 if name.endswith("v6") else 4
        if name.startswith("goscanner_nosni"):
            scanner = self._goscanner(f"nosni{family}")
            return scanner, lambda address: scanner.scan(address, None)
        if name.startswith("goscanner_sni"):
            scanner = self._goscanner(f"sni{family}")
            return scanner, lambda item: scanner.scan(*item)
        if name.startswith("qscan_nosni"):
            scanner = self._qscanner(f"nosni{family}", source_v6=family == 6)
            return scanner, lambda address: scanner.scan(
                address, None, TargetSource.ZMAP_DNS
            )
        if name.startswith("qscan_sni"):
            scanner = self._qscanner(f"sni{family}", source_v6=family == 6)
            return scanner, lambda item: scanner.scan(*item)
        raise KeyError(f"not a chunkable stage: {name}")

    def compute_stage_chunk(
        self, name: str, lo: int, items: Sequence
    ) -> List[Tuple[int, object]]:
        """Run a stateful scanner over one contiguous chunk of targets.

        ``lo`` is the chunk's offset in the stage's serial target list;
        ``seek(lo)`` gives every target the same rng child it would get
        in a serial scan of the full list.
        """
        self.world.network.begin_fault_epoch(name)
        scanner, scan = self._stage_scanner(name)
        scanner.seek(lo)
        return [(index, scan(item)) for index, item in enumerate(items, lo)]

    def run_all_stages(self) -> Dict[str, int]:
        """Execute every stage in canonical order; returns record counts.

        Parallel campaigns stream all pending stages as one dataflow:
        upstream sweep chunks feed stateful scanner chunks while the
        sweeps are still running (records and ``metrics.json`` stay
        byte-identical to a serial run).  With every stage then
        materialized the pool has no work left, so it is released.
        """
        counts: Dict[str, int] = {}
        counts["dns"] = len(self.all_dns_records)
        # The pending gate makes re-invocation (e.g. load_campaign
        # calling run_all_stages on an already-executed fleet cell) a
        # pure count pass — no engine dispatch, no re-accounting.
        if self._parallel and any(name not in self.__dict__ for name in _STAGE_ORDER):
            from repro.parallel.stream import run_streaming

            try:
                run_streaming(self)
            finally:
                self.close()
        for name in _STAGE_ORDER:
            counts[name] = len(getattr(self, name))
        return counts

    # -- shared scanner configs ------------------------------------------------
    def _crypto_kwargs(self) -> Dict:
        if self.config.fast_crypto:
            return {
                "cipher_suites": (SUITE_SIM_SHA256, SUITE_AES_128_GCM_SHA256),
                "groups": (GROUP_SIM, GROUP_X25519),
            }
        return {
            "cipher_suites": (SUITE_AES_128_GCM_SHA256,),
            "groups": (GROUP_X25519,),
        }

    # -- stage 1: DNS ------------------------------------------------------------
    @cached_property
    def dns_records(self) -> Dict[str, List[DnsScanRecord]]:
        def compute():
            scanner = DnsScanner(Resolver(self.world.zones), retry=self.config.retry)
            return scanner.scan_lists(self.world.input_lists.lists)

        return self._plain_stage("dns_records", compute, empty=dict)

    @cached_property
    def all_dns_records(self) -> List[DnsScanRecord]:
        return [record for records in self.dns_records.values() for record in records]

    @cached_property
    def dns_join(self) -> DnsJoin:
        return join_dns_addresses(self.all_dns_records)

    # -- stage 2: ZMap QUIC ---------------------------------------------------
    @cached_property
    def zmap_v4(self) -> List[ZmapQuicRecord]:
        return self._stage("zmap_v4")

    def _zmap_scanner(self, family: int) -> ZmapQuicScanner:
        label = "zmapquic" if family == 4 else "zmapquic6"
        return ZmapQuicScanner(
            self.world.network,
            self.world.scanner_v4 if family == 4 else self.world.scanner_v6,
            blocklist=self.world.blocklist,
            seed=(label, self.config.seed, self.config.week),
            retry=self.config.retry,
        )

    @cached_property
    def ipv6_scan_input(self) -> List[IPv6Address]:
        """AAAA resolutions joined with the IPv6 hitlist (§3.1)."""

        def compute():
            addresses: Set[IPv6Address] = set(self.world.ipv6_hitlist)
            for record in self.all_dns_records:
                addresses.update(record.aaaa)
            return sorted(addresses)

        return self._plain_stage("ipv6_scan_input", compute)

    @cached_property
    def zmap_v6(self) -> List[ZmapQuicRecord]:
        return self._stage("zmap_v6")

    # -- stage 3: TCP SYN ---------------------------------------------------------
    def _syn_scanner(self, family: int) -> ZmapTcpScanner:
        label = "zmaptcp" if family == 4 else "zmaptcp6"
        return ZmapTcpScanner(
            self.world.network,
            blocklist=self.world.blocklist,
            seed=(label, self.config.seed, self.config.week),
            retry=self.config.retry,
        )

    @cached_property
    def syn_v4(self) -> List[SynRecord]:
        return self._stage("syn_v4")

    @cached_property
    def syn_v6(self) -> List[SynRecord]:
        return self._stage("syn_v6")

    # -- stage 4: stateful TLS over TCP -----------------------------------------
    def _goscanner(self, label: str) -> Goscanner:
        return Goscanner(
            self.world.network,
            self.world.scanner_v4,
            GoscannerConfig(
                timeout=self.config.scan_timeout,
                seed=("goscanner", label, self.config.seed, self.config.week),
                retry=self.config.retry,
                **self._crypto_kwargs(),
            ),
        )

    def _syn_records(self, family: int) -> List[SynRecord]:
        return self.syn_v4 if family == 4 else self.syn_v6

    @cached_property
    def goscanner_nosni_v4(self) -> List[GoscannerRecord]:
        return self._stage("goscanner_nosni_v4")

    @cached_property
    def goscanner_sni_v4(self) -> List[GoscannerRecord]:
        return self._stage("goscanner_sni_v4")

    @cached_property
    def goscanner_nosni_v6(self) -> List[GoscannerRecord]:
        return self._stage("goscanner_nosni_v6")

    @cached_property
    def goscanner_sni_v6(self) -> List[GoscannerRecord]:
        return self._stage("goscanner_sni_v6")

    # -- target assembly --------------------------------------------------------
    @staticmethod
    def _zmap_compatible(records: Sequence[ZmapQuicRecord]) -> List[ZmapQuicRecord]:
        return [r for r in records if set(r.versions) & QSCANNER_SUPPORTED]

    def _goscanner_records(self, family: int, sni: bool) -> List[GoscannerRecord]:
        if family == 4:
            return self.goscanner_sni_v4 if sni else self.goscanner_nosni_v4
        return self.goscanner_sni_v6 if sni else self.goscanner_nosni_v6

    def _altsvc_targets(self, family: int) -> List[Tuple[Address, str]]:
        """(address, domain) pairs advertising a compatible HTTP/3 token."""
        targets = []
        for record in self._goscanner_records(family, sni=True):
            tokens = {e.alpn for e in record.alt_svc if e.indicates_http3}
            if tokens & COMPATIBLE_ALPN_TOKENS:
                targets.append((record.address, record.sni))
        return targets

    def _altsvc_discovered(self, family: int) -> List[Tuple[Address, str, frozenset]]:
        """All Alt-Svc discoveries (including incompatible tokens)."""
        discovered = []
        records = self._goscanner_records(family, sni=True) + self._goscanner_records(
            family, sni=False
        )
        for record in records:
            tokens = frozenset(e.alpn for e in record.alt_svc if e.indicates_http3)
            if tokens:
                discovered.append((record.address, record.sni, tokens))
        return discovered

    @cached_property
    def altsvc_targets_v4(self) -> List[Tuple[Address, str]]:
        return self._altsvc_targets(4)

    @cached_property
    def altsvc_targets_v6(self) -> List[Tuple[Address, str]]:
        return self._altsvc_targets(6)

    @cached_property
    def altsvc_discovered_v4(self) -> List[Tuple[Address, str, frozenset]]:
        return self._altsvc_discovered(4)

    @cached_property
    def altsvc_discovered_v6(self) -> List[Tuple[Address, str, frozenset]]:
        return self._altsvc_discovered(6)

    @cached_property
    def https_rr_targets(self) -> Dict[int, List[Tuple[Address, str]]]:
        """HTTPS-RR derived targets per address family."""
        targets: Dict[int, List[Tuple[Address, str]]] = {4: [], 6: []}
        seen = set()
        for record in self.all_dns_records:
            if not record.has_https_rr:
                continue
            if not set(record.https_alpn) & COMPATIBLE_ALPN_TOKENS:
                continue
            for address in record.https_ipv4hints:
                key = (address, record.domain)
                if key not in seen:
                    seen.add(key)
                    targets[4].append(key)
            for address in record.https_ipv6hints:
                key = (address, record.domain)
                if key not in seen:
                    seen.add(key)
                    targets[6].append(key)
        return targets

    def _sni_targets(self, family: int) -> Dict[Tuple[Address, str], Set[TargetSource]]:
        """Union of SNI targets with their source memberships."""
        cap = self.config.max_domains_per_address
        targets: Dict[Tuple[Address, str], Set[TargetSource]] = {}
        zmap = self.zmap_v4 if family == 4 else self.zmap_v6
        for record in self._zmap_compatible(zmap):
            for domain in self.dns_join.domains_for(record.address)[:cap]:
                targets.setdefault((record.address, domain), set()).add(
                    TargetSource.ZMAP_DNS
                )
        altsvc = self.altsvc_targets_v4 if family == 4 else self.altsvc_targets_v6
        for address, domain in altsvc:
            targets.setdefault((address, domain), set()).add(TargetSource.ALT_SVC)
        for address, domain in self.https_rr_targets[family]:
            targets.setdefault((address, domain), set()).add(TargetSource.HTTPS_RR)
        return targets

    @cached_property
    def sni_targets_v4(self) -> Dict[Tuple[Address, str], Set[TargetSource]]:
        return self._sni_targets(4)

    @cached_property
    def sni_targets_v6(self) -> Dict[Tuple[Address, str], Set[TargetSource]]:
        return self._sni_targets(6)

    # -- stage 5: QScanner ---------------------------------------------------------
    def _qscanner(self, label: str, source_v6: bool = False) -> QScanner:
        return QScanner(
            self.world.network,
            self.world.scanner_v6 if source_v6 else self.world.scanner_v4,
            QScannerConfig(
                versions=self.config.qscanner_versions,
                trusted_roots=(self.world.ca.root,),
                timeout=self.config.scan_timeout,
                fast_initial_protection=self.config.fast_crypto,
                seed=("qscanner", label, self.config.seed, self.config.week),
                retry=self.config.retry,
                **self._crypto_kwargs(),
            ),
        )

    def _sorted_sni_targets(
        self, family: int
    ) -> List[Tuple[Address, str, TargetSource]]:
        targets = self.sni_targets_v4 if family == 4 else self.sni_targets_v6
        ordered = []
        for (address, domain), sources in sorted(
            targets.items(), key=lambda item: (str(item[0][0]), item[0][1])
        ):
            source = sorted(sources, key=lambda s: s.value)[0]
            ordered.append((address, domain, source))
        return ordered

    @cached_property
    def qscan_nosni_v4(self) -> List[QScanRecord]:
        return self._stage("qscan_nosni_v4")

    @cached_property
    def qscan_nosni_v6(self) -> List[QScanRecord]:
        return self._stage("qscan_nosni_v6")

    @cached_property
    def qscan_sni_v4(self) -> List[QScanRecord]:
        return self._stage("qscan_sni_v4")

    @cached_property
    def qscan_sni_v6(self) -> List[QScanRecord]:
        return self._stage("qscan_sni_v6")

    def sni_records_for_source(
        self, family: int, source: TargetSource
    ) -> List[QScanRecord]:
        """Scan records restricted to one discovery source (Table 4)."""
        targets = self.sni_targets_v4 if family == 4 else self.sni_targets_v6
        records = self.qscan_sni_v4 if family == 4 else self.qscan_sni_v6
        wanted = {
            (address, domain)
            for (address, domain), sources in targets.items()
            if source in sources
        }
        return [r for r in records if (r.address, r.sni) in wanted]


# Health-tracked stages each stage's compute reads, including through
# the derived target lists (dns_join, Alt-Svc/HTTPS-RR/SNI targets)
# that sit between them.  Used for cache-taint propagation (a stage is
# only cached when every transitive input completed ``success``) and
# for the streaming engine's dependency closure.
_STAGE_INPUTS: Dict[str, Tuple[str, ...]] = {
    "dns_records": (),
    "ipv6_scan_input": ("dns_records",),
    "zmap_v4": (),
    "zmap_v6": ("ipv6_scan_input",),
    "syn_v4": (),
    "syn_v6": ("ipv6_scan_input",),
    "goscanner_nosni_v4": ("syn_v4",),
    "goscanner_nosni_v6": ("syn_v6",),
    "goscanner_sni_v4": ("syn_v4", "dns_records"),
    "goscanner_sni_v6": ("syn_v6", "dns_records"),
    "qscan_nosni_v4": ("zmap_v4",),
    "qscan_nosni_v6": ("zmap_v6",),
    "qscan_sni_v4": ("zmap_v4", "dns_records", "goscanner_sni_v4"),
    "qscan_sni_v6": ("zmap_v6", "dns_records", "goscanner_sni_v6"),
}

# Canonical execution order for full-campaign runs (dependencies first).
_STAGE_ORDER: Tuple[str, ...] = (
    "zmap_v4",
    "zmap_v6",
    "syn_v4",
    "syn_v6",
    "goscanner_nosni_v4",
    "goscanner_sni_v4",
    "goscanner_nosni_v6",
    "goscanner_sni_v6",
    "qscan_nosni_v4",
    "qscan_nosni_v6",
    "qscan_sni_v4",
    "qscan_sni_v6",
)


_CAMPAIGNS: Dict[Tuple, Campaign] = {}


def get_campaign(
    week: int = 18,
    scale: Optional[Scale] = None,
    seed: int = 0,
    fast_crypto: bool = True,
    max_domains_per_address: int = 25,
    workers: Optional[int] = None,
    cache_dir: Optional[object] = None,
    fault_profile: Optional[str] = None,
    retry: Optional[RetryPolicy] = None,
    path_profile: Optional[str] = None,
) -> Campaign:
    """Memoised campaign accessor shared by tests and benchmarks.

    ``workers`` and ``cache_dir`` only take effect when the campaign
    for this configuration is first constructed; subsequent calls
    return the memoised instance unchanged.
    """
    config = CampaignConfig(
        week=week,
        scale=scale or Scale(),
        seed=seed,
        fast_crypto=fast_crypto,
        max_domains_per_address=max_domains_per_address,
        fault_profile=fault_profile,
        retry=retry if retry is not None else RetryPolicy(),
        path_profile=path_profile,
    )
    key = config.cache_key()
    if key not in _CAMPAIGNS:
        _CAMPAIGNS[key] = Campaign(config, workers=workers, cache_dir=cache_dir)
    return _CAMPAIGNS[key]
