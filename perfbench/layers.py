"""Which program functions the traced run wraps, and the per-layer metrics.

Every entry groups the public functions of one layer under one span
name.  :func:`install` wraps them with a :class:`spans.Tracer`;
:func:`derive` turns the merged span table and the workload's own facts
into the ``per_layer`` metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import statistics
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["ENTRIES", "PER_LAYER", "STAGES", "ARTEFACTS", "install", "derive"]

STAGES = (
    "dns_records", "ipv6_scan_input", "zmap_v4", "zmap_v6", "syn_v4", "syn_v6",
    "goscanner_nosni_v4", "goscanner_sni_v4", "goscanner_nosni_v6",
    "goscanner_sni_v6", "qscan_nosni_v4", "qscan_nosni_v6", "qscan_sni_v4",
    "qscan_sni_v6",
)
ARTEFACTS = (
    "T1", "T2", "T3", "T4", "T5", "T6", "F3", "F4", "F5", "F6", "F7", "F8", "F9",
    "A1", "A2", "A3", "A5", "A6", "A7", "E1",
)


# -- observers: counters measured where the work happens --------------------------
_SEEN_MODULI: set = set()


def _distinct_keys(counts, args, kwargs, key) -> None:
    # Keygen runs where worlds are built, which is the driver process
    # (pool workers inherit built worlds), so one set per process counts
    # distinct keys without merging sets across processes.
    _SEEN_MODULI.add(key.n)
    counts["rsa.distinct_keys"] = len(_SEEN_MODULI)


def _path_admit(counts, args, kwargs, delay) -> None:
    counts["path.admits"] = counts.get("path.admits", 0) + 1
    if delay is None:
        counts["path.drops"] = counts.get("path.drops", 0) + 1


def _sweep_range(counts, args, kwargs, pairs) -> None:
    # scan_ipv4_range(space, lo, hi): one probe slot per walk position.
    lo, hi = args[2], args[3]
    counts["zmapquic.probes"] = counts.get("zmapquic.probes", 0) + (hi - lo)
    counts["zmapquic.hits"] = counts.get("zmapquic.hits", 0) + len(pairs)


def _sweep_shard(counts, args, kwargs, pairs) -> None:
    # scan_ipv4_space_shard(space, shard, of)
    space, of = args[1], args[3]
    counts["zmapquic.probes"] = counts.get("zmapquic.probes", 0) + space.num_addresses // of
    counts["zmapquic.hits"] = counts.get("zmapquic.hits", 0) + len(pairs)


def _sweep_targets(counts, args, kwargs, pairs) -> None:
    # scan_targets_shard(targets, base_position)
    counts["zmapquic.probes"] = counts.get("zmapquic.probes", 0) + len(args[1])
    counts["zmapquic.hits"] = counts.get("zmapquic.hits", 0) + len(pairs)


def _qscan_outcome(counts, args, kwargs, record) -> None:
    if record.outcome.value == "success":
        counts["qscanner.successes"] = counts.get("qscanner.successes", 0) + 1


def _rows_loaded(counts, args, kwargs, result) -> None:
    counts["warehouse.rows"] = counts.get("warehouse.rows", 0) + result.total_rows


# (span name, module, class or None, attributes, sample spans, observers by attribute)
Entry = Tuple[str, str, Optional[str], Sequence[str], bool, Dict[str, Callable]]

ENTRIES: List[Entry] = [
    ("internet.build_world", "repro.internet.generator", None, ["build_world"], False, {}),
    ("crypto.generate_rsa_key", "repro.crypto.rsa", None, ["generate_rsa_key"], False,
     {"generate_rsa_key": _distinct_keys}),
    ("crypto.rsa_sign", "repro.crypto.rsa", "RsaPrivateKey", ["sign"], False, {}),
    ("crypto.x25519", "repro.crypto.x25519", None, ["x25519", "x25519_base"], False, {}),
    ("crypto.hkdf", "repro.crypto.hkdf", None,
     ["hkdf_extract", "hkdf_expand", "hkdf_expand_label"], False, {}),
    ("crypto.aead", "repro.crypto.aead", "AeadAes128Gcm", ["seal", "open"], False, {}),
    ("crypto.aead", "repro.crypto.aead", "AeadSim", ["seal", "open"], False, {}),
    ("crypto.aead", "repro.crypto.chacha", "ChaCha20Poly1305", ["seal", "open"], False, {}),
    ("crypto.aead", "repro.crypto.aead", None,
     ["header_mask_aes", "header_mask_sim", "header_mask_chacha"], False, {}),
    ("quic.initial_keys", "repro.quic.initial_aead", None, ["derive_initial_keys"], False, {}),
    ("quic.packet", "repro.quic.packet", None,
     ["encode_long_header", "decode_long_header", "encode_short_header",
      "decode_short_header", "encode_version_negotiation",
      "decode_version_negotiation"], False, {}),
    ("quic.frames", "repro.quic.frames", None, ["encode_frames", "decode_frames"], False, {}),
    ("quic.protection", "repro.quic.protection", None,
     ["protect_long", "protect_short", "unprotect"], False, {}),
    ("quic.server_datagram", "repro.quic.connection", "QuicServerEndpoint",
     ["datagram_received"], False, {}),
    ("quic.client_connect", "repro.quic.connection", "QuicClientConnection",
     ["connect"], True, {}),
    ("tls.client", "repro.tls.engine", "TlsClientSession",
     ["client_hello", "process_server_hello", "process_server_flight",
      "process_post_handshake"], False, {}),
    ("tls.server", "repro.tls.engine", "TlsServerSession",
     ["process_client_hello", "process_client_finished"], False, {}),
    ("tls.verify_chain", "repro.tls.certificates", None, ["verify_chain"], False, {}),
    ("netsim.deliver_datagram", "repro.netsim.topology", "Network",
     ["deliver_datagram"], False, {}),
    ("netsim.syn_probe", "repro.netsim.topology", "Network", ["syn_probe"], False, {}),
    ("netsim.connect_tcp", "repro.netsim.topology", "Network", ["connect_tcp"], False, {}),
    ("netsim.path_segment", "repro.netsim.paths", "PathState", ["admit", "admit_segment"],
     False, {"admit": _path_admit, "admit_segment": _path_admit}),
    ("dns.resolve", "repro.dns.resolver", "Resolver", ["resolve"], False, {}),
    ("scanners.dnsscan", "repro.scanners.dnsscan", "DnsScanner", ["scan_list"], False, {}),
    ("scanners.zmapquic", "repro.scanners.zmapquic", "ZmapQuicScanner",
     ["scan_ipv4_space_shard", "scan_ipv4_range", "scan_targets_shard"], False,
     {"scan_ipv4_space_shard": _sweep_shard, "scan_ipv4_range": _sweep_range,
      "scan_targets_shard": _sweep_targets}),
    ("scanners.zmaptcp", "repro.scanners.zmaptcp", "ZmapTcpScanner",
     ["scan_ipv4_space_shard", "scan_ipv4_range", "scan_targets_shard"], False, {}),
    ("scanners.goscanner.scan", "repro.scanners.goscanner", "Goscanner", ["scan"], True, {}),
    ("scanners.qscanner.scan", "repro.scanners.qscanner", "QScanner", ["scan"], True,
     {"scan": _qscan_outcome}),
    # Pool task bodies: they run only in workers, so their spans are the
    # workers' busy time.
    ("parallel.worker_task", "repro.parallel.engine", None, ["_run_shard"], False, {}),
    ("parallel.worker_task", "repro.parallel.stream", None, ["_stream_chunk"], False, {}),
    ("parallel.worker_task", "repro.parallel.fleet", None,
     ["_fleet_stream_chunk", "_fleet_run_shard"], False, {}),
    ("warehouse.load_campaign", "repro.warehouse.loader", None, ["load_campaign"], False,
     {"load_campaign": _rows_loaded}),
    ("warehouse.run_qa", "repro.warehouse.qa", None, ["run_qa"], False, {}),
    ("warehouse.build_marts", "repro.warehouse.marts", None, ["build_marts"], False, {}),
    ("warehouse.run_matrix_qa", "repro.warehouse.qa", None, ["run_matrix_qa"], False, {}),
    ("warehouse.named_report", "repro.warehouse.queries", None, ["named_report"], False, {}),
    ("longitudinal.build_week_campaign", "repro.longitudinal.delta", None,
     ["build_week_campaign"], False, {}),
    ("observability", "repro.observability.metrics", "MetricsRegistry",
     ["counter", "gauge", "histogram", "snapshot", "merge_snapshot"], False, {}),
    ("observability", "repro.observability.metrics", "Counter", ["inc"], False, {}),
    ("observability", "repro.observability.metrics", "Gauge", ["set"], False, {}),
    ("observability", "repro.observability.metrics", "Histogram", ["observe"], False, {}),
    ("observability", "repro.observability.tracing", "EventTracer", ["event", "span"],
     False, {}),
]


def _analysis_functions() -> List[Tuple[object, str]]:
    """Every public function defined in a ``repro.analysis`` module."""
    import repro.analysis as package

    found = []
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"repro.analysis.{info.name}")
        for name, value in vars(module).items():
            if (
                inspect.isfunction(value)
                and value.__module__ == module.__name__
                and not name.startswith("_")
            ):
                found.append((module, name))
    return found


def install(tracer) -> Dict[str, int]:
    """Wrap every entry; returns bindings replaced per span name."""
    targets = []
    for span, module_name, class_name, attrs, sample, observers in ENTRIES:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        for attr in attrs:
            targets.append((span, owner, attr, sample, observers.get(attr)))
    for module, name in _analysis_functions():
        targets.append(("analysis", module, name, False, None))
    # Every repro module is loaded now, so every importer's binding is seen.
    for info in pkgutil.walk_packages(importlib.import_module("repro").__path__, "repro."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)
    modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("repro")]
    for span, owner, attr, sample, observe in targets:
        tracer.install(span, owner, attr, modules, sample=sample, observe=observe)
    return tracer.entries


# -- per-layer metrics ------------------------------------------------------------
def _timed(layer: str, entries: Sequence[str]) -> List[Tuple[str, str, str]]:
    metrics = []
    for entry in entries:
        metrics.append((f"{layer}.{entry}.calls", "count", "lower"))
        metrics.append((f"{layer}.{entry}.self_s", "s", "lower"))
    return metrics


PER_LAYER: List[Tuple[str, str, str]] = (
    _timed("internet", ["build_world"])
    + _timed("crypto", ["generate_rsa_key"])
    + [("crypto.rsa.distinct_key_ratio", "ratio", "lower")]
    + _timed("crypto", ["rsa_sign", "x25519", "hkdf", "aead"])
    + _timed("quic", ["initial_keys", "packet", "frames", "protection", "server_datagram"])
    + [("quic.client_connect.p50_ms", "ms", "lower"),
       ("quic.client_connect.p99_ms", "ms", "lower")]
    + _timed("tls", ["client", "server", "verify_chain"])
    + _timed("netsim", ["deliver_datagram", "syn_probe", "connect_tcp", "path_segment"])
    + [("netsim.path_drop_ratio", "ratio", "lower")]
    + _timed("dns", ["resolve"])
    + _timed("scanners", ["dnsscan", "zmapquic", "zmaptcp"])
    + [("scanners.zmapquic.probe_us", "us", "lower"),
       ("scanners.zmapquic.hit_ratio", "ratio", "higher")]
    + [
        (f"scanners.{scanner}.scan.{stat}", unit, "lower")
        for scanner in ("goscanner", "qscanner")
        for stat, unit in (("calls", "count"), ("self_s", "s"), ("p50_ms", "ms"),
                           ("p99_ms", "ms"))
    ]
    + [("scanners.qscanner.success_ratio", "ratio", "higher")]
    + [
        ("parallel.stream.tasks", "count", "lower"),
        ("parallel.stream.overlap_ratio", "ratio", "higher"),
        ("parallel.stream.queue_depth_max", "count", "lower"),
        ("parallel.stream.backpressure_stalls", "count", "lower"),
        ("parallel.stream.inflight_max", "count", "higher"),
        ("parallel.worker_busy_ratio", "ratio", "higher"),
        ("parallel.fleet.world_builds", "count", "lower"),
        ("parallel.fleet.world_reuse_hits", "count", "higher"),
        ("parallel.fleet.pool_respawns", "count", "lower"),
        ("parallel.fleet.scan_s", "s", "lower"),
        ("parallel.fleet.load_s", "s", "lower"),
        ("parallel.fleet.overlap_ratio", "ratio", "higher"),
    ]
    + [(f"experiments.stage_s.{stage}", "s", "lower") for stage in STAGES]
    + [(f"experiments.artefact_s.{artefact}", "s", "lower") for artefact in ARTEFACTS]
    + [("analysis.calls", "count", "lower"), ("analysis.self_s", "s", "lower")]
    + [
        ("warehouse.load_campaign.calls", "count", "lower"),
        ("warehouse.load_campaign.self_s", "s", "lower"),
        ("warehouse.load_campaign.total_s", "s", "lower"),
        ("warehouse.rows_per_s", "1/s", "higher"),
        ("warehouse.run_qa.total_s", "s", "lower"),
        ("warehouse.build_marts.total_s", "s", "lower"),
        ("warehouse.run_matrix_qa.total_s", "s", "lower"),
        ("warehouse.named_report.calls", "count", "lower"),
        ("warehouse.named_report.total_s", "s", "lower"),
    ]
    + [
        ("longitudinal.delta_hit_ratio", "ratio", "higher"),
        ("longitudinal.build_week_campaign.total_s", "s", "lower"),
        ("observability.self_s", "s", "lower"),
        ("observability.trace_overhead", "ratio", "lower"),
    ]
)


def _quantile(values: Sequence[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def derive(table: Dict, facts: Dict[str, float], job_s: float, workers: int) -> Dict[str, float]:
    """The per-layer metrics of one traced repetition's timed phase.

    ``table`` is the merged span table of the driver and its workers,
    ``facts`` what the workload read from the program's public metrics,
    ``workers`` the number of pool workers whose tables were collected.
    """
    stats = table["stats"]
    samples = table["samples"]
    counts = table["counts"]

    def stat(name: str, index: int) -> float:
        return stats.get(name, [0, 0.0, 0.0])[index]

    values: Dict[str, float] = {}
    for metric, _unit, _better in PER_LAYER:
        if metric.endswith(".calls"):
            values[metric] = stat(metric[: -len(".calls")], 0)
        elif metric.endswith(".self_s"):
            values[metric] = stat(metric[: -len(".self_s")], 2)
        elif metric.endswith(".total_s"):
            values[metric] = stat(metric[: -len(".total_s")], 1)
        elif metric.endswith(("p50_ms", "p99_ms")):
            span = metric.rsplit(".", 1)[0]
            q = 0.5 if metric.endswith("p50_ms") else 0.99
            values[metric] = 1000.0 * _quantile(samples.get(span, []), q)
        elif metric.startswith("experiments."):
            values[metric] = facts.get(metric[len("experiments."):], 0.0)
        elif metric.startswith(("parallel.stream.", "parallel.fleet.")):
            values[metric] = facts.get(metric[len("parallel."):], 0.0)
    values["crypto.rsa.distinct_key_ratio"] = _ratio(
        counts.get("rsa.distinct_keys", 0), stat("crypto.generate_rsa_key", 0)
    )
    values["netsim.path_drop_ratio"] = _ratio(counts.get("path.drops", 0), counts.get("path.admits", 0))
    probes = counts.get("zmapquic.probes", 0)
    values["scanners.zmapquic.probe_us"] = 1e6 * _ratio(stat("scanners.zmapquic", 1), probes)
    values["scanners.zmapquic.hit_ratio"] = _ratio(counts.get("zmapquic.hits", 0), probes)
    values["scanners.qscanner.success_ratio"] = _ratio(
        counts.get("qscanner.successes", 0), stat("scanners.qscanner.scan", 0)
    )
    values["parallel.worker_busy_ratio"] = _ratio(
        stat("parallel.worker_task", 1), workers * job_s
    )
    values["warehouse.rows_per_s"] = _ratio(
        counts.get("warehouse.rows", 0), stat("warehouse.load_campaign", 1)
    )
    values["longitudinal.delta_hit_ratio"] = facts.get("delta_hit_ratio", 0.0)
    return values


def median_metrics(runs: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-metric medians over several traced repetitions."""
    return {name: statistics.median(run[name] for run in runs) for name in runs[0]}
