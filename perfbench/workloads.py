"""The benchmark's four workloads, built only on ``repro``'s public API.

Each workload is a closed-loop batch job with one client: one
repetition runs ``setup`` and then the timed ``run``, in a fresh process
(see ``rep.py``).  ``check`` runs after the timed phase and returns the
operations attempted, the ones that failed and a digest of the job's
records and artefacts, which must repeat exactly for the same seed.

Sizes are chosen so that one repetition takes about 5-14 s on two cores
and at least two fit in one benchmark run.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Tuple

__all__ = ["WORKLOADS", "Workload", "Outcome"]


@dataclass
class Outcome:
    """What ``check`` found: operations attempted, failures, digest."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def add(self, data) -> None:
        self.digest.update(data if isinstance(data, bytes) else data.encode())
        self.digest.update(b"\0")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int, Path], Dict]
    run: Callable[[Dict], None]
    check: Callable[[Dict, Outcome], None]


def _scale(divisor: int):
    from repro.internet.providers import Scale

    return Scale(addresses=divisor, ases=max(1, divisor // 50), domains=divisor)


def _check_stages(campaign, outcome: Outcome, label: str) -> None:
    for name, health in sorted(campaign.stage_health.items()):
        outcome.expect(health.status == "success", f"{label} stage {name}: {health.status}")


def campaign_facts(campaign) -> Dict[str, float]:
    """Per-stage wall times and streaming counters from public metrics."""
    from repro.observability.metrics import parse_metric_key

    snapshot = campaign.metrics.snapshot()
    facts: Dict[str, float] = {}
    for key, value in snapshot["gauges"].items():
        name, labels = parse_metric_key(key)
        if name == "campaign.stage_seconds":
            facts[f"stage_s.{labels['stage']}"] = float(value)
        elif name.startswith("stream."):
            facts[name] = float(value)
    for key, value in snapshot["counters"].items():
        name, _labels = parse_metric_key(key)
        if name.startswith("stream."):
            facts[name] = facts.get(name, 0.0) + float(value)
    return facts


# -- paper-artefacts -----------------------------------------------------------
#
# The week-spanning figures default to 5-8 weekly worlds each, and one
# world costs about 2 s of RSA keygen at any scale, so the default weeks
# would make one repetition ~35 s.  The figures get a two-week series
# instead; every artefact still runs, with its own code path, and the
# timed phase still builds two worlds (week 16 here, week 31 in A3).
ARTEFACT_SCALE = 100000
FIGURE_WEEKS = (16, 18)


def _artefacts_setup(seed: int, workdir: Path) -> Dict:
    from repro.cli import EXPERIMENTS
    from repro.experiments import get_campaign

    campaign = get_campaign(week=18, scale=_scale(ARTEFACT_SCALE), seed=seed)
    campaign.world
    return {"campaign": campaign, "experiments": EXPERIMENTS}


def _artefacts_run(state: Dict) -> None:
    campaign = state["campaign"]
    rendered: List[Tuple[str, int, str]] = []
    seconds: Dict[str, float] = {}
    for artefact_id, runner in state["experiments"].items():
        start = time.perf_counter()
        if artefact_id in ("F3", "F5", "F6", "F7"):
            result = runner(campaign, weeks=FIGURE_WEEKS)
        else:
            result = runner(campaign)
        rendered.append((artefact_id, len(result.rows), result.render()))
        seconds[artefact_id] = time.perf_counter() - start
    state["rendered"] = rendered
    state["facts"] = {f"artefact_s.{key}": value for key, value in seconds.items()}


def _artefacts_check(state: Dict, outcome: Outcome) -> None:
    campaign = state["campaign"]
    outcome.expect(len(state["rendered"]) == 20, "20 artefacts rendered")
    for artefact_id, rows, text in state["rendered"]:
        outcome.expect(rows > 0, f"artefact {artefact_id} has rows")
        outcome.add(text)
    _check_stages(campaign, outcome, "week 18")
    state["facts"].update(campaign_facts(campaign))


# -- scan-week -----------------------------------------------------------------
SCAN_SCALE = 5000
SCAN_WORKERS = 2


def _scan_setup(seed: int, workdir: Path) -> Dict:
    from repro.experiments.campaign import Campaign, CampaignConfig

    campaign = Campaign(
        CampaignConfig(week=18, scale=_scale(SCAN_SCALE), seed=seed),
        workers=SCAN_WORKERS,
    )
    campaign.world
    return {"campaign": campaign}


def _scan_run(state: Dict) -> None:
    campaign = state["campaign"]
    try:
        state["counts"] = campaign.run_all_stages()
    finally:
        campaign.close()


def _scan_check(state: Dict, outcome: Outcome) -> None:
    from repro.scanners.io import dump_record

    campaign = state["campaign"]
    _check_stages(campaign, outcome, "week 18")
    outcome.expect(len(campaign.stage_health) == 14, "14 stages ran")
    for stage in sorted(state["counts"]):
        records = campaign.all_dns_records if stage == "dns" else getattr(campaign, stage)
        outcome.add(stage)
        for record in records:
            try:
                outcome.add(json.dumps(dump_record(record), sort_keys=True))
            except TypeError:  # SYN records have no JSON form; their repr is exact
                outcome.add(repr(record))
    state["facts"] = campaign_facts(campaign)


# -- series-warehouse ----------------------------------------------------------
SERIES_SCALE = 200000
SERIES_WEEKS = (17, 18)


def _series_setup(seed: int, workdir: Path) -> Dict:
    from repro.longitudinal import LongitudinalScheduler, SeriesConfig
    from repro.warehouse import connect
    from repro.warehouse.queries import MATRIX_REPORTS, REPORTS, RUN_REPORTS, named_report

    config = SeriesConfig(
        weeks=SERIES_WEEKS,
        scale=_scale(SERIES_SCALE),
        seed=seed,
        cache_dir=workdir / "stage-cache",
    )
    conn = connect(workdir / "series.sqlite")
    return {
        "scheduler": LongitudinalScheduler(config),
        "conn": conn,
        "named_report": named_report,
        "run_reports": RUN_REPORTS,
        "campaign_reports": [
            name for name in REPORTS if name not in RUN_REPORTS + MATRIX_REPORTS
        ],
    }


def _series_run(state: Dict) -> None:
    conn = state["conn"]
    named_report = state["named_report"]
    result = state["scheduler"].run(conn)
    reports: List[Tuple[str, object]] = []
    for name in state["run_reports"]:
        reports.append((name, named_report(conn, name, campaign_id=result.run_id)))
    for week in result.weeks:
        for name in state["campaign_reports"]:
            reports.append(
                (f"{name}@{week.week}", named_report(conn, name, campaign_id=week.campaign_id))
            )
    state["result"] = result
    state["reports"] = [(name, report.rows, report.render()) for name, report in reports]


def _series_check(state: Dict, outcome: Outcome) -> None:
    result = state["result"]
    conn = state["conn"]
    outcome.expect(
        [week.week for week in result.weeks] == list(SERIES_WEEKS), "every week scheduled"
    )
    for week in result.weeks:
        outcome.expect(week.status == "complete", f"week {week.week}: {week.status}")
    for check, stage, status in conn.execute(
        "SELECT check_name, stage, status FROM qa_results ORDER BY rowid"
    ):
        outcome.expect(status == "pass", f"warehouse QA {check} on {stage}")
    for name, rows, text in state["reports"]:
        outcome.expect(bool(rows) or name.startswith("churn"), f"report {name} has rows")
        outcome.add(text)
    conn.close()
    hits = sum(week.delta_hits for week in result.weeks)
    misses = sum(week.delta_misses for week in result.weeks)
    state["facts"] = {"delta_hit_ratio": hits / (hits + misses) if hits + misses else 0.0}


# -- matrix-fleet --------------------------------------------------------------
MATRIX_SCALE = 200000
MATRIX_GRID = (2, 2)
FLEET_JOBS = 2


def _matrix_setup(seed: int, workdir: Path) -> Dict:
    from repro.experiments.matrix import MatrixConfig, grid_cells, run_matrix
    from repro.warehouse import connect
    from repro.warehouse.queries import named_report

    matrix = MatrixConfig(
        cells=tuple(grid_cells(*MATRIX_GRID)),
        scale=_scale(MATRIX_SCALE),
        seed=seed,
    )
    path = workdir / "matrix.sqlite"
    return {
        "matrix": matrix,
        "conn": connect(path),
        "path": path,
        "run_matrix": run_matrix,
        "named_report": named_report,
    }


def _matrix_run(state: Dict) -> None:
    result = state["run_matrix"](state["matrix"], state["conn"], fleet_jobs=FLEET_JOBS)
    # What `repro matrix` prints when it is done.
    state["heatmap"] = state["named_report"](state["conn"], "matrix", campaign_id=result.matrix_id)
    state["result"] = result


def _matrix_check(state: Dict, outcome: Outcome) -> None:
    named_report = state["named_report"]
    result = state["result"]
    conn = state["conn"]
    outcome.expect(
        len(result.cells) == MATRIX_GRID[0] * MATRIX_GRID[1], "every cell loaded"
    )
    for cell in result.cells:
        outcome.attempted += len(cell.load.qa)
        outcome.failures.extend(
            f"cell {cell.cell.cell_id} QA {check.check}" for check in cell.load.qa_failures
        )
    outcome.attempted += len(result.qa)
    outcome.failures.extend(f"matrix QA {check.check}" for check in result.qa_failures)
    cells = named_report(conn, "matrix-cells", campaign_id=result.matrix_id)
    for name, report in (("matrix", state["heatmap"]), ("matrix-cells", cells)):
        outcome.expect(bool(report.rows), f"report {name} has rows")
        outcome.add(report.render())
    conn.close()
    outcome.add(state["path"].read_bytes())
    telemetry = result.fleet_telemetry or {}
    state["facts"] = {
        f"fleet.{name}": float(telemetry.get(key, 0.0))
        for name, key in (
            ("world_builds", "world_builds"),
            ("world_reuse_hits", "world_reuse_hits"),
            ("pool_respawns", "pool_respawns"),
            ("scan_s", "scan_seconds"),
            ("load_s", "load_seconds"),
            ("overlap_ratio", "overlap_ratio"),
        )
    }


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "paper-artefacts",
            "the job users run most: RSA keygen for two more weekly worlds and the "
            "stateless sweeps dominate; no sqlite, no worker pool",
            _artefacts_setup,
            _artefacts_run,
            _artefacts_check,
        ),
        Workload(
            "scan-week",
            "the hot scan path (scanners, QUIC, TLS, non-keygen crypto, netsim, "
            "parallel.stream) with the world built in set-up, so keygen is bypassed",
            _scan_setup,
            _scan_run,
            _scan_check,
        ),
        Workload(
            "series-warehouse",
            "sqlite writes and reads beside two world builds and a delta merge that "
            "shares work between weeks",
            _series_setup,
            _series_run,
            _series_check,
        ),
        Workload(
            "matrix-fleet",
            "the only workload for parallel.fleet (world sharing, persistent pool, "
            "ordered commits) and netsim.paths shaping",
            _matrix_setup,
            _matrix_run,
            _matrix_check,
        ),
    )
}
