"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload scan-week --seed 7 --seconds 30 --trace 0

Run from the root of a checkout.  Repetitions of the workload run one
after another, each in a fresh process (``rep.py``): at least two, and
more while a typical repetition still ends within ``--seconds``.  With
``--trace 0`` the result holds the end-to-end metrics (medians over
repetitions); with ``--trace 1`` untraced and traced repetitions
alternate and the result holds the per-layer metrics of the traced ones
plus the tracing overhead.  ``--workload all`` runs every workload in
turn.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 1 when any output check failed, 2 on a usage error or when the
program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# Work files of each repetition (stage caches, sqlite files, span
# tables) live here, inside the checkout, and are removed afterwards.
WORK_ROOT = Path(".perfbench-work")
MIN_REPS = 2
# A run must end within 180 s; a repetition still running at this
# point is killed and counted as failed.
HARD_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}


def _run_rep(workload: str, seed: int, trace: int, workdir: Path, budget: float) -> Dict:
    """One repetition in a fresh process; returns its result document."""
    workdir.mkdir(parents=True)
    out = workdir / "result.json"
    log = workdir / "rep.log"
    command = [
        sys.executable, str(HERE / "rep.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
        "--workdir", str(workdir), "--out", str(out),
    ]
    with open(log, "w") as handle:
        t0 = time.monotonic()
        process = subprocess.Popen(
            command + ["--t0", repr(t0)],
            stdout=handle,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            code = process.wait(timeout=max(1.0, budget))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            # Pool workers share the repetition's process group; none
            # may outlive it.
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait()
    if code == 0 and out.exists():
        result = json.loads(out.read_text())
    else:
        reason = "timed out" if code is None else f"exited with {code}"
        tail = log.read_text()[-2000:]
        print(f"repetition {reason}:\n{tail}", file=sys.stderr)
        result = {"attempted": 1, "failures": [f"repetition {reason}"], "digest": None}
    shutil.rmtree(workdir, ignore_errors=True)
    return result


def _median(reps: List[Dict], key: str) -> float:
    return statistics.median(rep[key] for rep in reps)


def run_workload(name: str, seed: int, seconds: float, trace: int) -> Dict:
    """Repeat one workload for ``seconds``; returns the result object."""
    start = time.monotonic()
    plain: List[Dict] = []
    traced: List[Dict] = []
    failures: List[str] = []
    attempted = 0
    digests = set()
    walls: List[float] = []
    index = 0
    while True:
        elapsed = time.monotonic() - start
        # Start another repetition only if a typical one still ends
        # within the run, once the minimum count has run.
        typical = statistics.median(walls) if walls else 0.0
        if index >= MIN_REPS and elapsed + typical > seconds:
            break
        budget = HARD_LIMIT_S - elapsed
        if budget <= 0:
            attempted += 1
            failures.append("ran out of time before enough repetitions")
            break
        traced_rep = bool(trace) and index % 2 == 1
        workdir = WORK_ROOT / f"{name}-{seed}-{os.getpid()}-{index}"
        rep_start = time.monotonic()
        rep = _run_rep(name, seed, int(traced_rep), workdir, budget)
        walls.append(time.monotonic() - rep_start)
        index += 1
        attempted += rep["attempted"]
        failures.extend(rep["failures"])
        if rep["digest"] is None:
            break
        digests.add(rep["digest"])
        (traced if traced_rep else plain).append(rep)
    attempted += 1
    if len(digests) > 1:
        failures.append(f"outputs differ between repetitions: {len(digests)} digests")

    metrics: Dict[str, Dict] = {}
    if not trace and plain:
        values = {key: _median(plain, key) for key in ("setup_s", "job_s", "cpu_s", "peak_rss_mb")}
        values["success_rate"] = (attempted - len(failures)) / attempted
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END.items()}
    elif trace and plain and traced:
        import layers

        values = layers.median_metrics([rep["layers"] for rep in traced])
        values["observability.trace_overhead"] = _median(traced, "job_s") / _median(plain, "job_s")
        units = {metric: unit for metric, unit, _better in layers.PER_LAYER}
        metrics = {key: {"value": values[key], "unit": units[key]} for key in units}
    return {
        "correct": not failures and bool(metrics),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "failures": failures,
        "reps": len(plain) + len(traced),
        "last_trace": traced[-1] if traced else None,
    }


def _print_trace_table(name: str, rep: Dict) -> None:
    print(f"{name}: traced span table of the timed phase (driver and workers)")
    print(f"  {'entry':<36} {'calls':>10} {'total_s':>10} {'self_s':>10}")
    for entry, (calls, total, self_time) in sorted(
        rep["table"].items(), key=lambda item: -item[1][2]
    ):
        print(f"  {entry:<36} {calls:>10} {total:>10.4f} {self_time:>10.4f}")
    setup = rep["setup_table"]
    if setup:
        top = sorted(setup.items(), key=lambda item: -item[1][2])[:5]
        print("  set-up phase, top self time: " + ", ".join(
            f"{entry} {stat[2]:.3f}s" for entry, stat in top
        ))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so the running repetition's process group is killed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (Path("src") / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout holding src/repro", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    never_called = None
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace)
            results[name] = result
            print(f"{name}: {result['reps']} repetitions, seed {args.seed},"
                  f" {'ok' if result['correct'] else 'FAILED'} ({WORKLOADS[name].why})")
            for failure in result["failures"]:
                print(f"  check failed: {failure}")
            for metric, value in result["metrics"].items():
                print(f"  {metric:<48} {value['value']:>14.6g} {value['unit']}")
            rep = result["last_trace"]
            if rep is not None:
                _print_trace_table(name, rep)
                idle = {entry for entry in rep["entries"] if entry not in rep["table"]}
                print("  wrapped entries with zero calls: " + (", ".join(sorted(idle)) or "none"))
                never_called = idle if never_called is None else never_called & idle
    finally:
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run's files, or already gone
            pass
    if args.trace and len(names) > 1:
        print("wrapped entries with zero calls on every workload: "
              + (", ".join(sorted(never_called or ())) or "none"))

    if len(names) == 1:
        result = results[names[0]]
        metrics = result["metrics"]
    else:
        metrics = {
            f"{name}.{metric}": value
            for name, result in results.items()
            for metric, value in result["metrics"].items()
        }
    correct = all(result["correct"] for result in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(result["failed"] for result in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
