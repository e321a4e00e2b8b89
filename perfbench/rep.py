"""One repetition of one workload, in a fresh process.

``run.py`` starts this script once per repetition so every repetition
starts cold: ``repro``'s module-level campaign memo would otherwise make
every repetition after the first nearly free.  The result is written as
JSON to ``--out``:

- ``setup_s``: from ``--t0`` (the parent's ``time.monotonic()`` just
  before it started this process) to the start of the timed phase;
- ``job_s`` and ``cpu_s``: wall time and CPU time (this process plus
  its pool workers) of the timed phase;
- ``peak_rss_mb``: peak RSS of this process plus the largest worker;
- ``attempted``, ``failures`` and ``digest`` from the workload's check;
- with ``--trace 1``: the timed phase's span table and per-layer
  metrics, and the set-up phase's span table.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path.cwd() / "src"))
    from workloads import WORKLOADS, Outcome

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import layers
        from spans import Tracer, merge

        spans_dir = args.workdir / "spans"
        spans_dir.mkdir(parents=True)
        tracer = Tracer(str(spans_dir))
        entries = layers.install(tracer)

    state = workload.setup(args.seed, args.workdir)
    if tracer is not None:
        setup_table = tracer.snapshot()
        tracer.reset()
    cpu_start = _cpu_seconds()
    start = time.monotonic()
    workload.run(state)
    job_s = time.monotonic() - start
    cpu_s = _cpu_seconds() - cpu_start
    if tracer is not None:
        timed_table = tracer.snapshot()

    outcome = Outcome()
    workload.check(state, outcome)
    peak_kb = sum(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    result = {
        "setup_s": start - args.t0,
        "job_s": job_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "attempted": outcome.attempted,
        "failures": outcome.failures,
        "digest": outcome.digest.hexdigest(),
    }
    if tracer is not None:
        children = tracer.child_tables()
        table = merge([timed_table] + children)
        result["layers"] = layers.derive(
            table, state.get("facts", {}), job_s, workers=len(children)
        )
        result["table"] = table["stats"]
        result["setup_table"] = setup_table["stats"]
        result["entries"] = entries
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
