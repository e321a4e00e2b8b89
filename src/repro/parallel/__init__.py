"""Parallel execution of campaign scan stages.

Every parallel scan runs on the streaming :class:`StreamEngine`: each
stage's serial work list is cut into contiguous chunks whose records
flow between stages as a dataflow (see :mod:`repro.parallel.stream`).
:mod:`repro.parallel.engine` holds the fork-shared worlds and worker
replicas, :mod:`repro.parallel.fleet` runs many campaigns on one pool.
"""

from repro.parallel.stream import StreamEngine, run_streaming

__all__ = ["StreamEngine", "run_streaming"]
