"""Fork-shared worlds and worker replicas for the parallel scan paths.

The streaming engine (:mod:`repro.parallel.stream`) and the fleet
scheduler (:mod:`repro.parallel.fleet`) run campaign chunks on process
pools.  This module holds what both share:

- **fork-shared worlds** — the parent builds the simulated world once
  and publishes it in ``_FORK_SHARED`` while a pool forks; workers
  adopt the snapshot copy-on-write instead of spending ~world-build
  time each rebuilding a replica.  On platforms without ``fork`` the
  worker falls back to rebuilding from the campaign configuration.
- **worker replicas** — each worker of a dedicated campaign pool keeps
  one :class:`~repro.experiments.campaign.Campaign` replica bound to
  that world (:func:`_replica`) for the pool's lifetime.
- **pool lifecycle** — :func:`fork_pool` and the graceful
  :func:`close_pool` drain.
"""

from __future__ import annotations

import dataclasses
import hashlib
import multiprocessing
import os
import sys
import time
from typing import Dict, Mapping, Tuple

__all__ = [
    "close_pool",
    "default_worker_count",
    "fork_pool",
    "world_digest",
    "world_key",
]

# Worker-process state.  The campaign configuration arrives through
# the pool initializer; the world replica is built (or adopted from the
# fork snapshot) lazily on the first task so pool startup stays cheap.
_WORKER_CONFIG = None
_WORKER_CAMPAIGN = None

# Parent-side fork registry: world snapshots published just before a
# pool forks so children inherit the built worlds copy-on-write,
# keyed by :func:`world_digest`.  Each entry is ``(tag, world)`` where
# ``tag`` is either the exact campaign configuration the world was
# built (and profiled) for, or the fleet's pristine sentinel
# (:data:`repro.parallel.fleet.PRISTINE`) marking a profile-free world
# that any configuration sharing the digest may adopt after applying
# its own fault/path profiles.  Spawn children re-import this module
# and see an empty registry, falling back to a rebuild from the
# configuration.
_FORK_SHARED: Dict[str, Tuple[object, object]] = {}


def world_key(config) -> Tuple:
    """The world-shaping subset of a campaign configuration.

    Two configurations with equal world keys build byte-identical
    simulated Internets: fault and path profiles are applied *after*
    the build and deliberately stay out of the key — that is what lets
    a fleet share one world snapshot across a whole scenario matrix.
    """
    return (
        "world",
        config.week,
        dataclasses.astuple(config.scale),
        config.seed,
        config.fast_crypto,
    )


def world_digest(config) -> str:
    """Deterministic digest naming a world snapshot in ``_FORK_SHARED``."""
    return hashlib.sha256(repr(world_key(config)).encode()).hexdigest()[:16]


def default_worker_count() -> int:
    """Worker count from ``REPRO_WORKERS`` or the CPU count."""
    env = os.environ.get("REPRO_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            print(
                f"warning: ignoring invalid REPRO_WORKERS value {env!r};"
                " falling back to the CPU count",
                file=sys.stderr,
            )
    return os.cpu_count() or 1


def _init_worker(config) -> None:
    global _WORKER_CONFIG, _WORKER_CAMPAIGN
    _WORKER_CONFIG = config
    _WORKER_CAMPAIGN = None


def _replica():
    """The per-process campaign replica.

    Forked workers adopt the parent's world snapshot (copy-on-write;
    the guard on the configuration protects against a stale module
    global from an earlier pool).  Spawned workers — or forks whose
    snapshot is missing — rebuild the world deterministically from the
    configuration.
    """
    global _WORKER_CAMPAIGN
    if _WORKER_CAMPAIGN is None:
        from repro.experiments.campaign import Campaign

        entry = _FORK_SHARED.get(world_digest(_WORKER_CONFIG))
        world = None
        if entry is not None and entry[0] == _WORKER_CONFIG:
            world = entry[1]
        _WORKER_CAMPAIGN = Campaign(_WORKER_CONFIG, world=world)
    return _WORKER_CAMPAIGN


def _run_shard(task):
    # Kept only because perfbench/layers.py looks this name up; the
    # barrier engine it belonged to is gone.
    raise NotImplementedError("the barrier scan engine was removed")


def fork_pool(
    processes: int,
    initializer,
    initargs: Tuple,
    shared: Mapping[str, Tuple[object, object]],
):
    """Fork a worker pool that inherits ``shared`` world snapshots.

    ``shared`` maps world digests to ``(tag, world)`` entries; they sit
    in ``_FORK_SHARED`` only while ``Pool()`` forks its workers (which
    it does synchronously), so children keep their fork-time copy and
    the parent's registry is empty again right after.
    """
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        context = multiprocessing.get_context("spawn")
    published = [digest for digest in shared if digest not in _FORK_SHARED]
    for digest in published:
        _FORK_SHARED[digest] = shared[digest]
    try:
        return context.Pool(
            processes=processes, initializer=initializer, initargs=initargs
        )
    finally:
        for digest in published:
            _FORK_SHARED.pop(digest, None)


def close_pool(pool, timeout: float = 10.0) -> None:
    """Shut a pool down, letting in-flight tasks finish.

    ``close()`` + ``join()`` lets workers drain gracefully (a terminate
    can kill a worker mid-write); workers still alive after ``timeout``
    seconds are terminated.
    """
    pool.close()
    workers = list(getattr(pool, "_pool", ()))
    deadline = time.monotonic() + timeout
    while any(p.is_alive() for p in workers) and time.monotonic() < deadline:
        time.sleep(0.02)
    if any(p.is_alive() for p in workers):
        pool.terminate()
    pool.join()
