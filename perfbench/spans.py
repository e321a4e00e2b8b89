"""In-memory span tables for the benchmark's traced run.

:class:`Tracer` replaces functions of the program with wrappers that
record, per entry name, the call count, the total time and the self
time.  Self time is a span's duration minus the time spent in wrapped
children, tracked with a stack per thread.  Nothing is written until the
run ends.

Forked pool workers inherit the wrappers.  A child starts with empty
tables and writes them to ``<out_dir>/child-<pid>.json`` when it exits
through :mod:`multiprocessing`'s normal shutdown; the parent merges
those files with :func:`merge`.

A recursive entry adds every activation to its ``total_s``; its
``self_s`` stays exact.
"""

from __future__ import annotations

import json
import os
import re
import sys
import threading
import time
import types
from multiprocessing import util as mp_util
from typing import Callable, Dict, Iterable, List, Optional

__all__ = ["Tracer", "merge", "valid_metric_name"]

_METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def valid_metric_name(name: str) -> bool:
    """Whether ``name`` is a legal metric name (``[A-Za-z0-9_.-]+``)."""
    return bool(_METRIC_NAME.fullmatch(name))


class _Table:
    """One thread's spans: entry stats, span samples and counters."""

    __slots__ = ("stack", "stats", "samples", "counts")

    def __init__(self) -> None:
        self.stack: List[float] = []  # time spent in wrapped children, per open span
        self.stats: Dict[str, List[float]] = {}  # name -> [calls, total_s, self_s]
        self.samples: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}

    def as_dict(self) -> Dict:
        return {"stats": self.stats, "samples": self.samples, "counts": self.counts}


class Tracer:
    """Wraps functions and keeps their span tables in memory."""

    def __init__(self, out_dir: str, clock: Callable[[], float] = time.perf_counter):
        self.out_dir = out_dir
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: List[_Table] = []
        self._entries: Dict[str, int] = {}  # entry name -> bindings replaced
        # The child inherits the forking thread's open spans and every
        # thread's totals; it must report only its own work.
        os.register_at_fork(after_in_child=self.reset)
        mp_util.register_after_fork(self, Tracer._dump_at_exit)

    # -- recording -----------------------------------------------------------
    def _table(self) -> _Table:
        table = getattr(self._local, "table", None)
        if table is None:
            table = self._local.table = _Table()
            with self._lock:
                self._tables.append(table)
        return table

    def wrap(
        self,
        name: str,
        fn: Callable,
        sample: bool = False,
        observe: Optional[Callable] = None,
    ) -> Callable:
        """A wrapper of ``fn`` recording its spans under ``name``.

        ``sample`` keeps every span's duration (for percentiles);
        ``observe(counts, args, kwargs, result)`` runs after each call
        that returns and may add to the thread's counters.
        """
        table_of = self._table
        clock = self._clock

        def wrapper(*args, **kwargs):
            table = table_of()
            stack = table.stack
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += span
                stat = table.stats.get(name)
                if stat is None:
                    stat = table.stats[name] = [0, 0.0, 0.0]
                stat[0] += 1
                stat[1] += span
                stat[2] += span - children
                if sample:
                    table.samples.setdefault(name, []).append(span)
            if observe is not None:
                observe(table.counts, args, kwargs, result)
            return result

        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(wrapper, attr, getattr(fn, attr, None))
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------------
    def install(
        self,
        name: str,
        owner: object,
        attr: str,
        modules: Iterable[types.ModuleType],
        sample: bool = False,
        observe: Optional[Callable] = None,
    ) -> int:
        """Wrap ``owner.attr`` and every binding of it in ``modules``.

        A module that did ``from X import f`` calls its own binding, so
        each module attribute (and module-level dict value) that *is*
        the original function is replaced too.  Returns the number of
        bindings replaced; ``0`` means nothing will ever be recorded.
        """
        original = getattr(owner, attr)
        wrapper = self.wrap(name, original, sample=sample, observe=observe)
        replaced = 0
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            replaced += 1
        for module in modules:
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapper
                    replaced += 1
                elif type(value) is dict:
                    for dict_key, item in list(value.items()):
                        if item is original:
                            value[dict_key] = wrapper
                            replaced += 1
        self._entries[name] = self._entries.get(name, 0) + replaced
        return replaced

    @property
    def entries(self) -> Dict[str, int]:
        """Installed entry names and the bindings replaced for each."""
        return dict(self._entries)

    # -- reading ---------------------------------------------------------------
    def snapshot(self) -> Dict:
        """This process's tables merged across threads (a deep copy)."""
        with self._lock:
            tables = [table.as_dict() for table in self._tables]
        return merge(tables)

    def reset(self) -> None:
        """Forget every span recorded so far in this process."""
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables = []

    # -- fork handling ---------------------------------------------------------
    def _dump_at_exit(self) -> None:
        # Runs in a multiprocessing child after its finalizer registry is
        # cleared, so the finalizer below fires on the child's own exit.
        mp_util.Finalize(None, self._dump_child, exitpriority=100)

    def _dump_child(self) -> None:
        path = os.path.join(self.out_dir, f"child-{os.getpid()}.json")
        try:
            with open(path + ".tmp", "w") as handle:
                json.dump(self.snapshot(), handle)
            os.replace(path + ".tmp", path)
        except OSError as error:  # a lost child table must not kill the worker
            print(f"perfbench: cannot write {path}: {error}", file=sys.stderr)

    def child_tables(self) -> List[Dict]:
        """Tables written by children that have exited."""
        tables = []
        for entry in sorted(os.listdir(self.out_dir)):
            if entry.startswith("child-") and entry.endswith(".json"):
                with open(os.path.join(self.out_dir, entry)) as handle:
                    tables.append(json.load(handle))
        return tables


def merge(tables: Iterable[Dict]) -> Dict:
    """Sum span tables: stats and counters add, samples concatenate."""
    stats: Dict[str, List[float]] = {}
    samples: Dict[str, List[float]] = {}
    counts: Dict[str, float] = {}
    for table in tables:
        for name, (calls, total, self_time) in table["stats"].items():
            stat = stats.setdefault(name, [0, 0.0, 0.0])
            stat[0] += calls
            stat[1] += total
            stat[2] += self_time
        for name, values in table["samples"].items():
            samples.setdefault(name, []).extend(values)
        for name, value in table["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return {"stats": stats, "samples": samples, "counts": counts}
