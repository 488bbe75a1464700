"""In-process span tracing for the benchmark's traced run.

The tracer wraps a program's functions at the names their callers look
them up by (a module attribute such as ``telegraphsim.runner.step`` or a
class attribute such as ``EpochTemplate.sample_hit``), so the program's
sources stay untouched. Each wrapped call records one span: name, start,
end, parent span and trajectory id. Spans live in flat arrays in memory
and are written out once, at the end. A layer's self time is the sum of
its spans' durations minus the time covered by their direct children.

A name that no longer exists is recorded as missing instead of failing,
so a later refactor that renames a layer leaves the rest measurable.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Optional


class Tracer:
    """Span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.traj = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._requested: set[str] = set()
        self._found: set[str] = set()
        self._broken: set[str] = set()
        self._stack: list[int] = []
        self._traj = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.traj.append(self._traj)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float) -> None:
        self.end[idx] = time.perf_counter()
        self.start[idx] = t0
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """An explicit span around a block, e.g. one CLI invocation."""
        idx = self._open(self._name_id(name))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, t0)

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- patching -------------------------------------------------------

    def patch(
        self,
        target: str,
        name: str,
        on_result: Optional[Callable[["Tracer", object], None]] = None,
        traj_of: Optional[Callable[[tuple], int]] = None,
    ) -> None:
        """Wrap ``module:attr`` or ``module:Class.attr`` in a span called ``name``.

        ``on_result`` turns the return value into counts; ``traj_of``
        maps the call's arguments to the trajectory id its spans carry.
        """
        found = self._lookup(target)
        self._requested.add(name)
        if found is None:
            return
        self._found.add(name)
        owner, attr, fn = found
        nid = self._name_id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            outer_traj = tracer._traj
            if traj_of is not None:
                tracer._traj = traj_of(args)
            idx = tracer._open(nid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, t0)
                tracer._traj = outer_traj
            if on_result is not None:
                try:
                    on_result(tracer, result)
                except (AttributeError, TypeError, IndexError):
                    tracer._broken.add(name)
            return result

        self._install(owner, attr, fn, wrapper)

    def count_calls(self, target: str, counter: str) -> None:
        """Count calls of ``target`` without recording spans (for hot constructors)."""
        found = self._lookup(target)
        self._requested.add(counter)
        if found is None:
            return
        self._found.add(counter)
        owner, attr, fn = found
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        self._install(owner, attr, fn, wrapper)

    def _install(self, owner, attr: str, fn, wrapper) -> None:
        wrapper.__wrapped__ = fn
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, fn))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    @staticmethod
    def _lookup(target: str):
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return None
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        if isinstance(owner, type):
            # Class attributes are read from the class dict so that a plain
            # function stays a function (and becomes a method again once set).
            fn = owner.__dict__.get(attr)
        else:
            fn = getattr(owner, attr, None)
        if not callable(fn):
            return None
        return owner, attr, fn

    # -- results ----------------------------------------------------------

    @property
    def missing(self) -> set[str]:
        """Names found at none of their call sites, or whose results no longer parse."""
        return (self._requested - self._found) | self._broken

    def __len__(self) -> int:
        return len(self.start)

    def summary(self, first: int = 0, last: Optional[int] = None) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds.

        ``first``/``last`` select a contiguous range of spans, such as one
        CLI invocation; a span's children always lie in the same range.
        """
        last = len(self.start) if last is None else last
        child = [0.0] * (last - first)
        for i in range(first, last):
            p = self.parent[i]
            if p >= first:
                child[p - first] += self.end[i] - self.start[i]
        out: dict[str, dict] = {}
        for i in range(first, last):
            dur = self.end[i] - self.start[i]
            agg = out.setdefault(self.names[self.name_of[i]], {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += dur
            agg["self_s"] += dur - child[i - first]
        return out

    def write(self, path: Path) -> None:
        """Write every span as one tab-separated line, times relative to the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        names = self.names
        lines = ["span\tparent\tname\ttrajectory\tstart_s\tend_s\n"]
        for i in range(len(self.start)):
            lines.append(
                f"{i}\t{self.parent[i]}\t{names[self.name_of[i]]}\t{self.traj[i]}"
                f"\t{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n"
            )
        Path(path).write_text("".join(lines), encoding="utf-8")
