"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent).  The benchmark opens spans around
its own calls into the program and installs wrappers around the public
functions at each layer boundary, replacing the name in the module that
calls it, so the program itself is not edited.  Every span also carries
the operation it belongs to (the innermost span opened with
``op=True``), so per-layer totals can be taken per operation.

Self time is a span's duration minus the durations of its direct
children; on one thread the children cover disjoint parts of it.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np


@dataclass
class OpSpans:
    """One operation span: its duration, self time and per-name child totals."""

    name: str
    duration: float
    self_time: float
    inner: dict[str, tuple[float, int]]  # span name -> (total self time, count)

    def busy(self, layer: str) -> float:
        return sum(t for name, (t, _) in self.inner.items() if name.split(".")[0] == layer)

    def calls(self, layer: str) -> int:
        return sum(c for name, (_, c) in self.inner.items() if name.split(".")[0] == layer)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name_id: int) -> int:
        idx = len(self.end)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, op: bool = False):
        outer = self._op
        if op:
            self._op = len(self.end)  # the index begin() is about to assign
        idx = self.begin(self.name_id(name))
        try:
            yield idx
        finally:
            self.finish(idx)
            self._op = outer

    # -- wrappers ----------------------------------------------------------

    def patch(self, owner: object, attr: str, new: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span per call."""
        fn = getattr(owner, attr)
        nid = self.name_id(name)
        begin, finish = self.begin, self.finish

        def traced(*args, **kwargs):
            idx = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(idx)

        self.patch(owner, attr, traced)

    def restore(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- results -----------------------------------------------------------

    def _columns(self):
        name = np.frombuffer(self.name, dtype=np.uint16).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        op = np.frombuffer(self.op, dtype=np.int32).astype(np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        return name, parent, op, dur

    def self_times(self) -> np.ndarray:
        _, parent, _, dur = self._columns()
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        return dur - covered

    def ops(self) -> list[OpSpans]:
        """Every operation span, with the self time of what ran inside it."""
        name, _, op, dur = self._columns()
        own = self.self_times()
        idx = np.arange(len(dur))
        heads = np.flatnonzero(op == idx)
        inside = (op >= 0) & (op != idx)
        k = len(self.names)
        key = np.searchsorted(heads, op[inside]) * k + name[inside]
        size = len(heads) * k
        tot = np.bincount(key, weights=own[inside], minlength=size).reshape(-1, k)
        cnt = np.bincount(key, minlength=size).reshape(-1, k)
        out = []
        for row, h in enumerate(heads):
            inner = {self.names[j]: (float(tot[row, j]), int(cnt[row, j]))
                     for j in np.flatnonzero(cnt[row])}
            out.append(OpSpans(self.names[name[h]], float(dur[h]), float(own[h]), inner))
        return out

    def save(self, path: Path) -> None:
        name, parent, op, _ = self._columns()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), name=name.astype(np.uint16),
                 parent=parent.astype(np.int32), op=op.astype(np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))
