"""Span recording around qzsg's public functions, from outside the package.

A `Tracer` replaces a module or class attribute with a wrapper that records
one span per call: (id, parent id, name, run id, start ns, end ns).  Spans
go into an `array` buffer and are only turned into numpy arrays when the run
ends.  Every patched attribute is restored by `restore()`.

A wrapper only sees calls that go through the attribute it replaced, so the
caller's lookup decides what to patch: `qzsg.solvers` imports
`payoff_gradient` and `duality_gap` by name, so those are patched in
`qzsg.solvers`, while `qzsg.geometry` calls `linalg.hermitian_eig` through
the module, so that one is patched in `qzsg.linalg`.

The workloads run in one thread, so the tracer keeps one parent stack; a
call from another thread would be recorded under the wrong parent.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array

import numpy as np

_FIELDS = 5  # id, parent, meta (name | run << 16), start, end
_NO_PARENT = -1


class Tracer:
    """Records spans for patched callables; one instance per measured pass."""

    def __init__(self) -> None:
        self.run_id = 0
        self._paused = False
        self._names: list[str] = []
        self._name_index: dict[str, int] = {}
        self._next_id = 0
        self._stack: list[int] = []
        self._buffer = array("q")
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self._names)
            self._names.append(name)
        return self._name_index[name]

    def wrap(self, fn, name: str, observe=None):
        """Return `fn` wrapped in a span called `name`.

        `observe(args, kwargs, result)` runs after the span has closed, so its
        cost is charged to the caller's self time, not to `name`.
        """
        name_id = self._name_id(name)
        tracer = self
        stack = self._stack
        buf = self._buffer
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else _NO_PARENT
            span_id = tracer._next_id
            tracer._next_id += 1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                buf.extend((span_id, parent, name_id | tracer.run_id << 16, start, end))
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call `fn(*args, **kwargs)` inside a span called `name`."""
        return self.wrap(fn, name)(*args, **kwargs)

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (used for the benchmark's own checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    # -- patching ------------------------------------------------------------

    def patch(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace `owner.attr` by a traced wrapper until `restore()`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(original.__func__, name, observe))
        else:
            replacement = self.wrap(original, name, observe)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put back every patched attribute, most recent first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def spans(self) -> "Spans":
        data = np.frombuffer(self._buffer, dtype=np.int64).reshape(-1, _FIELDS).copy()
        return Spans(data, list(self._names))


class Spans:
    """Immutable table of finished spans with self times.

    A span's self time is its duration minus the durations of its children.
    """

    def __init__(self, data: np.ndarray, names: list[str]) -> None:
        order = np.argsort(data[:, 0], kind="stable")
        data = data[order]
        self.names = names
        self.ids = data[:, 0]
        self.parent = data[:, 1]
        meta = data[:, 2]
        self.name_id = meta & 0xFFFF
        self.run_id = meta >> 16
        self.start = data[:, 3]
        self.end = data[:, 4]
        self.duration = self.end - self.start
        n = len(self.ids)
        if n and not np.array_equal(self.ids, np.arange(n)):
            raise ValueError("span ids are not contiguous; a span never closed")
        self._has_parent = self.parent >= 0
        self._parent_row = np.where(self._has_parent, self.parent, 0)
        child_ns = np.bincount(
            self._parent_row[self._has_parent],
            weights=self.duration[self._has_parent],
            minlength=n,
        )
        self.self_ns = self.duration - child_ns.astype(np.int64)

    def __len__(self) -> int:
        return len(self.ids)

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self), dtype=bool)
        return self.name_id == self.names.index(name)

    def calls(self, name: str) -> int:
        return int(self.mask(name).sum())

    def self_s(self, name: str) -> float:
        return float(self.self_ns[self.mask(name)].sum()) / 1e9

    def total_s(self, name: str) -> float:
        return float(self.duration[self.mask(name)].sum()) / 1e9

    def consistency(self) -> dict:
        """Check that spans nest and that self times add up to the roots.

        Every child must lie inside its parent's interval, every self time
        must be non-negative, and the self times must sum to the duration of
        the root spans (one per unit).  Times are integer nanoseconds, so
        the tolerance is stated per span.
        """
        tolerance_ns = 1000
        pr = self._parent_row[self._has_parent]
        inside = bool(
            np.all(self.start[self._has_parent] >= self.start[pr])
            and np.all(self.end[self._has_parent] <= self.end[pr])
        )
        sum_self = int(self.self_ns.sum())
        sum_top = int(self.duration[~self._has_parent].sum())
        return {
            "spans": len(self),
            "children_inside_parents": inside,
            "min_self_ns": int(self.self_ns.min()) if len(self) else 0,
            "sum_self_s": sum_self / 1e9,
            "sum_root_s": sum_top / 1e9,
            "tolerance_s": tolerance_ns * max(len(self), 1) / 1e9,
            "ok": inside
            and (not len(self) or int(self.self_ns.min()) >= -tolerance_ns)
            and abs(sum_self - sum_top) <= tolerance_ns * max(len(self), 1),
        }

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            id=self.ids,
            parent=self.parent,
            name_id=self.name_id,
            run_id=self.run_id,
            start_ns=self.start,
            end_ns=self.end,
            names=np.array(self.names),
        )
