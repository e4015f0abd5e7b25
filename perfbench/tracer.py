"""Spans recorded around calls into snewt's layers, from outside the package.

A Tracer replaces module attributes and class attributes, looked up by
name at run time, with wrappers that record one span per call: a span-name
id, a start and an end (``perf_counter_ns``) and the index of the enclosing
span.  Spans stay in flat in-memory arrays while the program runs and are
reduced (and optionally written out) only at the end.  A layer's self time
is the duration of its spans minus the time covered by their child spans.

Targets are written ``"module:attr"`` or ``"module:Class.attr"``.  A target
that no longer exists (a refactor renamed or removed it) is skipped with a
warning and listed in ``missing``; the run goes on without that span.
"""

from __future__ import annotations

import functools
import importlib
import time
import warnings
from array import array
from typing import Callable, Dict, List, Optional, Tuple

_now = time.perf_counter_ns

# A count is (counter name, factory); factory(original function) returns a
# hook(args, kwargs) -> int that is added to the counter on every call.
CountHook = Callable[[tuple, dict], int]
Count = Tuple[str, Callable[[Callable], CountHook]]


class Tracer:
    """Span recorder plus the attribute patches that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counts: Dict[str, int] = {}
        self.missing: List[str] = []
        self._patches: List[Tuple[object, str, object]] = []

    # ---- recording -------------------------------------------------------

    def _id(self, span: str) -> int:
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        return self._ids[span]

    def call(self, nid: int, fn, args, kwargs):
        """Run fn(*args, **kwargs) inside one span with name id nid."""
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(i)
        self.start.append(_now())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[i] = _now()
            self._stack.pop()

    def span(self, span: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside one span named span."""
        return self.call(self._id(span), fn, args, kwargs)

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def make_wrapper(self, span: str, fn, count: Optional[Count] = None):
        nid = self._id(span)
        call = self.call
        if count is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return call(nid, fn, args, kwargs)
        else:
            cname, factory = count
            hook = factory(fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.count(cname, hook(args, kwargs))
                return call(nid, fn, args, kwargs)
        return wrapper

    # ---- patching --------------------------------------------------------

    def _resolve(self, target: str):
        modname, _, path = target.partition(":")
        *owners, attr = path.split(".")
        try:
            owner = importlib.import_module(modname)
            for name in owners:
                owner = getattr(owner, name)
            original = (owner.__dict__[attr] if isinstance(owner, type)
                        else getattr(owner, attr))
        except (ImportError, AttributeError, KeyError):
            if target not in self.missing:
                self.missing.append(target)
                warnings.warn(f"trace target {target} not found; span dropped",
                              RuntimeWarning, stacklevel=3)
            return None
        return owner, attr, original

    def patch(self, target: str, replacement_for: Callable[[object], object]) -> bool:
        """Replace target by replacement_for(original); False if missing."""
        found = self._resolve(target)
        if found is None:
            return False
        owner, attr, original = found
        setattr(owner, attr, replacement_for(original))
        self._patches.append((owner, attr, original))
        return True

    def wrap(self, target: str, span: str, count: Optional[Count] = None) -> bool:
        return self.patch(target, lambda fn: self.make_wrapper(span, fn, count))

    def wrap_generators(self, target: str, span: str) -> bool:
        """Time every draw on the generators an RngStreams factory hands out.

        target names an RngStreams-like class whose from_seed(seed) returns
        a tuple of numpy Generators; the module attribute is replaced by a
        shim whose from_seed returns the same tuple type over timed proxies.
        """
        nid = self._id(span)
        tracer = self

        def shim_for(cls):
            class TimedStreams:
                @staticmethod
                def from_seed(seed):
                    streams = cls.from_seed(seed)
                    return type(streams)(*(_TimedGenerator(g, tracer, nid)
                                           for g in streams))
            return TimedStreams
        return self.patch(target, shim_for)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ---- reduction -------------------------------------------------------

    def self_times(self, root: str) -> Tuple[Dict[str, float], Dict[str, int], float]:
        """Self seconds and call counts per span name inside root spans.

        Returns (self_s by name, calls by name, total root duration in s).
        Only spans nested under a span named root count.
        """
        import numpy as np

        n = len(self.start)
        if n == 0 or root not in self._ids:
            return {}, {}, 0.0
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64))
        # spans are appended in start order, so a parent index is always
        # smaller than its child's: one forward pass marks root descendants
        rid = self._ids[root]
        inside = name_id == rid
        for i in range(n):
            p = parent[i]
            if p >= 0 and inside[p]:
                inside[i] = True
        child = np.zeros(n, dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        sel = inside
        k = len(self.names)
        self_ns = np.bincount(name_id[sel], weights=own[sel], minlength=k)
        calls = np.bincount(name_id[sel], minlength=k)
        root_ns = dur[name_id == rid].sum()
        return ({self.names[j]: float(self_ns[j]) * 1e-9 for j in range(k)},
                {self.names[j]: int(calls[j]) for j in range(k)},
                float(root_ns) * 1e-9)

    def dump(self, path: str) -> None:
        """Write the spans as an .npz: names, name_id, parent, start, end."""
        import numpy as np

        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start_ns=np.frombuffer(self.start, dtype=np.int64),
                 end_ns=np.frombuffer(self.end, dtype=np.int64))


class _TimedGenerator:
    """Proxy for a numpy Generator that records one span per method call."""

    def __init__(self, gen, tracer: Tracer, nid: int):
        self._gen = gen
        self._tracer = tracer
        self._nid = nid

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if not callable(attr):
            return attr
        tracer, nid = self._tracer, self._nid

        def timed(*args, **kwargs):
            return tracer.call(nid, attr, args, kwargs)
        self.__dict__[name] = timed
        return timed
