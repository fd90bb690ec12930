"""In-memory span tracer that times calls into amcmc's public functions.

Spans carry a name, start, end, parent span and run id.  They are kept in a
list and handed out when the run ends; nothing is written while the workload
runs.  The tracer wraps functions from outside: it replaces a module
attribute by a timing wrapper, and because ``from .x import y`` copies the
binding, it replaces every other binding of the same object inside the
package too.  Per-step callables (``scheme.step`` and the helpers it calls)
are deliberately never wrapped: a 3-25 us step would be swamped by the
wrapper.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    run_id: str = ""
    attrs: dict = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus the time covered by direct child spans."""
        return self.duration - self.child_s


def kernel_key(P, *args, **kwargs) -> dict:
    """Content key of a kernel argument, so repeated solves of one kernel show."""
    rows = np.ascontiguousarray(getattr(P, "rows", P))
    return {"kernel": hashlib.blake2b(rows.data, digest_size=12).hexdigest()}


class NullTracer:
    """Stands in for ``Tracer`` in untraced runs."""

    def span(self, name: str, **attrs):
        return nullcontext()


class Tracer:
    """Collects nested spans of one single-threaded run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.missing: list[str] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        sp = Span(name=name, start=0.0, parent=parent, run_id=self.run_id, attrs=attrs)
        self.spans.append(sp)
        idx = len(self.spans) - 1
        self._stack.append(idx)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_s += sp.duration

    def wrap(self, name: str, fn, key=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = key(*args, **kwargs) if key is not None else {}
            with self.span(name, **attrs):
                return fn(*args, **kwargs)

        return traced

    def install(self, package: str, targets) -> None:
        """Wrap each ``(module, attribute, key)`` target of ``package``.

        ``attribute`` may be ``"Class.__init__"`` to time construction.  A
        target missing on this commit is recorded in ``missing`` and skipped.
        """
        loaded = [m for name, m in list(sys.modules.items())
                  if m is not None and (name == package or name.startswith(package + "."))]
        for module, attr, key in targets:
            mod = sys.modules.get(f"{package}.{module}")
            owner_name, _, method = attr.partition(".")
            owner = getattr(mod, owner_name, None) if mod is not None else None
            if owner is None or (method and not hasattr(owner, method)):
                self.missing.append(f"{module}.{attr}")
                continue
            if method:
                wrapper = self.wrap(f"{module}.{owner_name}", getattr(owner, method), key)
                setattr(owner, method, wrapper)
                continue
            wrapper = self.wrap(f"{module}.{attr}", owner, key)
            for m in loaded:
                for binding, value in list(vars(m).items()):
                    if value is owner:
                        setattr(m, binding, wrapper)

    def totals(self) -> dict:
        """Per span name: summed duration, summed self time and call count."""
        out: dict[str, dict] = {}
        for sp in self.spans:
            t = out.setdefault(sp.name, {"s": 0.0, "self_s": 0.0, "calls": 0, "keys": set()})
            t["s"] += sp.duration
            t["self_s"] += sp.self_s
            t["calls"] += 1
            if "kernel" in sp.attrs:
                t["keys"].add(sp.attrs["kernel"])
        return out
