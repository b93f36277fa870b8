"""Spans recorded around calls into the package, from outside it.

A :class:`Tracer` replaces chosen functions of the ``bimodfusion`` modules
by module attribute with a recording wrapper, so the package's own files
stay unchanged. Every wrapped call becomes a :class:`Span` holding its
name, start, end and the id of the span that was open when it began (its
parent). Spans are kept in memory; :func:`self_times` and
:func:`outer_totals` turn them into per-layer numbers afterwards.

A function is replaced under every name that refers to it in a package
module, so ``from .mtc import s_matrix`` in one module is traced as well
as ``mtc.s_matrix`` itself. Calls inside a module that go through its
globals (``tensor(...)`` inside ``engine``) are traced too, because a
module's globals are its attributes.
"""
from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: int
    end: int
    outer: bool = True  # no enclosing span has the same name


def self_times(spans: list) -> dict:
    """Self time of each span, by id: its duration minus the part of its
    interval that its child spans cover (overlapping children count once)."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0
        lo = hi = None
        for a, b in sorted(children[s.id]):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out[s.id] = (s.end - s.start) - covered
    return out


def outer_totals(spans: list) -> Counter:
    """Time per span name, counting only spans not nested in one of the
    same name, so a recursive call is not counted twice."""
    out = Counter()
    for s in spans:
        if s.outer:
            out[s.name] += s.end - s.start
    return out


class Tracer:
    """Records a span for each call of the functions it is installed on.

    A target's ``observe`` function, ``fn(args, kwargs, result)``, is called
    after the span has ended, to record what a count needs from the call's
    arguments or result. Recording is on only while ``enabled`` is true.
    """

    def __init__(self):
        self.spans: list = []
        self.enabled = False
        self._stack: list = []
        self._open = Counter()
        self._restore: list = []

    def wrap(self, name: str, fn, observe=None):
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            span = Span(sid, self._stack[-1] if self._stack else None, name,
                        0, 0, self._open[name] == 0)
            self.spans.append(span)
            self._stack.append(sid)
            self._open[name] += 1
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                self._open[name] -= 1
                self._stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def install(self, package: str, targets) -> None:
        """Wrap each ``(module, function, observe)`` of ``package``; the span
        is named ``module.function``."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for mod_name, fn_name, observe in targets:
            original = getattr(sys.modules[f"{package}.{mod_name}"], fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original, observe)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()
