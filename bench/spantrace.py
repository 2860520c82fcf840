"""Outside-in tracer: wraps a package's public functions without editing it.

Each wrapped call records a span ``[name, start, end, parent, op, counts]``
in memory. ``parent`` is the index of the enclosing span (-1 at top level)
and ``op`` the identifier of the benchmark operation that caused it.
Because ``from .norming import norming_constant`` copies the function into
the importing module, installing a wrapper also rebinds every module-level
alias of the original in the given modules; ``uninstall`` puts all of them
back.
"""
from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

NAME, START, END, PARENT, OP, COUNTS = range(6)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.op = None
        self.enabled = False
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, name, fn, count=None):
        """Return ``fn`` wrapped so that enabled calls record a span.

        ``count(args, result)`` may return a dict of work counts for the span.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, self.clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
                if count is not None:
                    span[COUNTS] = count(args, out)
                return out
            finally:
                span[END] = self.clock()
                stack.pop()

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, targets, alias_modules, counters=None):
        """Wrap each ``(owner, attr, name)`` target and rebind its aliases.

        ``owner`` is a module or a class; a class attribute is replaced on
        the class. Every attribute of ``alias_modules`` that is the original
        object is rebound to the wrapper as well.
        """
        counters = counters or {}
        originals = {}
        for owner, attr, name in targets:
            fn = owner.__dict__[attr]
            wrapper = self.wrap(name, fn, counters.get(name))
            self._patch(owner, attr, wrapper)
            originals[id(fn)] = (fn, wrapper)
        for mod in alias_modules:
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\top\tcounts\n")
            for s in self.spans:
                counts = ",".join(f"{k}={v}" for k, v in (s[COUNTS] or {}).items())
                fh.write(f"{s[NAME]}\t{s[START]!r}\t{s[END]!r}\t{s[PARENT]}\t{s[OP]}\t{counts}\n")


def public_functions(module):
    """``(module, name)`` pairs for the public functions a module defines."""
    return [(module, name) for name, fn in vars(module).items()
            if inspect.isfunction(fn) and fn.__module__ == module.__name__
            and not name.startswith("_")]


def summarize(spans, first=0, last=None):
    """Per-name totals over ``spans[first:last]``.

    Returns ``{name: {"calls", "s", "self_s", <count keys>...}}`` where
    ``s`` is inclusive time and ``self_s`` is ``s`` minus the time covered
    by direct child spans. Parent indices refer to the full ``spans`` list.
    """
    last = len(spans) if last is None else last
    child = defaultdict(float)
    for s in spans[first:last]:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    out: dict[str, dict] = {}
    for i in range(first, last):
        s = spans[i]
        dur = s[END] - s[START]
        row = out.setdefault(s[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += dur
        row["self_s"] += dur - child[i]
        for k, v in (s[COUNTS] or {}).items():
            row[k] = row.get(k, 0) + v
    return out
