"""Timing wrappers installed from outside the package under test.

Each named function is replaced by a wrapper that records its call count
and self time: the span's duration minus the durations of the wrapped
calls made inside it. The spans nest on one stack, so the process must be
single-threaded while a tracer is installed (the CLI runs with
``--jobs 1``).

Modules import each other's functions by name, so a wrapper is also put
in place of every alias of the original in the traced modules. A name
that no longer exists is reported as missing instead of failing the run.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    # what the call returned, for keys with an outcome function
    outcomes: Counter = field(default_factory=Counter)


class Tracer:
    def __init__(self, clock=time.perf_counter, split=None, outcome=None):
        self.clock = clock
        # key -> function(args, kwargs) giving a suffix for a sub-key
        self.split = split or {}
        # key -> function(result) counted into Stat.outcomes
        self.outcome = outcome or {}
        self.stats: dict[str, Stat] = {}
        # "key.suffix" -> Stat for keys with a split function; not in stats
        self.parts: dict[str, Stat] = {}
        self.missing: list[str] = []
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, key: str, fn):
        split = self.split.get(key)
        outcome = self.outcome.get(key)
        clock, stack, stats, parts = self.clock, self._stack, self.stats, self.parts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                recs = [stats.setdefault(key, Stat())]
                if split:
                    recs.append(parts.setdefault(f"{key}.{split(args, kwargs)}", Stat()))
                for st in recs:
                    st.calls += 1
                    st.self_s += dur - children[0]
                    if outcome:
                        st.outcomes[outcome(result)] += 1

        return wrapper

    def install(self, modules: dict, names) -> list[str]:
        """Wrap each named callable and every alias of it in ``modules``.

        ``modules`` maps layer names to modules; a name is "layer.attr" or
        "layer.Class.attr" and is also the key its stats are kept under.
        Names that cannot be found are added to ``self.missing`` and
        returned.
        """
        replaced: dict[int, object] = {}
        for dotted in names:
            layer, *path = dotted.split(".")
            owner = modules.get(layer)
            for attr in path[:-1]:
                owner = getattr(owner, attr, None)
            fn = getattr(owner, path[-1], None)
            if not callable(fn):
                self.missing.append(dotted)
                continue
            wrapper = self.wrap(dotted, fn)
            self._patch(owner, path[-1], fn, wrapper)
            replaced[id(fn)] = (fn, wrapper)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit and hit[0] is value:
                    self._patch(mod, attr, value, hit[1])
        return self.missing

    def _patch(self, owner, attr, original, replacement) -> None:
        self._undo.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def span_total(self) -> float:
        """Time spent inside wrapped calls: the sum of every self time."""
        return sum(st.self_s for st in self.stats.values())
