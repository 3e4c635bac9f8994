"""Outside-in tracer: wraps kwall's public functions from the benchmark's process.

kwall itself records nothing.  ``Tracer.install`` replaces each traced function
in every loaded ``kwall`` module that binds it (``from .exact import clip``
binds ``kwall.volumes.clip`` as well as ``kwall.exact.clip``), and restores
the originals on exit.  Spans are kept in memory as
``(unit, name, start_ns, end_ns, parent)`` tuples; self time is a span's
duration minus the time its child spans cover, accumulated as spans close.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict
from typing import Callable

_now = time.perf_counter_ns


def _germ_pairs(g) -> int:
    m = len(g.monomials)
    return m * (m - 1) // 2


# traced name -> (module, attribute, distinct-input key or None, input-size function or None)
SPANS: dict[str, tuple[str, str, Callable | None, Callable | None]] = {
    "fixtures.wall_case": ("kwall.fixtures", "wall_case", lambda name: name, None),
    "toric_kps.solve_centroid_condition": ("kwall.toric_kps", "solve_centroid_condition", None, None),
    "toric_kps.reeb_cross_section_centroid": ("kwall.toric_kps", "reeb_cross_section_centroid", None, None),
    "volumes.volume_toric": ("kwall.volumes", "volume_toric", None, lambda mp: len(mp.polygon.vertices)),
    "volumes.volume_two_ray": ("kwall.volumes", "volume_two_ray", lambda model, L: (model, tuple(L)), None),
    "volumes.s_invariant": ("kwall.volumes", "s_invariant", None, None),
    "valuations.lct_newton": ("kwall.valuations", "lct_newton", None, _germ_pairs),
    "exact.polygon": ("kwall.exact", "polygon", None, None),
    "exact.clip": ("kwall.exact", "clip", None, None),
    "exact.area_centroid": ("kwall.exact", "area_centroid", None, None),
    "exact.solve_linear3": ("kwall.exact", "solve_linear3", None, None),
    "exact.integrate": ("kwall.exact", "integrate", None, None),
    "cli.main": ("kwall.cli", "main", None, None),
    "cli.run_scenario": ("kwall.cli", "run_scenario", None, None),
    "walls.solve_wall": ("kwall.walls", "solve_wall", None, None),
    "walls.first_wall": ("kwall.walls", "first_wall", None, None),
    "git.binary_system_stability": ("kwall.git", "binary_system_stability", None, None),
}
# called ~89k times per checklist pass: counted, not timed
COUNTS = {"exact.rat": ("kwall.exact", "rat")}


class Tracer:
    """Span recorder for one traced run; ``unit`` tags the spans of one
    pass, document or command."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.keep_spans = True
        self.unit = ""
        self._stack: list[list] = []  # [span index, child ns]
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.keys: dict[str, set] = defaultdict(set)
        self.sizes: dict[str, int] = defaultdict(int)

    def span(self, name: str, fn: Callable, key: Callable | None = None,
             size: Callable | None = None) -> Callable:
        stack = self._stack

        def traced(*args, **kwargs):
            if key is not None:
                self.keys[name].add(key(*args, **kwargs))
            if size is not None:
                self.sizes[name] += size(*args, **kwargs)
            parent = stack[-1][0] if stack else -1
            frame = [len(self.spans), 0]
            if self.keep_spans:
                self.spans.append(None)
            stack.append(frame)
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                self.calls[name] += 1
                self.total_ns[name] += dur
                self.self_ns[name] += dur - frame[1]
                if self.keep_spans:
                    self.spans[frame[0]] = (self.unit, name, start, end, parent)

        return traced

    def counter(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def install(self):
        """Patch every traced function in every loaded kwall module; undo on exit."""
        modules = [m for n, m in list(sys.modules.items()) if n == "kwall" or n.startswith("kwall.")]
        undo: list[Callable[[], None]] = []
        wrappers = {}
        for name, (mod, attr, key, size) in SPANS.items():
            orig = getattr(sys.modules[mod], attr)
            wrappers[id(orig)] = (orig, self.span(name, orig, key, size))
        for name, (mod, attr) in COUNTS.items():
            orig = getattr(sys.modules[mod], attr)
            wrappers[id(orig)] = (orig, self.counter(name, orig))
        try:
            for m in modules:
                for attr, value in list(vars(m).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        setattr(m, attr, hit[1])
                        undo.append(lambda m=m, attr=attr, value=value: setattr(m, attr, value))
            # the checklist looks its criteria up in a list, not by module attribute
            criteria = sys.modules["kwall.acceptance"].CRITERIA
            saved = list(criteria)
            criteria[:] = [(cid, title, self.span(f"acceptance.criterion_{cid}", fn))
                           for cid, title, fn in saved]
            undo.append(lambda: criteria.__setitem__(slice(None), saved))
            yield self
        finally:
            for restore in reversed(undo):
                restore()
