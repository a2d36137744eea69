"""In-memory spans around treeot's layer functions.

:class:`Tracer` rebinds module attributes: every ``treeot`` module (and the
package itself) that holds a reference to one of the functions in
:data:`LAYER_FUNCTIONS` gets a timing wrapper under the same name, so each
call is traced under the name its caller uses. The package's source is not
edited; :meth:`Tracer.uninstall` puts the originals back.

Each span records its name, start, end and parent. A span's self time is its
duration minus the part of that interval covered by its direct children.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# layer -> (module under treeot, wrapped function names). The annealing layer
# includes the kernel, which runs inside ``_run_chain`` (one call per chain).
LAYER_FUNCTIONS = {
    "graphs": ("graphs", ("build_graph", "all_pairs_shortest_paths")),
    "trees": ("trees", ("random_spanning_tree", "tree_distance_matrix", "subtree_aggregate")),
    "transport": ("transport", ("dp_transport_plan", "plan_to_flow", "tree_potential")),
    "annealing": ("annealing", ("anneal", "anneal_chains", "_run_chain")),
    "oracle": ("oracle", (
        "check_cyclical_monotonicity",
        "exact_k_distance",
        "geodesic_support_violation",
        "check_weak_nondegeneracy",
        "lipschitz_violation",
    )),
    "fileio": ("fileio", (
        "load_graph", "load_tree", "load_measure", "load_measure_raw", "load_plan_triplets",
        "load_potential", "load_image_csv", "save_graph", "save_tree", "save_measure",
        "save_plan", "save_potential", "save_trace",
    )),
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_time(lo: float, hi: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the time its direct children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [s.duration - covered_time(s.start, s.end, kids) for s, kids in zip(spans, children)]


def totals_by_name(spans: list[Span]) -> dict[str, tuple[float, int]]:
    """name -> (self time summed over calls, call count)."""
    out: dict[str, tuple[float, int]] = {}
    for s, own in zip(spans, self_times(spans)):
        t, c = out.get(s.name, (0.0, 0))
        out[s.name] = (t + own, c + 1)
    return out


class Tracer:
    """Records spans while installed. Spans opened on a worker thread with no
    open span of its own take the innermost open span of the installing
    thread as parent (the call that started the worker)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        origin = stack or self._owner_stack
        s = Span(name, time.perf_counter(), parent=origin[-1] if origin else None)
        with self._lock:
            index = len(self.spans)
            self.spans.append(s)
        stack.append(index)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()

    def wrap(self, name: str, func, on_result=None):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = func(*args, **kwargs)
                if on_result is not None:
                    on_result(s, args, result)
                return result

        return traced

    def install(self, hooks: dict | None = None) -> None:
        """Rebind every reference to a layer function in the loaded treeot
        modules. ``hooks`` maps a span name to ``on_result(span, args, result)``."""
        hooks = hooks or {}
        modules = [m for key, m in sys.modules.items() if key == "treeot" or key.startswith("treeot.")]
        for layer, (module_name, names) in LAYER_FUNCTIONS.items():
            home = sys.modules[f"treeot.{module_name}"]
            for fname in names:
                original = getattr(home, fname)
                span_name = f"{layer}.{fname}"
                wrapper = self.wrap(span_name, original, hooks.get(span_name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._undo.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    @contextmanager
    def installed(self, hooks: dict | None = None):
        self.install(hooks)
        try:
            yield self
        finally:
            self.uninstall()
