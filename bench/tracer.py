"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces every public function of the layer modules,
wherever the package has bound it, with a wrapper that times the call and
records it under ``<layer>.<function>``. Spans nest on one stack: a span's
self time is its duration minus its traced children's. Batch audits run
on the pool's single worker thread while the calling thread waits, so the
worker's spans nest under ``corpus.run_batch`` on the same stack.
"""

from __future__ import annotations

import functools
import inspect
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

# Module -> layer name. The trace layer includes the stored-trace reader.
LAYERS = {
    "webaudit.trace": "trace",
    "webaudit.netsim": "netsim",
    "webaudit.metrics": "metrics",
    "webaudit.scoring": "scoring",
    "webaudit.corpus": "corpus",
    "webaudit.report": "report",
    "webaudit.config": "config",
    "webaudit.cli": "cli",
}
EXTRA = {("webaudit.collector", "load_trace"): "trace.load_trace"}
CLASSMETHODS = {("webaudit.trace", "NormalizedTrace", "from_dict"): "trace.from_dict"}


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0
    self_total: float = 0.0
    durations: list[float] = field(default_factory=list)


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.stats: dict[str, Stat] = {}
        self.edges: dict[tuple[str, str], list] = {}  # (parent, child) -> [seconds, calls]
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []  # [name, seconds in traced children]
        self._undo: list[Callable[[], None]] = []

    def stat(self, name: str) -> Stat:
        return self.stats.get(name) or Stat()

    def under(self, parent: str, child: str) -> tuple[float, int]:
        """Seconds and calls of child made directly from parent."""
        return tuple(self.edges.get((parent, child), (0.0, 0)))

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack = tracer._stack
            parent = stack[-1] if stack else None
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                stat = tracer.stats.setdefault(name, Stat())
                stat.calls += 1
                stat.total += elapsed
                stat.self_total += elapsed - frame[1]
                stat.durations.append(elapsed)
                if parent is not None:
                    parent[1] += elapsed
                    edge = tracer.edges.setdefault((parent[0], name), [0.0, 0])
                    edge[0] += elapsed
                    edge[1] += 1
            if count is not None:
                for counter, amount in count(args, result).items():
                    tracer.counts[counter] = tracer.counts.get(counter, 0) + amount
            return result

        return traced

    def install(self, counters: dict[str, Callable] | None = None) -> None:
        """Wrap the layer functions; counters maps a span name to a function
        of (args, result) returning {counter: amount}."""
        counters = counters or {}
        package = [m for name, m in sys.modules.items() if name == "webaudit" or name.startswith("webaudit.")]
        targets: dict[str, Callable] = {}
        for module_name, layer in LAYERS.items():
            module = sys.modules[module_name]
            for attr, value in vars(module).items():
                if inspect.isfunction(value) and value.__module__ == module_name and not attr.startswith("_"):
                    targets[f"{layer}.{attr}"] = value
        for (module_name, attr), span in EXTRA.items():
            targets[span] = getattr(sys.modules[module_name], attr)

        for span, original in targets.items():
            wrapper = self.wrap(span, original, counters.get(span))
            for module in package:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._undo.append(functools.partial(setattr, module, attr, original))

        for (module_name, cls_name, attr), span in CLASSMETHODS.items():
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, classmethod(self.wrap(span, original.__func__, counters.get(span))))
            self._undo.append(functools.partial(setattr, cls, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()
