"""Outside-in span tracer for the Dr.Fix benchmark.

The program under test has no tracing of its own, so this module wraps the
public entry points of each ``repro.*`` layer from outside:

* a module-level function is replaced in *every* loaded ``repro`` module that
  holds it by name (``parse_file`` is imported by name into six modules, so
  patching only its home module would miss most calls);
* a method is replaced on its class (class- and static methods keep their
  descriptor kind).

Spans are kept per thread: work that the service runs on its scheduler or
executor threads opens its own root there instead of nesting under whichever
client span happens to be open.  A span opened directly inside a span of the
same name is folded into it, so re-entrant entry points (``skeletonize_source``
calling ``skeletonize_file``) count once.

Self time is a span's duration minus the time its child spans cover.  Only
the benchmark's own files import this module; nothing in ``src/`` changes.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Span-name prefixes that count as named layers of the program.  Spans whose
#: prefix is ``bench`` are the benchmark's own operation roots.
LAYERS = ("golang", "runtime", "diagnosis", "core", "llm", "embedding",
          "service", "fingerprint", "corpus")

Hook = Callable[["Tracer", tuple, dict, Any, int], None]


@dataclass
class _Open:
    name: str
    start: int
    child_ns: int = 0


@dataclass
class SpanStats:
    """Aggregate of every closed span of one name."""

    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    errors: int = 0


@dataclass
class Tracer:
    """Collects spans and counters; inert until ``enabled`` is set."""

    enabled: bool = False
    phase: str = "setup"
    stats: Dict[Tuple[str, str], SpanStats] = field(default_factory=dict)
    counters: Dict[Tuple[str, str], float] = field(default_factory=dict)
    #: (phase, thread id, start ns, end ns, is-layer) of every span that has
    #: no enclosing span of its own kind (layer or bench root) on its thread.
    intervals: List[Tuple[str, int, int, int, bool]] = field(default_factory=list)
    #: id(request) -> execute-span ns, to split service wait from work.
    execute_ns: Dict[int, int] = field(default_factory=dict)
    distinct_sources: Dict[str, set] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------

    def _stack(self) -> List[_Open]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        if not self.enabled:
            return
        key = (self.phase, name)
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + amount

    def note_execute(self, request: Any, duration_ns: int) -> None:
        with self._lock:
            self.execute_ns[id(request)] = duration_ns

    def note_decoded(self, request: Any) -> None:
        self._local.decoded = request

    def last_decoded(self) -> Any:
        """The last request this thread decoded from the wire (traced runs)."""
        return getattr(self._local, "decoded", None)

    def note_source(self, source: str) -> None:
        if self.enabled:
            with self._lock:
                self.distinct_sources.setdefault(self.phase, set()).add(hash(source))

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             hook: Optional[Hook] = None) -> Any:
        """Run ``fn`` inside a span called ``name`` (and feed ``hook``)."""
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        if stack and stack[-1].name == name:
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, kwargs, result, 0)
            return result
        is_layer = name.split(".", 1)[0] in LAYERS
        outer = not any((s.name.split(".", 1)[0] in LAYERS) == is_layer for s in stack)
        entry = _Open(name, time.perf_counter_ns())
        stack.append(entry)
        failed = False
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            failed = True
            raise
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            duration = end - entry.start
            if stack:
                stack[-1].child_ns += duration
            with self._lock:
                stats = self.stats.setdefault((self.phase, name), SpanStats())
                stats.calls += 1
                stats.total_ns += duration
                stats.self_ns += duration - entry.child_ns
                stats.errors += failed
                if outer:
                    self.intervals.append(
                        (self.phase, threading.get_ident(), entry.start, end, is_layer))
        if hook is not None:
            hook(self, args, kwargs, result, duration)
        return result

    def span(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        return self.call(name, fn, args, kwargs)

    def root_interval(self, start_ns: int, end_ns: int) -> None:
        """Record an operation that was open from ``start_ns`` to ``end_ns``
        without a thread of its own (an open-loop request in flight)."""
        if self.enabled:
            with self._lock:
                self.intervals.append((self.phase, 0, start_ns, end_ns, False))

    # -- installation --------------------------------------------------

    def wrap(self, name: str, fn: Callable, hook: Optional[Hook] = None) -> Callable:
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            return tracer.call(name, fn, args, kwargs, hook)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced


def import_all(package: str = "repro") -> None:
    """Import every submodule, so by-name copies exist before rebinding."""
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, package + "."):
        importlib.import_module(info.name)


def install_function(tracer: Tracer, name: str, module: str, attr: str,
                     hook: Optional[Hook] = None) -> None:
    """Rebind every ``repro`` module attribute holding ``module.attr``."""
    original = getattr(importlib.import_module(module), attr)
    wrapper = tracer.wrap(name, original, hook)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


def install_method(tracer: Tracer, name: str, module: str, qualname: str,
                   hook: Optional[Hook] = None) -> None:
    """Replace ``Class.method`` on its class, keeping its descriptor kind."""
    class_name, attr = qualname.split(".")
    cls = getattr(importlib.import_module(module), class_name)
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__, hook)))
    elif isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(tracer.wrap(name, raw.__func__, hook)))
    else:
        setattr(cls, attr, tracer.wrap(name, raw, hook))


# ---------------------------------------------------------------------------
# Interval arithmetic for the unattributed share
# ---------------------------------------------------------------------------


def _union(intervals: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    merged: List[Tuple[int, int]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def _length(intervals: List[Tuple[int, int]]) -> int:
    return sum(end - start for start, end in intervals)


def _intersect(a: List[Tuple[int, int]], b: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    out: List[Tuple[int, int]] = []
    i = j = 0
    while i < len(a) and j < len(b):
        start = max(a[i][0], b[j][0])
        end = min(a[i][1], b[j][1])
        if start < end:
            out.append((start, end))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def unattributed_share(tracer: Tracer, phase: str = "timed") -> float:
    """Share of the time an operation was open with no named layer running.

    Operation time is the union, over all threads, of the benchmark's root
    spans; layer time is the union of outermost layer spans, clipped to it.
    """
    roots = _union([(s, e) for p, _, s, e, layer in tracer.intervals
                    if p == phase and not layer])
    layers = _union([(s, e) for p, _, s, e, layer in tracer.intervals
                     if p == phase and layer])
    busy = _length(roots)
    if busy == 0:
        return 0.0
    return 1.0 - _length(_intersect(roots, layers)) / busy
