"""Schedule-class deduplication: the explored-class index and its registry.

PR 7 gave every run a **schedule-class hash** — a digest of the
happens-before structure its synchronization events established (see
:attr:`~repro.runtime.race_detector.RaceDetector.schedule_class_hash`).  Two
runs with the same hash explored the same schedule equivalence class, so the
second one can only rediscover what the first already proved.  This module
turns that statistic into a pruning layer:

* :class:`ScheduleClassIndex` — one index per (package fingerprint, harness
  config): memoizes each explored class's outcome (reports, failures, output,
  steps) keyed by the class hash, tracks the sync-event *prefix* hashes seen
  at candidate depths, remembers which PCT change-point signatures have been
  spent — the state novelty-guided budget reallocation reads — and keeps a
  small LRU of whole sweep results, so a repeat of an identical sweep is
  replayed instead of re-executed;
* :class:`ScheduleClassRegistry` — a bounded, thread-safe, process-wide map
  from index key to index (mirroring :data:`~repro.runtime.compiler.
  PROGRAM_CACHE`'s lifecycle), plus the monotone counters `drfix bench` and
  ``GET /metrics`` export: ``classes_explored``, ``runs_deduped``,
  ``runs_skipped``, ``prefix_rejections``, ``saturation_stops``,
  ``sweeps_replayed``.

The index never *changes* what a single harness invocation reports — in-call
memo reuse is merge-invisible (a stale run's racing pairs are a subset of its
class's first occurrence) — it changes how much work a sweep pays: stale runs
skip result recomputation, and with saturation enabled the harness stops
launching runs once ``saturation_after`` consecutive runs produced no novel
class *and no novel prefix* (the conservative novelty test that keeps
first-time sweeps exploring at full budget while repeat sweeps stop early).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: FNV-1a 64-bit parameters — shared with the detector's trace hash so every
#: schedule-space digest in the runtime speaks one arithmetic (stable across
#: processes whatever ``PYTHONHASHSEED`` the workers inherit).
FNV_OFFSET = 14695981039346656037
FNV_PRIME = 1099511628211
FNV_MASK = (1 << 64) - 1


def fnv_fold(value: int, *parts: int) -> int:
    """Fold integer parts into a rolling FNV-1a hash."""
    for part in parts:
        value = ((value ^ part) * FNV_PRIME) & FNV_MASK
    return value


@dataclass
class ClassOutcome:
    """The memoized observable outcome of one schedule class.

    Stored once, at the class's first exploration; a later run of the same
    class reuses it instead of re-rendering reports and re-merging results.
    ``reports`` are shared (not copied) — report consumers treat them as
    immutable, exactly as the harness's own merge path does.
    """

    reports: Tuple = ()
    failures: Tuple[str, ...] = ()
    output: Tuple[str, ...] = ()
    steps: int = 0


class ScheduleClassIndex:
    """Explored schedule classes (and their outcomes) for one (case, config).

    Thread-safe: the harness folds runs in submission order from one thread,
    but thread-backend executors may race lookups from workers.

    The index also memoizes whole sweeps (see :meth:`store_sweep`), keyed by
    the settings the index key leaves out.  A stored sweep stands for "re-run
    this sweep against this index", which records nothing new — so the memo
    is only valid while every class it explored is still indexed, and a class
    eviction drops it.
    """

    #: Whole sweeps kept per index, least recently used evicted first.
    max_sweeps = 8

    def __init__(self, max_classes: int = 4096):
        self.max_classes = max_classes
        self._lock = threading.Lock()
        self._classes: "OrderedDict[int, ClassOutcome]" = OrderedDict()
        self._prefixes: set[int] = set()
        self._pct_signatures: set[int] = set()
        self._sweeps: "OrderedDict[tuple, Any]" = OrderedDict()

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._classes)

    def lookup(self, class_hash: int) -> Optional[ClassOutcome]:
        with self._lock:
            return self._classes.get(class_hash)

    def record(self, class_hash: int, outcome: ClassOutcome) -> bool:
        """Memoize ``outcome`` for ``class_hash``; True if the class is novel.

        First-writer-wins: a class's canonical outcome is its first
        exploration, so repeat recordings never replace the memo.
        """
        with self._lock:
            if class_hash in self._classes:
                return False
            while len(self._classes) >= self.max_classes:
                self._classes.popitem(last=False)
                self._sweeps.clear()
            self._classes[class_hash] = outcome
            return True

    def observe_prefixes(self, prefix_hashes: Sequence[int]) -> int:
        """Fold a run's sync-event prefix hashes in; returns how many were novel."""
        with self._lock:
            novel = 0
            for prefix in prefix_hashes:
                if prefix not in self._prefixes:
                    self._prefixes.add(prefix)
                    novel += 1
            return novel

    def class_outcomes(self) -> List[ClassOutcome]:
        """Every memoized class outcome (saturation-stop merging reads this)."""
        with self._lock:
            return list(self._classes.values())

    def class_hashes(self) -> List[int]:
        with self._lock:
            return list(self._classes.keys())

    # -- whole-sweep memo ----------------------------------------------

    def lookup_sweep(self, key: tuple) -> Optional[Any]:
        """The sweep stored under ``key``, or None."""
        with self._lock:
            sweep = self._sweeps.get(key)
            if sweep is not None:
                self._sweeps.move_to_end(key)
            return sweep

    def store_sweep(self, key: tuple, sweep: Any) -> None:
        """Memoize a finished sweep; the first of concurrent writers wins.

        Refused once the class memo is full: from then on a re-run could
        re-record evicted classes, which a replay would not.
        """
        with self._lock:
            if key in self._sweeps or len(self._classes) >= self.max_classes:
                return
            while len(self._sweeps) >= self.max_sweeps:
                self._sweeps.popitem(last=False)
            self._sweeps[key] = sweep

    # -- novelty-guided PCT biasing ------------------------------------

    def note_pct_signature(self, signature: int) -> None:
        with self._lock:
            self._pct_signatures.add(signature)

    def pct_signatures(self) -> frozenset[int]:
        with self._lock:
            return frozenset(self._pct_signatures)


@dataclass
class DedupCounters:
    """Monotone process-wide dedup accounting (bench / metrics surface)."""

    classes_explored: int = 0
    runs_deduped: int = 0
    runs_skipped: int = 0
    prefix_rejections: int = 0
    saturation_stops: int = 0
    #: Harness sweeps answered from an index's sweep memo, not executed.
    sweeps_replayed: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "classes_explored": self.classes_explored,
            "runs_deduped": self.runs_deduped,
            "runs_skipped": self.runs_skipped,
            "prefix_rejections": self.prefix_rejections,
            "saturation_stops": self.saturation_stops,
            "sweeps_replayed": self.sweeps_replayed,
        }


class ScheduleClassRegistry:
    """Process-wide (index key → :class:`ScheduleClassIndex`), bounded LRU.

    The key is the harness's (package fingerprint, seed, max_steps, policies,
    slicing, entries) tuple, so an index is shared exactly by
    invocations that would replay one another's schedules — the repeated-run
    validation workload — and never across configurations that explore
    different spaces.
    """

    def __init__(self, capacity: int = 256):
        self.capacity = capacity
        self._lock = threading.Lock()
        self._indexes: "OrderedDict[tuple, ScheduleClassIndex]" = OrderedDict()
        self.counters = DedupCounters()

    def get(self, key: tuple) -> ScheduleClassIndex:
        with self._lock:
            index = self._indexes.get(key)
            if index is None:
                while len(self._indexes) >= self.capacity:
                    self._indexes.popitem(last=False)
                index = ScheduleClassIndex()
                self._indexes[key] = index
            else:
                self._indexes.move_to_end(key)
            return index

    # -- counters ------------------------------------------------------

    def note_sweep(self, *, novel_classes: int = 0, runs_deduped: int = 0,
                   runs_skipped: int = 0, prefix_rejections: int = 0,
                   saturated: bool = False, replayed: bool = False) -> None:
        with self._lock:
            self.counters.classes_explored += novel_classes
            self.counters.runs_deduped += runs_deduped
            self.counters.runs_skipped += runs_skipped
            self.counters.prefix_rejections += prefix_rejections
            if saturated:
                self.counters.saturation_stops += 1
            if replayed:
                self.counters.sweeps_replayed += 1

    def stats(self) -> Dict[str, int]:
        with self._lock:
            stats = self.counters.as_dict()
            stats["indexes"] = len(self._indexes)
            return stats

    def clear(self, counters: bool = True) -> None:
        """Drop every index and, unless ``counters`` is False, zero the
        counters (tests and benchmarks)."""
        with self._lock:
            self._indexes.clear()
            if counters:
                self.counters = DedupCounters()


#: The process-wide registry every harness invocation with dedup on shares —
#: the analogue of :data:`~repro.runtime.compiler.PROGRAM_CACHE` for schedule
#: classes.  Process-pool workers each grow their own copy at fork/spawn,
#: exactly like the program cache.
SCHEDULE_CLASS_REGISTRY = ScheduleClassRegistry()


__all__ = [
    "FNV_MASK",
    "FNV_OFFSET",
    "FNV_PRIME",
    "ClassOutcome",
    "DedupCounters",
    "SCHEDULE_CLASS_REGISTRY",
    "ScheduleClassIndex",
    "ScheduleClassRegistry",
    "fnv_fold",
]
