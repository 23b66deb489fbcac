"""FastTrack dynamic happens-before race detection.

The detector implements the FastTrack protocol (Flanagan & Freund, PLDI 2009)
at the granularity the interpreter needs:

* every goroutine ``t`` carries a vector clock ``C_t``;
* every synchronization object (mutex, channel, WaitGroup, atomic cell)
  carries a clock that is joined on release/acquire edges;
* every memory cell records the *epoch* of its last write (a single
  ``(tid, clock)`` pair, not a full vector clock) and an **adaptive read
  state**: a single read epoch while one goroutine is reading, promoted to a
  per-goroutine read map only when concurrent readers appear and demoted back
  on the next write — FastTrack's read-share/read-exclusive transitions;
* an access races with a previous access when the previous access's epoch is
  not ordered before the current goroutine's clock.

Fast paths mirror FastTrack's: a repeated read by the owning goroutine updates
the read epoch in place (no dict or clock allocation), and a write updates the
write epoch in place (no ``Epoch``/``VectorClock`` objects are allocated per
access, and clearing the read state never copies records).  One deliberate
deviation from the letter of the paper keeps reports bit-identical to the
pre-FastTrack detector's (and to the engine golden): access *records* (stack
snapshots used for ThreadSanitizer-style reports) are refreshed even on
same-epoch accesses, because a later race must report the most recent
conflicting source line.

On detecting a race the detector records a :class:`RaceRecord` with both
access snapshots (goroutine id, read/write, call stack) which the harness then
renders as a ThreadSanitizer-format report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.runtime.memory import Cell
from repro.runtime.vector_clock import Epoch, SyncVar, VectorClock


@dataclass(slots=True)
class AccessRecord:
    """A snapshot of one memory access, retained for race reporting."""

    goroutine_id: int
    is_write: bool
    stack: Tuple[Tuple[str, str, int], ...]  # (function, file, line) frames, leaf first
    variable: str
    address: int
    creation_stack: Tuple[Tuple[str, str, int], ...] = ()


@dataclass
class RaceRecord:
    """Two conflicting, unordered accesses to the same location."""

    current: AccessRecord
    previous: AccessRecord

    @property
    def variable(self) -> str:
        return self.current.variable or self.previous.variable

    def key(self) -> Tuple[str, ...]:
        """A coarse dedup key: the leaf frames of both stacks plus the variable."""
        cur = self.current.stack[0] if self.current.stack else ("?", "?", 0)
        prev = self.previous.stack[0] if self.previous.stack else ("?", "?", 0)
        frames = sorted([f"{cur[0]}:{cur[2]}", f"{prev[0]}:{prev[2]}"])
        return (self.variable, *frames)


#: Sync-event prefix hashes are snapshotted at power-of-two event depths;
#: this caps how many snapshots a very long run retains (2**24 events).
_MAX_PREFIX_DEPTHS = 24

#: ``read_tid`` sentinel: no reads since the last write.
_NO_READER = -1
#: ``read_tid`` sentinel: concurrent readers — the read state is the
#: ``read_clocks``/``read_records`` maps (FastTrack's read-shared mode).
_SHARED = -2


class _LocationState:
    """Per-cell detector metadata in FastTrack form.

    The write state is a bare epoch (two ints plus the report record).  The
    read state is adaptive: ``read_tid >= 0`` means a single goroutine has
    read since the last write and its epoch lives inline; ``_SHARED`` means
    concurrent readers promoted the state to per-goroutine maps.
    """

    __slots__ = (
        "write_tid", "write_clock", "write_record",
        "read_tid", "read_clock", "read_record",
        "read_clocks", "read_records",
    )

    def __init__(self) -> None:
        self.write_tid = _NO_READER
        self.write_clock = 0
        self.write_record: Optional[AccessRecord] = None
        self.read_tid = _NO_READER
        self.read_clock = 0
        self.read_record: Optional[AccessRecord] = None
        self.read_clocks: Optional[Dict[int, int]] = None
        self.read_records: Optional[Dict[int, AccessRecord]] = None

    # -- compatibility views (diagnostics/tests; not used on hot paths) ----------------

    @property
    def write_epoch(self) -> Optional[Epoch]:
        if self.write_tid < 0:
            return None
        return Epoch(self.write_tid, self.write_clock)


#: FNV-1a 64-bit parameters for the schedule-class trace hash.  Arithmetic
#: (not Python ``hash()``) so the value is stable across processes whatever
#: ``PYTHONHASHSEED`` the pool workers inherit.
_FNV_OFFSET = 14695981039346656037
_FNV_PRIME = 1099511628211
_FNV_MASK = (1 << 64) - 1

#: Chain tags (disjoint from the event kinds 1-4): a thread chain and a sync
#: chain with the same numeric key must contribute differently.
_THREAD_CHAIN = 5
_SYNC_CHAIN = 6
_PREFIX_TAG = 7
_VAR_CHAIN = 8

#: Access-event kinds for the per-variable chains (disjoint from the sync
#: event kinds 1-4 so a read can never alias a fork in a chain fold).
_READ_EVENT = 9
_WRITE_EVENT = 10


def _mix(tag: int, key: int, chain: int) -> int:
    """One chain's commutative contribution to the combined class hash."""
    h = _FNV_OFFSET
    for part in (tag, key, chain):
        h = ((h ^ part) * _FNV_PRIME) & _FNV_MASK
    return h


class RaceDetector:
    """Tracks happens-before and flags conflicting unordered accesses.

    Alongside the clocks, the detector folds every synchronization event
    (fork/join/release/acquire) **and every unsynchronized memory access**
    into a **schedule-class hash**.  The hash is a Mazurkiewicz-trace digest
    over the dependence alphabet race detection actually observes: each sync
    event is appended (order-sensitively) to the rolling chain of every
    *participant* it touches — the acting goroutine(s) and the
    synchronization object — each plain access is appended to the chain of
    the cell it touches, and the class hash combines the per-chain hashes
    commutatively (XOR of keyed contributions).  Two interleavings that
    merely commute **independent** events (no shared goroutine, no shared
    sync object, no shared cell) therefore hash identically, while
    reordering two events on the same chain — the reorderings that change
    happens-before or the reads-from relation — changes the hash.  The
    per-cell chains matter for soundness, not just precision: two
    interleavings with identical sync traces can still order conflicting
    accesses differently, and FastTrack then reports *different access
    pairs* — a class keyed on sync events alone would let the dedup layer
    substitute one run's reports for the other's.  Two runs with the same
    refined hash established the same happens-before edges *and* the same
    per-variable access orders, so their detection outcomes coincide; the
    schedule-class dedup layer (:mod:`repro.runtime.schedule_index`)
    memoizes outcomes by this hash.

    The detector also snapshots the combined hash at power-of-two event
    depths (:attr:`prefix_hashes`): a run whose every prefix was already seen
    replayed explored territory end to end — the conservative novelty signal
    the harness's saturation early-stop consumes."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.races: List[RaceRecord] = []
        self._thread_clocks: Dict[int, VectorClock] = {}
        self._locations: Dict[int, _LocationState] = {}
        self._reported_keys: set[Tuple[str, ...]] = set()
        self._combined_hash = _FNV_OFFSET
        self._thread_chains: Dict[int, int] = {}
        self._sync_chains: Dict[int, int] = {}
        self._var_chains: Dict[int, int] = {}
        #: Per-run cell numbering by first access: raw addresses advance
        #: monotonically across runs (the counter is process-global), so two
        #: executions of the same interleaving only hash identically when
        #: cells are named by appearance order, like sync objects below.
        self._var_ids: Dict[int, int] = {}
        self._event_count = 0
        self._next_prefix_depth = 1
        self._prefix_hashes: List[int] = []
        #: Per-run sync-object numbering: ``id(sync)`` is only stable while
        #: the object is alive, so each object is pinned for the run's
        #: duration and numbered by first appearance (deterministic across
        #: processes, unlike the raw id).
        self._sync_ids: Dict[int, int] = {}
        self._sync_pins: List[SyncVar] = []

    @property
    def schedule_class_hash(self) -> int:
        """The commutative digest over this run's synchronization chains."""
        return self._combined_hash

    @property
    def prefix_hashes(self) -> Tuple[int, ...]:
        """Class-hash snapshots at power-of-two sync-event depths."""
        return tuple(self._prefix_hashes)

    def _fold_chain(self, chains: Dict[int, int], tag: int, key: int,
                    kind: int, a: int, b: int) -> None:
        old = chains.get(key)
        h = _FNV_OFFSET if old is None else old
        for part in (kind, a, b):
            h = ((h ^ part) * _FNV_PRIME) & _FNV_MASK
        chains[key] = h
        combined = self._combined_hash
        if old is not None:
            combined ^= _mix(tag, key, old)
        self._combined_hash = combined ^ _mix(tag, key, h)

    def _note_event(self) -> None:
        self._event_count += 1
        if self._event_count == self._next_prefix_depth:
            if len(self._prefix_hashes) < _MAX_PREFIX_DEPTHS:
                self._prefix_hashes.append(
                    _mix(_PREFIX_TAG, self._event_count, self._combined_hash))
            self._next_prefix_depth <<= 1

    def _trace(self, kind: int, a: int, b: int) -> None:
        """A fork/join edge between goroutines ``a`` and ``b``."""
        self._fold_chain(self._thread_chains, _THREAD_CHAIN, a, kind, a, b)
        self._fold_chain(self._thread_chains, _THREAD_CHAIN, b, kind, a, b)
        self._note_event()

    def _trace_sync(self, kind: int, tid: int, sid: int) -> None:
        """A release/acquire edge between goroutine ``tid`` and sync ``sid``."""
        self._fold_chain(self._thread_chains, _THREAD_CHAIN, tid, kind, tid, sid)
        self._fold_chain(self._sync_chains, _SYNC_CHAIN, sid, kind, tid, sid)
        self._note_event()

    def _trace_access(self, kind: int, tid: int, address: int) -> None:
        """A plain read/write folded into the touched cell's chain.

        Accesses deliberately do not bump :meth:`_note_event`: prefix hashes
        stay snapshots at *sync-event* depths (the novelty signal the
        saturation early-stop consumes), though each snapshot digests the
        access chains folded so far."""
        vid = self._var_ids.get(address)
        if vid is None:
            vid = len(self._var_ids)
            self._var_ids[address] = vid
        self._fold_chain(self._var_chains, _VAR_CHAIN, vid, kind, tid, vid)

    def _sync_id(self, sync: SyncVar) -> int:
        key = id(sync)
        number = self._sync_ids.get(key)
        if number is None:
            number = len(self._sync_pins)
            self._sync_ids[key] = number
            self._sync_pins.append(sync)
        return number

    # ------------------------------------------------------------------
    # Goroutine lifecycle
    # ------------------------------------------------------------------

    def register_goroutine(self, tid: int) -> None:
        if tid not in self._thread_clocks:
            clock = VectorClock()
            clock.increment(tid)
            self._thread_clocks[tid] = clock

    def clock_of(self, tid: int) -> VectorClock:
        clock = self._thread_clocks.get(tid)
        if clock is None:
            self.register_goroutine(tid)
            clock = self._thread_clocks[tid]
        return clock

    def on_fork(self, parent_tid: int, child_tid: int) -> None:
        """``go`` statement: the child inherits the parent's knowledge."""
        self._trace(1, parent_tid, child_tid)
        parent = self.clock_of(parent_tid)
        child = self.clock_of(child_tid)
        child.join(parent)
        child.increment(child_tid)
        parent.increment(parent_tid)

    def on_join(self, waiter_tid: int, finished_tid: int) -> None:
        """A join edge (e.g. WaitGroup.Wait observing a goroutine's Done)."""
        self._trace(2, waiter_tid, finished_tid)
        waiter = self.clock_of(waiter_tid)
        finished = self.clock_of(finished_tid)
        waiter.join(finished)
        waiter.increment(waiter_tid)

    # ------------------------------------------------------------------
    # Synchronization objects
    # ------------------------------------------------------------------

    def on_release(self, tid: int, sync: SyncVar) -> None:
        """Unlock / channel send / WaitGroup.Done / atomic store."""
        self._trace_sync(3, tid, self._sync_id(sync))
        clock = self.clock_of(tid)
        sync.release(clock)
        clock.increment(tid)

    def on_acquire(self, tid: int, sync: SyncVar) -> None:
        """Lock / channel receive / WaitGroup.Wait return / atomic load."""
        self._trace_sync(4, tid, self._sync_id(sync))
        clock = self.clock_of(tid)
        sync.acquire(clock)

    # ------------------------------------------------------------------
    # Memory accesses
    # ------------------------------------------------------------------

    def _state_for(self, cell: Cell) -> _LocationState:
        state = self._locations.get(cell.address)
        if state is None:
            state = _LocationState()
            self._locations[cell.address] = state
        return state

    def _record(self, race: RaceRecord) -> None:
        key = race.key()
        if key in self._reported_keys:
            return
        self._reported_keys.add(key)
        self.races.append(race)

    def on_read(self, tid: int, cell: Cell, record: AccessRecord) -> None:
        if not self.enabled or cell.synchronized:
            return
        self._trace_access(_READ_EVENT, tid, cell.address)
        clock = self._thread_clocks.get(tid)
        if clock is None:
            clock = self.clock_of(tid)
        state = self._locations.get(cell.address)
        if state is None:
            state = _LocationState()
            self._locations[cell.address] = state
        clocks = clock._clocks
        write_tid = state.write_tid
        if write_tid >= 0 and write_tid != tid:
            # Write-read conflict check: the stored write epoch must be
            # ordered before this goroutine's clock.
            if state.write_clock > clocks.get(write_tid, 0):
                self._record(RaceRecord(current=record, previous=state.write_record))
        own = clocks.get(tid, 0)
        read_tid = state.read_tid
        if read_tid == tid:
            # Same-reader fast path: refresh the inline read epoch in place.
            state.read_clock = own
            state.read_record = record
        elif read_tid == _NO_READER:
            # Read-exclusive: this goroutine becomes the sole tracked reader.
            state.read_tid = tid
            state.read_clock = own
            state.read_record = record
        elif read_tid == _SHARED:
            state.read_clocks[tid] = own
            state.read_records[tid] = record
        else:
            # Second distinct reader since the last write: promote to the
            # read-shared maps (insertion order: prior reader first, which
            # preserves report ordering on a later racing write).
            state.read_clocks = {read_tid: state.read_clock, tid: own}
            state.read_records = {read_tid: state.read_record, tid: record}
            state.read_tid = _SHARED
            state.read_record = None

    def on_write(self, tid: int, cell: Cell, record: AccessRecord) -> None:
        if not self.enabled or cell.synchronized:
            return
        self._trace_access(_WRITE_EVENT, tid, cell.address)
        clock = self._thread_clocks.get(tid)
        if clock is None:
            clock = self.clock_of(tid)
        state = self._locations.get(cell.address)
        if state is None:
            state = _LocationState()
            self._locations[cell.address] = state
        clocks = clock._clocks
        write_tid = state.write_tid
        if write_tid >= 0 and write_tid != tid:
            if state.write_clock > clocks.get(write_tid, 0):
                self._record(RaceRecord(current=record, previous=state.write_record))
        read_tid = state.read_tid
        if read_tid != _NO_READER:
            if read_tid == _SHARED:
                # Write after read-shared: every reader epoch must be ordered
                # before this write.  Iterate in place (insertion order) —
                # the maps are dropped right after, so no defensive copy.
                read_clocks = state.read_clocks
                for reader_tid, read_record in state.read_records.items():
                    if reader_tid == tid:
                        continue
                    if read_clocks[reader_tid] > clocks.get(reader_tid, 0):
                        self._record(RaceRecord(current=record, previous=read_record))
                state.read_clocks = None
                state.read_records = None
            elif read_tid != tid:
                if state.read_clock > clocks.get(read_tid, 0):
                    self._record(RaceRecord(current=record, previous=state.read_record))
            # Demote to read-free (FastTrack's write-exclusive state).
            state.read_tid = _NO_READER
            state.read_record = None
        # Same-epoch write fast path: only the report record refreshes; the
        # epoch ints are written in place, no Epoch/VectorClock allocation.
        state.write_tid = tid
        state.write_clock = clocks.get(tid, 0)
        state.write_record = record

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def has_races(self) -> bool:
        return bool(self.races)

    def reset(self) -> None:
        self.races.clear()
        self._locations.clear()
        self._thread_clocks.clear()
        self._reported_keys.clear()
        self._combined_hash = _FNV_OFFSET
        self._thread_chains.clear()
        self._sync_chains.clear()
        self._var_chains.clear()
        self._var_ids.clear()
        self._event_count = 0
        self._next_prefix_depth = 1
        self._prefix_hashes.clear()
        self._sync_ids.clear()
        self._sync_pins.clear()
