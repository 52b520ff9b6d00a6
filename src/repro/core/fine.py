"""Fine-stage dependence analysis (paper §4.1, Fig. 9 bottom).

Once an operation's coarse dependences are satisfied it enters the fine
stage, where each shard evaluates the sharding function and performs the
*precise* point-level dependence analysis — but only for the points it owns.
The union of all shards' fine analyses (plus the ordering provided by
cross-shard fences) reproduces exactly the task graph a sequential analysis
of the fully expanded program would compute.

This module computes that precise point graph with per-shard cost
attribution, classifies edges as shard-local vs. cross-shard, and provides
the soundness check used by the test-suite: every cross-shard point
dependence must be covered by a fence the coarse stage inserted (otherwise
an elision was wrong).  Given the coarse stage's fence store, the scan
proves that coverage as it finds each edge (one fence-store lookup per
matched bucket, one integer compare per entry), and the check re-derives
only the edges left unproven.

Scaling note (DePa, Westrick et al., PPoPP '22): the point epochs are
bucketed by **interned requirement class** — each distinct (privilege,
region, field set) triple, the exact inputs of the pairwise requirement
test, gets a small integer class id — and the conflict decision for a
(bucket class, query class) pair is a single flat ``dict[(int, int)]``
probe.  The previous implementation called ``requirements_conflict`` per
bucket, re-hashing frozen dataclasses and enums through two LRU caches on
every scan; that call chain dominated the whole analysis at 1024+ ops.
Entries also carry two-component *(coarse OM node, fine counter)*
timestamps from the fence spine (see `repro.core.om`), property-tested to
agree with insertion order.  ``scans_per_shard`` still counts one unit per
epoch entry visited, identical to the naive per-entry loop (pinned by the
differential tests against tests/helpers.py).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import (Callable, Collection, Dict, Iterable, Iterator, List,
                    Optional, Set, Tuple)

from ..obs.profiler import Profiler, get_profiler
from ..oracle import RegionRequirement, requirements_conflict
from ..regions import (LogicalRegion, cached_region_contains,
                       register_cache_clearer)
from .coarse import CoarseResult, FenceStore, clear_coarse_decision_caches
from .om import OMNode
from .operation import Operation, PointTask
from .taskgraph import TaskGraph

__all__ = ["FineResult", "FineAnalysis", "interned_requirements_conflict",
           "clear_analysis_caches", "fine_decision_stats"]


@dataclass
class FineResult:
    """Precise point-task graph plus per-shard accounting."""

    graph: TaskGraph = field(default_factory=TaskGraph)
    local_edges: Set[Tuple[PointTask, PointTask]] = field(default_factory=set)
    cross_edges: Set[Tuple[PointTask, PointTask]] = field(default_factory=set)
    points_per_shard: Dict[int, int] = field(default_factory=dict)
    scans_per_shard: Dict[int, int] = field(default_factory=dict)

    def point_tasks(self) -> List[PointTask]:
        return [t for t in self.graph.tasks]  # type: ignore[misc]


# -- interned requirement classes -------------------------------------------------
#
# ``requirements_conflict(a, b)`` depends only on (privilege, region,
# field ids) of each side.  Each distinct triple is interned to a small
# int class id; decisions live in a flat dict keyed on (cid, cid) pairs
# and are computed once per class pair via the *same* oracle call the
# naive loop makes, so truth values are identical by construction.
# Region uids and field ids are never reused, so decisions never go
# stale; the tables are bounded only to cap memory in long-lived
# processes, via a generation bump that lazily invalidates cached cids.

_CLASS_BITS = 20                  # decision keys pack (bcid << 20) | qcid
_MAX_CLASSES = 1 << _CLASS_BITS   # table resets keep cids inside the pack
_MAX_DECISIONS = 1 << 22

_GEN = 0
_CLASS_IDS: Dict[Tuple, int] = {}
_CLASS_REPS: List[RegionRequirement] = []
_DECISIONS: Dict[int, bool] = {}   # packed int keys: cheapest possible probe
_CONTAINS: Dict[Tuple[int, int], bool] = {}
# Serializes interning misses and resets: shards on loopback threads share
# these tables, and an unlocked miss is a check-then-append race that can
# hand two classes one id.  Hits stay lock-free.
_TABLE_LOCK = threading.RLock()


def _clear_fine_decision_caches() -> None:
    global _GEN
    with _TABLE_LOCK:
        _CLASS_IDS.clear()
        del _CLASS_REPS[:]
        _DECISIONS.clear()
        _CONTAINS.clear()
        _GEN += 1


def clear_analysis_caches() -> None:
    """Reset every interned class/decision table of both analysis stages
    (tests and benchmarks; never required for correctness — region uids
    and field ids are never reused, so entries cannot go stale)."""
    _clear_fine_decision_caches()
    clear_coarse_decision_caches()


def fine_decision_stats() -> Dict[str, int]:
    return {"classes": len(_CLASS_REPS), "decisions": len(_DECISIONS),
            "generation": _GEN}


# Class ids key on region uids and field ids; a region-cache clear (which
# precedes any uid reuse via fresh_id_epoch) must reset them too.
register_cache_clearer(_clear_fine_decision_caches)


def _intern_class(req: RegionRequirement) -> int:
    key = (req.privilege, req.region.uid, req.field_ids())
    cid = _CLASS_IDS.get(key)
    if cid is None:
        with _TABLE_LOCK:
            cid = _CLASS_IDS.get(key)
            if cid is None:
                if len(_CLASS_REPS) >= _MAX_CLASSES:
                    _clear_fine_decision_caches()
                cid = len(_CLASS_REPS)
                # Representative first: a lock-free reader that finds the
                # id must find its representative too.
                _CLASS_REPS.append(req)
                _CLASS_IDS[key] = cid
    return cid


def _class_of(req: RegionRequirement) -> int:
    """Class id of a requirement, cached on the (frozen) object and
    revalidated against the table generation."""
    tag = getattr(req, "_om_cid", None)
    if tag is not None and tag[0] == _GEN:
        return tag[1]
    cid = _intern_class(req)
    object.__setattr__(req, "_om_cid", (_GEN, cid))
    return cid


def _decide(bcid: int, qcid: int) -> bool:
    """Compute-and-memoize one class-pair decision via the oracle —
    exactly the naive per-entry ``requirements_conflict`` test."""
    hit = bool(requirements_conflict(_CLASS_REPS[bcid], _CLASS_REPS[qcid]))
    if len(_DECISIONS) >= _MAX_DECISIONS:
        _DECISIONS.clear()
    _DECISIONS[(bcid << _CLASS_BITS) | qcid] = hit
    return hit


def interned_requirements_conflict(a: RegionRequirement,
                                   b: RegionRequirement) -> bool:
    """``requirements_conflict`` through the flat decision table: one
    int-pair dict probe once both classes are warm (the fence-coverage
    check asks this for the requirement pairs of every cross edge the scan
    could not prove covered)."""
    ca = _class_of(a)
    cb = _class_of(b)
    tag = getattr(a, "_om_cid", None)
    if tag is None or tag[0] != _GEN:
        # Interning b reset the tables; re-intern a in the new generation.
        ca = _class_of(a)
    hit = _DECISIONS.get((ca << _CLASS_BITS) | cb)
    if hit is None:
        hit = _decide(ca, cb)
    return hit


def _contains_fast(outer: LogicalRegion, inner: LogicalRegion) -> bool:
    """Flat-dict memo of ``region_contains`` for the retirement path."""
    key = (outer.uid, inner.uid)
    hit = _CONTAINS.get(key)
    if hit is None:
        hit = cached_region_contains(outer, inner)
        if len(_CONTAINS) >= _MAX_DECISIONS:
            _CONTAINS.clear()
        _CONTAINS[key] = hit
    return hit


def _sorted_fids(req: RegionRequirement) -> Tuple[int, ...]:
    """Sorted field ids, computed once per requirement object."""
    fids = getattr(req, "_om_fids", None)
    if fids is None:
        fids = tuple(sorted(req.field_ids()))
        object.__setattr__(req, "_om_fids", fids)
    return fids


class _PointBucket:
    """All point-epoch entries sharing one requirement class.

    ``shard`` is the entries' common shard (-1 once entries of two shards
    were added): a bucket of the scanning task's own shard yields no
    cross-shard edge, so the scan-time fence proof skips it.
    """

    __slots__ = ("cid", "rep", "is_reduce", "entries", "tasks", "stamps",
                 "shard")

    def __init__(self, cid: int, rep: RegionRequirement,
                 shard: int) -> None:
        self.cid = cid
        self.rep = rep
        self.is_reduce = rep.privilege.is_reduce
        self.entries: List[Tuple[PointTask, RegionRequirement]] = []
        self.tasks: List[PointTask] = []     # parallel: emitted on match
        self.stamps: List[Tuple[Optional[OMNode], int]] = []  # parallel
        self.shard = shard


def _null_clock() -> Optional[OMNode]:
    return None


class _PointEpoch:
    """One point-level epoch, bucketed by interned requirement class.

    The class triple (privilege, region, field ids) holds exactly the
    inputs of ``requirements_conflict``, so the pairwise test against a
    new requirement has one answer per bucket; the scan makes that
    decision with one flat-table probe and emits the bucket's tasks.
    """

    __slots__ = ("_buckets", "_members", "_op_counts", "_next", "_size",
                 "_reduce_size", "_gen", "_clock")

    def __init__(self, clock: Callable[[], Optional[OMNode]] = _null_clock
                 ) -> None:
        self._buckets: Dict[int, _PointBucket] = {}
        self._members: Set[Tuple[PointTask, RegionRequirement]] = set()
        self._op_counts: Dict[int, int] = {}   # id(op) -> live entry count
        self._next = 0
        self._size = 0
        self._reduce_size = 0   # entries in reduce buckets (reduce_only scans)
        self._gen = _GEN
        self._clock = clock

    def _refresh(self) -> None:
        """Re-intern every bucket's class after a generation bump."""
        buckets = list(self._buckets.values())
        self._buckets = {}
        for b in buckets:
            b.cid = _intern_class(b.rep)
            self._buckets[b.cid] = b
        self._gen = _GEN

    def add(self, task: PointTask, req: RegionRequirement,
            unique: bool = False) -> None:
        entry = (task, req)
        if unique and entry in self._members:
            return
        self._members.add(entry)
        cid = _class_of(req)
        if self._gen != _GEN:
            self._refresh()
        b = self._buckets.get(cid)
        if b is None:
            b = _PointBucket(cid, req, task.shard)
            self._buckets[cid] = b
        elif b.shard != task.shard:
            b.shard = -1
        b.entries.append(entry)
        b.tasks.append(task)
        b.stamps.append((self._clock(), self._next))
        self._next += 1
        self._size += 1
        if b.is_reduce:
            self._reduce_size += 1
        opid = id(task.op)
        self._op_counts[opid] = self._op_counts.get(opid, 0) + 1

    def match(self, task: PointTask, req: RegionRequirement,
              reduce_only: bool = False
              ) -> Tuple[int, List[PointTask], Optional[List[_PointBucket]]]:
        """(entries scanned, conflicting prior tasks, cross buckets) — the
        counts and task set are the ones the naive per-entry loop reports
        for this epoch.  The cross buckets are the matched buckets holding
        an entry of another shard than ``task``'s (the only ones that can
        yield a cross-shard edge); None from the same-op slow path, whose
        matches carry no bucket."""
        if reduce_only and not self._reduce_size:
            return 0, [], []      # no reduce entries: nothing scanned either way
        if id(task.op) in self._op_counts:
            scanned, matched = self._match_with_self(task, req, reduce_only)
            return scanned, matched, None
        qcid = _class_of(req)
        if self._gen != _GEN:
            self._refresh()
        matched: List[PointTask] = []
        cross: List[_PointBucket] = []
        shard = task.shard
        decisions = _DECISIONS
        if reduce_only:
            scanned = 0
            for b in self._buckets.values():
                if not b.is_reduce:
                    continue
                scanned += len(b.entries)
                hit = decisions.get((b.cid << _CLASS_BITS) | qcid)
                if hit is None:
                    hit = _decide(b.cid, qcid)
                if hit:
                    matched.extend(b.tasks)
                    if b.shard != shard:
                        cross.append(b)
        else:
            # Every entry is visited, so the scan count is the epoch size.
            scanned = self._size
            for b in self._buckets.values():
                hit = decisions.get((b.cid << _CLASS_BITS) | qcid)
                if hit is None:
                    hit = _decide(b.cid, qcid)
                if hit:
                    matched.extend(b.tasks)
                    if b.shard != shard:
                        cross.append(b)
        return scanned, matched, cross

    def _match_with_self(self, task, req, reduce_only):
        """Slow path preserving the naive same-op skip semantics (points of
        the op under analysis are normally never in the epochs yet; this
        guards the invariant rather than assuming it)."""
        qcid = _class_of(req)
        if self._gen != _GEN:
            self._refresh()
        scanned = 0
        matched: List[PointTask] = []
        for b in self._buckets.values():
            if reduce_only and not b.is_reduce:
                continue
            live = [e[0] for e in b.entries if e[0].op is not task.op]
            scanned += len(live)
            hit = _DECISIONS.get((b.cid << _CLASS_BITS) | qcid)
            if hit is None:
                hit = _decide(b.cid, qcid)
            if hit:
                matched.extend(live)
        return scanned, matched

    def _retire_bucket(self, cid: int,
                       keep_ids: Optional[Set[int]] = None) -> None:
        """Drop a bucket's entries, keeping those whose task id is in
        ``keep_ids`` (None keeps nothing)."""
        b = self._buckets[cid]
        if keep_ids:
            keep = [i for i, e in enumerate(b.entries)
                    if id(e[0]) in keep_ids]
        else:
            keep = []
        keep_set = set(keep)
        dropped = 0
        for i, entry in enumerate(b.entries):
            if i in keep_set:
                continue
            dropped += 1
            self._members.discard(entry)
            opid = id(entry[0].op)
            n = self._op_counts.get(opid, 0) - 1
            if n <= 0:
                self._op_counts.pop(opid, None)
            else:
                self._op_counts[opid] = n
        self._size -= dropped
        if b.is_reduce:
            self._reduce_size -= dropped
        if keep:
            b.entries = [b.entries[i] for i in keep]
            b.tasks = [b.tasks[i] for i in keep]
            b.stamps = [b.stamps[i] for i in keep]
        else:
            del self._buckets[cid]

    def _doomed(self, bound: LogicalRegion) -> List[int]:
        """Bucket cids whose region is covered by ``bound`` (memo probes
        inlined: this runs once per write requirement per field)."""
        contains = _CONTAINS
        buid = bound.uid
        doomed = []
        for cid, b in self._buckets.items():
            region = b.rep.region
            hit = contains.get((buid, region.uid))
            if hit is None:
                hit = _contains_fast(bound, region)
            if hit:
                doomed.append(cid)
        return doomed

    def retire_contained(self, bound: LogicalRegion) -> None:
        """Drop every entry whose region is covered by ``bound``."""
        for cid in self._doomed(bound):
            self._retire_bucket(cid)

    def retire_contained_except(self, bound: LogicalRegion,
                                keep_ids: Set[int]) -> None:
        """Group retirement: drop covered entries unless the task is one of
        the retiring launch's own points (``keep_ids`` holds their ids)."""
        for cid in self._doomed(bound):
            self._retire_bucket(cid, keep_ids)

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Tuple[PointTask, RegionRequirement]]:
        for b in self._buckets.values():
            yield from b.entries

    def check_stamps(self) -> None:
        """Stamp order must equal insertion order: within and across
        buckets, live coarse labels are non-decreasing along fine
        counters (test hook for the two-component timestamp claim)."""
        stamped = [s for b in self._buckets.values() for s in b.stamps]
        stamped.sort(key=lambda s: s[1])
        labels = [(-1 if n is None else n.label) for n, _i in stamped]
        assert labels == sorted(labels), \
            "coarse stamp components regress along insertion order"


class _FieldState:
    """Point-level epoch indexes per (region tree, field)."""

    __slots__ = ("write_epoch", "read_epoch")

    def __init__(self, clock: Callable[[], Optional[OMNode]] = _null_clock
                 ) -> None:
        self.write_epoch = _PointEpoch(clock)
        self.read_epoch = _PointEpoch(clock)


def _contains(outer: LogicalRegion, inner: LogicalRegion) -> bool:
    return cached_region_contains(outer, inner)


class FineAnalysis:
    """Incremental precise analysis over expanded point tasks.

    ``analyze(op)`` expands the operation into point tasks, computes their
    dependences against all prior points (epoch-pruned), and attributes the
    per-point analysis work to the owning shard.  Edge classification
    (local/cross) feeds both the simulator's cost model and the fence
    soundness check.

    ``fences`` is the coarse stage's fence store, when the caller runs the
    coarse stage ahead of this one (the pipeline does).  Its era node is
    the coarse component of new epoch-entry timestamps, and the scan
    proves fence coverage of each cross-shard edge as it finds it, so
    :meth:`uncovered_cross_edges` re-checks only the edges it could not
    prove.  Standalone use stamps a null coarse component and checks
    every cross edge in full.
    """

    def __init__(self, num_shards: int,
                 profiler: Optional[Profiler] = None,
                 fences: Optional[FenceStore] = None):
        self.num_shards = num_shards
        self.profiler = profiler if profiler is not None else get_profiler()
        self.result = FineResult()
        self._clock = fences.era_node if fences is not None else _null_clock
        self._state: Dict[Tuple[int, int], _FieldState] = {}
        # Precise in-edges added while analyzing the most recent op, so the
        # pipeline can hand them to the trace recorder without rescanning.
        self.last_op_edges: List[Tuple[PointTask, PointTask]] = []
        # Scan-time coverage proofs: which store (and which version of it)
        # they were taken against, how many cross edges they settled, and
        # the cross edges left for the full any-pair check.
        self._fences = fences
        self._fences_version = fences.version if fences is not None else -1
        self._proven = 0
        self._unproven: List[Tuple[PointTask, PointTask]] = []
        # Cross edges handed to the any-pair check, summed over calls of
        # uncovered_cross_edges (0 when every edge was proven at scan time).
        self.fallback_edges = 0

    def analyze(self, op: Operation) -> List[PointTask]:
        self.last_op_edges = []
        tasks: List[PointTask] = []
        for point in op.points():
            shard = op.shard_of(point, self.num_shards)
            task = PointTask(op, point, shard)
            tasks.append(task)
            self.result.points_per_shard[shard] = \
                self.result.points_per_shard.get(shard, 0) + 1
        # Points within one group launch are pairwise independent by
        # construction (the group-launch well-formedness condition), so they
        # are analyzed against prior state only, mirroring how each shard's
        # fine stage treats a whole group as one arrival.
        for task in tasks:
            self._analyze_point(task)
        for task in tasks:
            self._update_point(task)
        self._retire_dominated(op, tasks)
        prof = self.profiler
        if prof.enabled:
            m = prof.metrics
            m.count("fine.points", len(tasks))
            m.count("fine.edges", len(self.last_op_edges))
            m.count("fine.cross_edges",
                    sum(1 for a, b in self.last_op_edges
                        if a.shard != b.shard))
        return tasks

    def register_replayed(self, op: Operation,
                          tasks: List[PointTask]) -> None:
        """Fold trace-replayed point tasks into the epoch state (no scan).

        Keeps post-trace analysis correct: later operations must find the
        replayed writers/readers in the epochs, or they would silently
        order themselves against pre-trace state.
        """
        for task in tasks:
            self._update_point(task)
        self._retire_dominated(op, tasks)

    def _retire_dominated(self, op: Operation, tasks: List[PointTask]) -> None:
        """Group-level epoch retirement: keep the fine state bounded.

        A group write over a *complete, disjoint* partition collectively
        covers its parent region, so every older user inside that parent is
        transitively ordered through some piece of this launch (the piece
        containing any shared point) — older entries can be dropped without
        losing any future ordering.  Without this, ghost readers accumulate
        forever and the fine analysis turns quadratic in program length.
        """
        from ..regions import Partition

        if not op.is_group:
            return
        own = {id(t) for t in tasks}
        for cr in op.coarse_reqs:
            if not cr.privilege.writes:
                continue
            upper = cr.upper
            if not (isinstance(upper, Partition) and upper.disjoint
                    and upper.complete):
                continue
            parent = upper.parent_region
            for f in cr.fields:
                state = self._state.get((parent.tree_id, f.fid))
                if state is None:
                    continue
                state.read_epoch.retire_contained_except(parent, own)
                state.write_epoch.retire_contained_except(parent, own)

    def _analyze_point(self, task: PointTask) -> None:
        result = self.result
        result.graph.tasks.add(task)
        deps: Set[PointTask] = set()
        proofs: List[Tuple[_PointBucket, int]] = []
        slow: List[PointTask] = []
        states = self._state
        for req in task.requirements:
            tree_id = req.region.tree_id
            for fid in _sorted_fids(req):
                state = states.get((tree_id, fid))
                if state is None:
                    continue
                self._scan(task, req, state, deps, proofs, slow)
        if not deps:
            return
        unproven = (_unproven_deps(task, proofs, slow)
                    if proofs or slow else None)
        graph_deps = result.graph.deps
        local_add = result.local_edges.add
        cross_add = result.cross_edges.add
        edge_append = self.last_op_edges.append
        tshard = task.shard
        proven = 0
        for prev in deps:
            edge = (prev, task)
            graph_deps.add(edge)
            edge_append(edge)
            if prev.shard == tshard:
                local_add(edge)
            else:
                cross_add(edge)
                if unproven and prev in unproven:
                    self._unproven.append(edge)
                else:
                    proven += 1
        self._proven += proven

    def _scan(self, task: PointTask, req: RegionRequirement,
              state: _FieldState, deps: Set[PointTask],
              proofs: List[Tuple[_PointBucket, int]],
              slow: List[PointTask]) -> None:
        """Collect ``req``'s conflicting prior tasks into ``deps``; when
        proving, also record one ``(bucket, thr)`` proof per matched cross
        bucket, with ``thr`` the latest fence position at or before this op
        that orders the pair's data.  An entry's edge is then covered iff
        its op seq is below ``thr`` — exactly the ``covers`` test the
        any-pair check makes for this requirement pair.  Slow-path matches
        get no proof."""
        priv = req.privilege
        if priv.writes or priv.is_reduce:
            probes = ((state.read_epoch, False), (state.write_epoch, False))
        else:
            probes = ((state.write_epoch, False), (state.read_epoch, True))
        shard = task.shard
        scans = self.result.scans_per_shard
        for epoch, reduce_only in probes:
            if not epoch._size:
                continue
            scanned, matched, cross = epoch.match(task, req,
                                                  reduce_only=reduce_only)
            if scanned:
                scans[shard] = scans.get(shard, 0) + scanned
            if not matched:
                continue
            deps.update(matched)
            fences = self._fences
            if fences is None:
                continue
            if cross is None:
                slow.extend(matched)
                continue
            for b in cross:
                thr = fences.latest_reaching(
                    task.op.seq, req.region,
                    _sorted_fids(req) + _sorted_fids(b.rep))
                proofs.append((b, thr))

    def _update_point(self, task: PointTask) -> None:
        clock = self._clock
        for req in task.requirements:
            tree_id = req.region.tree_id
            for fid in _sorted_fids(req):
                key = (tree_id, fid)
                state = self._state.get(key)
                if state is None:
                    state = _FieldState(clock)
                    self._state[key] = state
                if req.privilege.writes:
                    if state.read_epoch._size:
                        state.read_epoch.retire_contained(req.region)
                    if state.write_epoch._size:
                        state.write_epoch.retire_contained(req.region)
                    state.write_epoch.add(task, req)
                else:
                    state.read_epoch.add(task, req, unique=True)

    def add_replayed_edges(
            self, edges: Iterable[Tuple[PointTask, PointTask]]) -> None:
        """Join trace-replayed precise edges to the result.  They were not
        found by a scan, so cross-shard ones carry no coverage proof and
        :meth:`uncovered_cross_edges` checks them in full."""
        result = self.result
        cross = result.cross_edges
        for edge in edges:
            prev, nxt = edge
            result.graph.add_dep(prev, nxt)
            if prev.shard == nxt.shard:
                result.local_edges.add(edge)
            elif edge not in cross:
                cross.add(edge)
                self._unproven.append(edge)

    # -- soundness of fence elision ------------------------------------------------

    def uncovered_cross_edges(
        self, coarse: CoarseResult
    ) -> List[Tuple[PointTask, PointTask]]:
        """Cross-shard precise dependences not ordered by any fence.

        Must be empty for a sound analysis: this is the property the coarse
        stage's conservative fence insertion guarantees and its symbolic
        elision must preserve.

        An edge is covered when some conflicting requirement pair of its
        two tasks is ordered by a fence (``covers_cross_edge``).  The scan
        already proved that for most edges against the store it was given;
        those proofs stand while ``coarse.fences`` is that same store, its
        version is unchanged (fences only add coverage; ``clear`` removes
        it) and every cross edge is accounted for as proven or unproven.
        Then only the unproven edges are checked here; otherwise every
        cross edge is.  Either way the verdict is the full check's.
        """
        cross = self.result.cross_edges
        store = self._fences
        proofs_hold = (store is not None and coarse.fences is store
                       and store.version == self._fences_version
                       and len(cross) == self._proven + len(self._unproven))
        edges: Collection[Tuple[PointTask, PointTask]] = (
            self._unproven if proofs_hold else cross)
        self.fallback_edges += len(edges)
        covers = coarse.covers_cross_edge
        bad = []
        for prev, task in edges:
            if not _covered_by_any_pair(prev, task, covers):
                bad.append((prev, task))
        return bad


def _unproven_deps(task: PointTask, proofs: List[Tuple[_PointBucket, int]],
                   slow: List[PointTask]) -> Set[PointTask]:
    """Cross-shard prior tasks of ``task`` that no proof covers (an edge is
    proven as soon as any one of its requirement pairs is)."""
    shard = task.shard
    cands = {t for t in slow if t.shard != shard}
    for b, thr in proofs:
        cands.update(t for t in b.tasks
                     if t.shard != shard and t.op.seq >= thr)
    if cands:
        for b, thr in proofs:
            cands.difference_update(t for t in b.tasks if t.op.seq < thr)
    return cands


def _covered_by_any_pair(prev: PointTask, task: PointTask,
                         covers: Callable[..., bool]) -> bool:
    """Is some conflicting requirement pair of the edge fence-ordered?
    Conflict tests go through the interned decision table and coverage
    through the fence channels, so each probe is O(1); the first covering
    pair settles the edge."""
    pseq = prev.op.seq
    tseq = task.op.seq
    for preq in prev.requirements:
        for nreq in task.requirements:
            if interned_requirements_conflict(preq, nreq) and covers(
                    pseq, tseq, nreq.region, nreq.fields | preq.fields):
                return True
    return False
