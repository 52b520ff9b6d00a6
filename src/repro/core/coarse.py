"""Coarse-stage dependence analysis (paper §4.1, Fig. 9 top).

Every shard runs this stage over **all** operations, in program order.  The
stage discovers dependences at *task-group granularity* without enumerating
group points: each group is represented by its region-tree upper bound (the
partition named in the launch), and a field-epoch state machine per
(region tree, field) finds the prior operations a new one conflicts with.
Its cost is therefore independent of machine size — the property that makes
DCR scale.

For each discovered group-level dependence the stage decides whether a
*cross-shard fence* is needed (``requires_shard_fence`` in Fig. 9):

* trivially elided when only one shard exists, or when both operations are
  individual operations owned by the same shard (fine stages analyze their
  local stream in program order);
* **symbolically elided** for the common data-parallel case: two group
  launches over the same launch domain with the same sharding function where
  every conflicting requirement pair names the *same disjoint partition*
  through the *same projection function* — then every point-level dependence
  is provably shard-local (§4.1 observation 2);
* otherwise a fence scoped to the conflicting region and fields is inserted
  at the later operation's position, implemented at run time as a no-payload
  all-gather (§4.2).

Scaling note (DePa, Westrick et al., PPoPP '22): ordering and conflict
queries are answered in O(1) by two structures from `repro.core.om`:

* every fence position carries an **order-maintenance label** on a single
  spine (:class:`~repro.core.om.OMLabeler`), and the :class:`FenceStore`
  projects fences onto *channels* — one global channel plus one per
  (scope region, field) — each holding dense per-position rank stamps
  (:class:`~repro.core.om.SeqStamps`).  ``covers`` is then one rank
  comparison per channel the query can touch, independent of how many
  fences exist (previously an O(log F) bisect plus a window walk);
* epoch buckets are keyed by **interned requirement classes**: each
  distinct (privilege, bound-region) pair gets a small integer class id,
  and the conflict decision for a (bucket class, query class) pair is a
  single flat ``dict[(int, int)]`` probe (previously a privilege-table
  lookup plus an LRU alias probe per bucket, re-hashing dataclasses and
  enums every scan).

Epoch entries additionally carry two-component *(coarse, fine)* timestamps:
the coarse component is the fence-spine OM node current at insertion, the
fine component a per-epoch insertion counter.  Comparing stamps compares
the *live* OM labels (never snapshots — labels move on relabels, spine
order does not), so stamp order provably equals insertion order and the
bucketed scan reproduces the naive scan's observable order exactly.

The indexed implementation is *observationally identical* to the naive
per-entry scan — same dependences in the same order, same fences, same
``users_scanned`` counts — a property pinned by the differential tests
(tests/core/test_indexed_equivalence.py against the reference
implementations in tests/helpers.py).
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..obs.events import (CAT_COARSE, CONTROL_SHARD, EV_COARSE_GROUP,
                          EV_FENCE_ELIDE, EV_FENCE_INSERT)
from ..obs.profiler import Profiler, get_profiler
from ..oracle import Privilege
from ..regions import (LogicalRegion, Partition, cached_may_alias,
                       cached_region_contains, register_cache_clearer)
from .om import OMLabeler, OMNode, SeqStamps
from .operation import CoarseRequirement, Operation

__all__ = ["Fence", "FenceStore", "CoarseResult", "CoarseAnalysis",
           "clear_coarse_decision_caches", "coarse_decision_stats"]


def _region_contains(outer: LogicalRegion, inner: LogicalRegion) -> bool:
    """True when ``outer`` provably covers every point of ``inner``."""
    return cached_region_contains(outer, inner)


# -- interned requirement classes -------------------------------------------------
#
# A coarse scan's per-bucket decision depends only on (privilege, bound
# region) of both sides.  Each distinct pair is interned to a small int —
# its *class id* — and decisions live in a flat dict keyed on (bucket cid,
# query cid) int pairs.  Region uids are never reused and privileges are
# immutable, so a decision never goes stale; the tables are bounded only
# to cap memory in very long-lived processes (the service path), by
# resetting everything and bumping a generation that lazily invalidates
# every cid cached on requirement objects or bucket structures.

_MAX_CLASSES = 1 << 20
_MAX_DECISIONS = 1 << 22

_GEN = 0
_CLASS_IDS: Dict[Tuple[Privilege, int], int] = {}
_CLASS_REPS: List[Tuple[Privilege, LogicalRegion]] = []
_DECISIONS: Dict[Tuple[int, int], bool] = {}
_CONTAINS: Dict[Tuple[int, int], bool] = {}
# Serializes interning misses and resets (shards on loopback threads share
# these tables; see repro.core.fine).  Hits stay lock-free.
_TABLE_LOCK = threading.RLock()


def clear_coarse_decision_caches() -> None:
    """Reset the interned class/decision tables (tests and benchmarks;
    never required for correctness)."""
    global _GEN
    with _TABLE_LOCK:
        _CLASS_IDS.clear()
        del _CLASS_REPS[:]
        _DECISIONS.clear()
        _CONTAINS.clear()
        _GEN += 1


def coarse_decision_stats() -> Dict[str, int]:
    return {"classes": len(_CLASS_REPS), "decisions": len(_DECISIONS),
            "generation": _GEN}


# The class tables key on region uids; whenever the region caches are
# cleared because uids are about to be reused (fresh_id_epoch), these
# tables must go with them.
register_cache_clearer(clear_coarse_decision_caches)


def _intern_class(privilege: Privilege, bound: LogicalRegion) -> int:
    key = (privilege, bound.uid)
    cid = _CLASS_IDS.get(key)
    if cid is None:
        with _TABLE_LOCK:
            cid = _CLASS_IDS.get(key)
            if cid is None:
                if len(_CLASS_REPS) >= _MAX_CLASSES:
                    clear_coarse_decision_caches()
                cid = len(_CLASS_REPS)
                _CLASS_REPS.append((privilege, bound))
                _CLASS_IDS[key] = cid
    return cid


def _class_of(req: CoarseRequirement, bound: LogicalRegion) -> int:
    """Class id of a requirement, cached on the (frozen) object and
    revalidated against the table generation."""
    tag = getattr(req, "_om_ccid", None)
    if tag is not None and tag[0] == _GEN:
        return tag[1]
    cid = _intern_class(req.privilege, bound)
    object.__setattr__(req, "_om_ccid", (_GEN, cid))
    return cid


def _decide(bcid: int, qcid: int) -> bool:
    """Compute-and-memoize one (bucket, query) conflict decision from the
    class representatives — exactly the naive per-entry test."""
    bpriv, bregion = _CLASS_REPS[bcid]
    qpriv, qbound = _CLASS_REPS[qcid]
    hit = bool(bpriv.conflicts_with(qpriv)
               and cached_may_alias(bregion, qbound))
    if len(_DECISIONS) >= _MAX_DECISIONS:
        _DECISIONS.clear()
    _DECISIONS[(bcid, qcid)] = hit
    return hit


def _contains_fast(outer: LogicalRegion, inner: LogicalRegion) -> bool:
    """Flat-dict memo of ``region_contains`` (skips the LRU recency
    shuffle of the shared PairCache on the retirement hot path)."""
    key = (outer.uid, inner.uid)
    hit = _CONTAINS.get(key)
    if hit is None:
        hit = cached_region_contains(outer, inner)
        if len(_CONTAINS) >= _MAX_DECISIONS:
            _CONTAINS.clear()
        _CONTAINS[key] = hit
    return hit


def _sorted_fids(req) -> Tuple[int, ...]:
    """Sorted field ids of a requirement, computed once per object (the
    per-op analysis loops re-visit every requirement's fields several
    times; re-sorting them dominated the loop overhead)."""
    fids = getattr(req, "_om_fids", None)
    if fids is None:
        fids = tuple(sorted(f.fid for f in req.fields))
        object.__setattr__(req, "_om_fids", fids)
    return fids


@dataclass(frozen=True)
class Fence:
    """A scoped cross-shard fence inserted before operation ``at_seq``.

    Orders the fine-stage analysis of all prior operations touching
    ``region``/``fields`` (on every shard) before any later one.  A fence
    with ``region is None`` is a *global* analysis fence covering every
    region tree (used as the entry precondition of trace replays, and as
    the sound scope when one dependence spans multiple region trees).
    """

    at_seq: int
    region: Optional[LogicalRegion]
    fields: frozenset


class _Channel:
    """One scoped fence channel: all fences sharing a scope region,
    projected per field onto rank stamps."""

    __slots__ = ("uid", "region", "by_fid")

    def __init__(self, region: LogicalRegion) -> None:
        self.uid = region.uid
        self.region = region
        self.by_fid: Dict[int, SeqStamps] = {}


class FenceStore:
    """Deduplicated, insertion-ordered fence set with O(1) order queries.

    Presents the ``List[Fence]`` API the rest of the system grew up with
    (``append``/``extend``/``clear``/iteration/``len``/``==`` against
    lists), while maintaining:

    * a set for O(1) dedupe and membership (``add`` returns whether the
      fence was new — the pipeline's replay integration relies on this);
    * an **order-maintenance spine**: every fence position gets an
      :class:`~repro.core.om.OMNode` whose label answers "which of these
      two fences comes first?" in one integer comparison, and whose
      relative order survives relabeling (the labels move, the order does
      not — which is why trace-replay rebinding via :meth:`add` preserves
      every outstanding timestamp);
    * **channels** with dense rank stamps: one global channel plus one per
      (scope region, field id).  A fence registers its position on the
      channels it can order; ``covers`` compares two ranks per reachable
      channel instead of walking or bisecting the fence list, so its cost
      is flat in the number of fences (the fence-population scaling sweep
      in benchmarks/bench_headline.py guards exactly this).

    Soundness of the index: a fence is immutable and its position never
    changes, so insertion-time channel registration is final.  Fences
    only ever add coverage; the one way to lose it is :meth:`clear`,
    which bumps :attr:`version` so coverage proofs taken earlier (the
    fine stage's scan-time proofs) are known to be stale.
    """

    __slots__ = ("_fences", "_set", "_spine", "_keys", "_nodes",
                 "_global", "_scoped", "_alias_memo", "_tick", "_version")

    def __init__(self, fences: Sequence[Fence] = ()) -> None:
        self._fences: List[Fence] = []
        self._set: Set[Fence] = set()
        self._spine = OMLabeler()
        self._keys: List[Tuple[int, int]] = []    # sorted (at_seq, tick)
        self._nodes: List[OMNode] = []            # parallel spine nodes
        self._global = SeqStamps()
        self._scoped: Dict[int, Dict[int, _Channel]] = {}  # tree -> uid -> ch
        self._alias_memo: Dict[Tuple[int, int], bool] = {}
        self._tick = 0
        self._version = 0
        for f in fences:
            self.add(f)

    # -- mutation -----------------------------------------------------------------

    def add(self, fence: Fence) -> bool:
        """Insert unless an identical fence exists; True when inserted.

        Analysis inserts fences in program order (the monotone fast path:
        an O(1) spine append).  Out-of-order inserts — bulk loads, tests —
        bisect into the spine; the OM labeler absorbs the insert with an
        amortized O(1) relabel and every existing node keeps its relative
        order, so timestamps handed out earlier stay valid.
        """
        if fence in self._set:
            return False
        self._set.add(fence)
        self._fences.append(fence)
        self._tick += 1
        key = (fence.at_seq, self._tick)
        keys = self._keys
        if not keys or key >= keys[-1]:
            node = self._spine.insert_last()
            keys.append(key)
            self._nodes.append(node)
        else:
            idx = bisect_right(keys, key)
            node = self._spine.insert_before(self._nodes[idx])
            keys.insert(idx, key)
            self._nodes.insert(idx, node)
        region = fence.region
        if region is None:
            self._global.note(fence.at_seq, node)
        else:
            chans = self._scoped.setdefault(region.tree_id, {})
            chan = chans.get(region.uid)
            if chan is None:
                chan = _Channel(region)
                chans[region.uid] = chan
            by_fid = chan.by_fid
            for fl in fence.fields:
                ss = by_fid.get(fl.fid)
                if ss is None:
                    ss = SeqStamps()
                    by_fid[fl.fid] = ss
                ss.note(fence.at_seq, node)
        return True

    def append(self, fence: Fence) -> None:
        self.add(fence)

    def extend(self, fences: Sequence[Fence]) -> None:
        for f in fences:
            self.add(f)

    def clear(self) -> None:
        self._fences.clear()
        self._set.clear()
        self._spine = OMLabeler()
        self._keys.clear()
        self._nodes.clear()
        self._global = SeqStamps()
        self._scoped.clear()
        self._alias_memo.clear()
        self._version += 1

    # -- queries ------------------------------------------------------------------

    @property
    def version(self) -> int:
        """Bumped by every :meth:`clear` (the only removal of coverage)."""
        return self._version

    def covers(self, earlier_seq: int, later_seq: int,
               region: LogicalRegion, fields: frozenset) -> bool:
        """Any fence in (earlier_seq, later_seq] whose scope orders the
        given data?  One rank comparison on the global channel, then one
        per (aliasing scope, query field) channel — O(1) per probe and
        flat in the total fence population.

        Equivalent to the naive walk: a fence covers the edge iff it is
        global, or some field in ``f.fields & fields`` exists and
        ``may_alias(f.region, region)`` — i.e. iff the fence registered a
        position on a channel this query can reach.
        """
        if self._global.covers(earlier_seq, later_seq):
            return True
        chans = self._scoped.get(region.tree_id)
        if not chans:
            return False
        memo = self._alias_memo
        ruid = region.uid
        for chan in chans.values():
            mkey = (chan.uid, ruid)
            hit = memo.get(mkey)
            if hit is None:
                hit = cached_may_alias(chan.region, region)
                memo[mkey] = hit
            if not hit:
                continue
            by_fid = chan.by_fid
            for fl in fields:
                ss = by_fid.get(fl.fid)
                if ss is not None and ss.covers(earlier_seq, later_seq):
                    return True
        return False

    def latest_reaching(self, later_seq: int, region: LogicalRegion,
                        fids: Sequence[int]) -> int:
        """The latest fence position at or before ``later_seq`` whose
        scope orders ``region``/``fids`` (-1 when none does).

        Reaches the same channels as :meth:`covers`, so for every
        ``earlier_seq``: ``covers(earlier_seq, later_seq, region, fields)``
        iff ``latest_reaching(later_seq, region, fids) > earlier_seq``
        (with ``fids`` the field ids of ``fields``).  One call settles
        coverage for a whole set of earlier operations.
        """
        best = self._global.latest_at(later_seq)
        chans = self._scoped.get(region.tree_id)
        if not chans:
            return best
        memo = self._alias_memo
        ruid = region.uid
        for chan in chans.values():
            mkey = (chan.uid, ruid)
            hit = memo.get(mkey)
            if hit is None:
                hit = cached_may_alias(chan.region, region)
                memo[mkey] = hit
            if not hit:
                continue
            by_fid = chan.by_fid
            for fid in fids:
                ss = by_fid.get(fid)
                if ss is not None:
                    pos = ss.latest_at(later_seq)
                    if pos > best:
                        best = pos
        return best

    def era_node(self) -> Optional[OMNode]:
        """The spine node of the latest fence position — the *coarse*
        component epoch entries stamp at insertion (None before any
        fence).  Successive era nodes only ever move later on the spine,
        so stamps sorted by (live era label, fine counter) reproduce
        insertion order exactly."""
        nodes = self._nodes
        return nodes[-1] if nodes else None

    def positions(self) -> List[int]:
        return sorted({f.at_seq for f in self._fences})

    def om_stats(self) -> Dict[str, int]:
        """Order-maintenance accounting (benchmarks and tests)."""
        return {
            "spine": len(self._spine),
            "relabels": self._spine.relabels,
            "relabeled_nodes": self._spine.relabeled_nodes,
            "channels": 1 + sum(len(ch.by_fid)
                                for chans in self._scoped.values()
                                for ch in chans.values()),
        }

    def check_invariants(self) -> None:
        """Spine and channel consistency (test hook)."""
        self._spine.check_invariants()
        assert len(self._spine) == len(self._fences), \
            "spine does not cover every fence"
        assert self._keys == sorted(self._keys), "spine keys out of order"
        for a, b in zip(self._nodes, self._nodes[1:]):
            assert a.label < b.label, "spine nodes disagree with key order"
        self._global.check_invariants()
        for chans in self._scoped.values():
            for chan in chans.values():
                for ss in chan.by_fid.values():
                    ss.check_invariants()

    # -- list-compatible protocol -------------------------------------------------

    def __iter__(self) -> Iterator[Fence]:
        return iter(self._fences)

    def __len__(self) -> int:
        return len(self._fences)

    def __bool__(self) -> bool:
        return bool(self._fences)

    def __contains__(self, fence: object) -> bool:
        return fence in self._set

    def __getitem__(self, index):
        return self._fences[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FenceStore):
            return self._fences == other._fences
        if isinstance(other, (list, tuple)):
            return self._fences == list(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover
        return f"FenceStore({self._fences!r})"


@dataclass
class CoarseResult:
    """Everything the coarse stage produced for one program."""

    deps: Set[Tuple[Operation, Operation]] = field(default_factory=set)
    fences: FenceStore = field(default_factory=FenceStore)
    fences_elided: int = 0
    users_scanned: int = 0          # pairwise upper-bound tests performed
    ops_analyzed: int = 0

    def fence_positions(self) -> List[int]:
        return sorted({f.at_seq for f in self.fences})

    def covers_cross_edge(self, earlier_seq: int, later_seq: int,
                          region: LogicalRegion, fields: frozenset) -> bool:
        """Is a cross-shard point dependence (earlier -> later) on the given
        data ordered by some fence?  A fence at position p orders all fine
        analysis of ops with seq < p before ops with seq >= p for data
        aliasing its scope (each shard's fine stage runs in program order and
        the fence is a global all-gather at position p).
        """
        return self.fences.covers(earlier_seq, later_seq, region, fields)


def _stamp_key(entry):
    """Sort key of a stamped epoch entry: the *live* label of its coarse
    OM node (relabel-safe — labels are never snapshotted), then the fine
    insertion counter."""
    node, idx = entry[0]
    return (node.label if node is not None else -1, idx)


class _EpochBucket:
    """All epoch entries sharing one requirement class."""

    __slots__ = ("cid", "priv", "region", "is_reduce", "entries")

    def __init__(self, cid: int, priv: Privilege,
                 region: LogicalRegion) -> None:
        self.cid = cid
        self.priv = priv
        self.region = region
        self.is_reduce = priv.is_reduce
        # [((coarse OM node | None, fine counter), op, req), ...]
        self.entries: List[Tuple] = []


def _null_clock() -> Optional[OMNode]:
    return None


class _Epoch:
    """One epoch list, bucketed by interned requirement class.

    All entries of a bucket share the decision inputs of the naive
    per-entry loop — privilege and bound region — so a scan makes *one*
    flat-table decision per bucket (an int-pair dict probe) and then emits
    the bucket's entries.  Every entry carries a two-component
    (coarse OM node, fine counter) timestamp; matches are re-sorted by the
    live stamp order, which provably equals insertion order (the clock's
    era node only moves later on the fence spine), so dependence pairs
    appear in exactly the order the naive scan would have produced them
    (the fence scope starts from ``pairs[0]``, so order is observable).
    """

    __slots__ = ("_buckets", "_members", "_op_counts", "_next", "_size",
                 "_gen", "_clock")

    def __init__(self, clock=_null_clock) -> None:
        self._buckets: Dict[int, _EpochBucket] = {}
        self._members: Set[Tuple] = set()      # (id(op), req) for dedupe
        self._op_counts: Dict[int, int] = {}   # id(op) -> live entry count
        self._next = 0
        self._size = 0
        self._gen = _GEN
        self._clock = clock

    def _refresh(self) -> None:
        """The class tables were reset (generation bump): re-intern every
        bucket's class so cids stay bijective with classes."""
        buckets = list(self._buckets.values())
        self._buckets = {}
        for b in buckets:
            b.cid = _intern_class(b.priv, b.region)
            self._buckets[b.cid] = b
        self._gen = _GEN

    def add(self, op: Operation, req: CoarseRequirement,
            bound: LogicalRegion, unique: bool = False) -> None:
        key = (id(op), req)
        if unique and key in self._members:
            return
        self._members.add(key)
        cid = _class_of(req, bound)
        if self._gen != _GEN:
            self._refresh()
        b = self._buckets.get(cid)
        if b is None:
            b = _EpochBucket(cid, req.privilege, bound)
            self._buckets[cid] = b
        b.entries.append(((self._clock(), self._next), op, req))
        self._next += 1
        self._size += 1
        self._op_counts[id(op)] = self._op_counts.get(id(op), 0) + 1

    def match(self, op: Operation, req: CoarseRequirement,
              bound: LogicalRegion, reduce_only: bool = False
              ) -> Tuple[int, List[Tuple]]:
        """(entries scanned, matches in insertion order) — exactly what the
        naive loop over (op, req) pairs reports for the same epoch."""
        if id(op) in self._op_counts:
            return self._match_with_self(op, req, bound, reduce_only)
        qcid = _class_of(req, bound)
        if self._gen != _GEN:
            self._refresh()
        scanned = 0
        matched: List[Tuple] = []
        decisions = _DECISIONS
        for b in self._buckets.values():
            if reduce_only and not b.is_reduce:
                continue
            entries = b.entries
            scanned += len(entries)
            hit = decisions.get((b.cid, qcid))
            if hit is None:
                hit = _decide(b.cid, qcid)
            if hit:
                matched.extend(entries)
        matched.sort(key=_stamp_key)
        return scanned, [(e[1], e[2]) for e in matched]

    def _match_with_self(self, op, req, bound, reduce_only):
        """Slow path preserving the naive same-op skip semantics (the op
        under analysis is normally never in the epochs; this guards the
        invariant rather than assuming it)."""
        qcid = _class_of(req, bound)
        if self._gen != _GEN:
            self._refresh()
        scanned = 0
        matched: List[Tuple] = []
        for b in self._buckets.values():
            if reduce_only and not b.is_reduce:
                continue
            live = [e for e in b.entries if e[1] is not op]
            scanned += len(live)
            hit = _DECISIONS.get((b.cid, qcid))
            if hit is None:
                hit = _decide(b.cid, qcid)
            if hit:
                matched.extend(live)
        matched.sort(key=_stamp_key)
        return scanned, [(e[1], e[2]) for e in matched]

    def retire_contained(self, bound: LogicalRegion) -> None:
        """Drop every entry whose bound region is covered by ``bound`` —
        the write-retirement rule, decided once per bucket."""
        doomed = [cid for cid, b in self._buckets.items()
                  if _contains_fast(bound, b.region)]
        for cid in doomed:
            b = self._buckets.pop(cid)
            self._size -= len(b.entries)
            for _stamp, op, req in b.entries:
                self._members.discard((id(op), req))
                n = self._op_counts.get(id(op), 0) - 1
                if n <= 0:
                    self._op_counts.pop(id(op), None)
                else:
                    self._op_counts[id(op)] = n

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Tuple[Operation, CoarseRequirement]]:
        entries = [e for b in self._buckets.values() for e in b.entries]
        entries.sort(key=_stamp_key)
        return iter((e[1], e[2]) for e in entries)


class _FieldState:
    """Epoch indexes for one (region-tree root, field): Legion-style."""

    __slots__ = ("write_epoch", "read_epoch")

    def __init__(self, clock=_null_clock) -> None:
        self.write_epoch = _Epoch(clock)
        self.read_epoch = _Epoch(clock)


class CoarseAnalysis:
    """Incremental coarse-stage analysis (one instance per DCR context).

    ``analyze(op)`` assigns the op its program-order ``seq`` and returns the
    newly discovered dependences and fences.  The same object on every shard
    would compute the same result; we run it once and charge its cost to all
    shards in the simulator.
    """

    def __init__(self, num_shards: int,
                 profiler: Optional[Profiler] = None):
        self.num_shards = num_shards
        self.profiler = profiler if profiler is not None else get_profiler()
        self.result = CoarseResult()
        self._clock = self.result.fences.era_node
        self._state: Dict[Tuple[int, int], _FieldState] = {}

    # -- entry point -----------------------------------------------------------

    def analyze(self, op: Operation) -> Tuple[Set[Tuple[Operation, Operation]],
                                              List[Fence]]:
        if op.seq < 0:
            raise ValueError("pipeline must assign op.seq before analysis")
        prof = self.profiler
        profiling = prof.enabled
        if profiling:
            t0 = prof.now_us()
            scans0 = self.result.users_scanned
            elided0 = self.result.fences_elided
        self.result.ops_analyzed += 1

        dep_ops: Dict[Operation, List[Tuple[CoarseRequirement,
                                            CoarseRequirement]]] = {}
        for req in op.coarse_reqs:
            bound = req.bound_region()
            for fid in _sorted_fids(req):
                state = self._state.setdefault((bound.tree_id, fid),
                                               _FieldState(self._clock))
                self._scan(op, req, bound, state, dep_ops)
        for req in op.coarse_reqs:
            bound = req.bound_region()
            for fid in _sorted_fids(req):
                state = self._state[(bound.tree_id, fid)]
                self._update(op, req, bound, state)

        new_deps: Set[Tuple[Operation, Operation]] = set()
        new_fences: List[Fence] = []
        for prev, pairs in dep_ops.items():
            new_deps.add((prev, op))
            fence = self._fence_for(prev, op, pairs)
            if fence is None:
                self.result.fences_elided += 1
            else:
                new_fences.append(fence)
        # Dedupe fences at the same position with identical scope: one
        # all-gather at a position orders everything its scope covers, so
        # duplicates are the same physical fence.  The *deduped* list is
        # what gets returned (and therefore recorded by tracing), so replay
        # integration and PipelineStats count exactly the fences that exist.
        inserted = [f for f in new_fences if self.result.fences.add(f)]
        self.result.deps |= new_deps
        if profiling:
            self._profile_op(op, inserted, t0, scans0, elided0)
        return new_deps, inserted

    def _profile_op(self, op: Operation, fences: List[Fence], t0: float,
                    scans0: int, elided0: int) -> None:
        """Emit the coarse-group span and fence events (profiling only).

        The coarse stage runs identically on *every* shard (that is what
        makes its cost machine-size independent), so its span is charged to
        each shard's timeline, exactly as the simulator charges its cost.
        """
        prof = self.profiler
        dur = prof.now_us() - t0
        scans = self.result.users_scanned - scans0
        elided = self.result.fences_elided - elided0
        name = op.name or op.kind
        for shard in range(self.num_shards):
            prof.complete(shard, CAT_COARSE, EV_COARSE_GROUP, t0, dur,
                          op=name, seq=op.seq, scans=scans)
        for f in fences:
            region = f.region.name if f.region is not None else "<global>"
            prof.instant(CONTROL_SHARD, CAT_COARSE, EV_FENCE_INSERT,
                         at_seq=f.at_seq, region=region,
                         fields=len(f.fields))
            prof.metrics.count(f"coarse.fences.{region}")
        if elided:
            prof.instant(CONTROL_SHARD, CAT_COARSE, EV_FENCE_ELIDE,
                         op=name, seq=op.seq, count=elided)
        m = prof.metrics
        m.count("coarse.ops")
        m.count("coarse.scans", scans)
        m.count("coarse.fences_inserted", len(fences))
        m.count("coarse.fences_elided", elided)

    def register_replayed(self, op: Operation) -> None:
        """Fold a trace-replayed op into the epoch state without scanning.

        Replays skip the dependence scan (their structure comes from the
        recording), but their *effects on the epoch state* must still be
        applied — otherwise operations issued after the trace would compare
        against pre-trace state and miss dependences on replayed work.

        Any fences the replay rebinds land through :meth:`FenceStore.add`
        *before* this runs (pipeline order), so the era node the new epoch
        entries stamp already reflects them — label preservation across
        replay is a property of the spine (order never changes), not of
        this method.
        """
        self.result.ops_analyzed += 1
        for req in op.coarse_reqs:
            bound = req.bound_region()
            for fid in _sorted_fids(req):
                state = self._state.setdefault((bound.tree_id, fid),
                                               _FieldState(self._clock))
                self._update(op, req, bound, state)

    # -- scanning ------------------------------------------------------------------

    def _scan(self, op: Operation, req: CoarseRequirement,
              bound: LogicalRegion, state: _FieldState,
              dep_ops: Dict[Operation, List[Tuple[CoarseRequirement,
                                                  CoarseRequirement]]]) -> None:
        priv = req.privilege

        def check(epoch: _Epoch, reduce_only: bool = False) -> None:
            scanned, matched = epoch.match(op, req, bound,
                                           reduce_only=reduce_only)
            self.result.users_scanned += scanned
            for prev_op, prev_req in matched:
                dep_ops.setdefault(prev_op, []).append((prev_req, req))

        if priv.writes:
            check(state.read_epoch)
            check(state.write_epoch)
        elif priv.is_reduce:
            # Conflicts with writers and with different-op reducers/readers.
            check(state.read_epoch)
            check(state.write_epoch)
        else:  # reader
            check(state.write_epoch)
            # Readers also conflict with reducers parked in the read epoch.
            check(state.read_epoch, reduce_only=True)

    def _update(self, op: Operation, req: CoarseRequirement,
                bound: LogicalRegion, state: _FieldState) -> None:
        if req.privilege.writes:
            # New write epoch for the covered data: drop dominated users
            # (any future conflict with them is transitively ordered via op).
            state.read_epoch.retire_contained(bound)
            state.write_epoch.retire_contained(bound)
            state.write_epoch.add(op, req, bound)
        else:
            state.read_epoch.add(op, req, bound, unique=True)

    # -- fence insertion / elision ----------------------------------------------------

    def _fence_for(self, prev: Operation, op: Operation,
                   pairs: Sequence[Tuple[CoarseRequirement, CoarseRequirement]]
                   ) -> Optional[Fence]:
        if self.num_shards == 1:
            return None
        if self._provably_shard_local(prev, op, pairs):
            return None
        # Scope the fence to the least upper bound of the conflicting data.
        # Both sides of every pair must be covered: the fence orders the
        # *earlier* op's fine analysis (preq's data) against the later one's
        # (nreq's data), so a scope containing only the later bounds would
        # under-synchronize.  A dependence spanning region trees has no
        # common ancestor at all — only a global fence is sound there.
        preq, nreq = pairs[0]
        scope_region: Optional[LogicalRegion] = preq.bound_region()
        scope_fields: frozenset = frozenset()
        for preq, nreq in pairs:
            scope_fields |= (preq.fields | nreq.fields)
            if scope_region is None:
                continue
            for b in (preq.bound_region(), nreq.bound_region()):
                if b.tree_id != scope_region.tree_id:
                    scope_region = None
                    break
                if not _region_contains(scope_region, b):
                    # Fall back to the common root, always a sound scope
                    # within one tree.
                    scope_region = scope_region.root()
        return Fence(at_seq=op.seq, region=scope_region, fields=scope_fields)

    def _provably_shard_local(
        self, prev: Operation, op: Operation,
        pairs: Sequence[Tuple[CoarseRequirement, CoarseRequirement]]) -> bool:
        """The symbolic proof of §4.1 observation 2."""
        if not prev.is_group and not op.is_group:
            return prev.owner_shard % self.num_shards == \
                op.owner_shard % self.num_shards
        if not (prev.is_group and op.is_group):
            return False
        if prev.launch_domain != op.launch_domain:
            return False
        assert prev.sharding is not None and op.sharding is not None
        if prev.sharding.sid != op.sharding.sid:
            return False
        for preq, nreq in pairs:
            if not (isinstance(preq.upper, Partition)
                    and isinstance(nreq.upper, Partition)):
                return False
            if preq.upper.uid != nreq.upper.uid:
                return False
            if not preq.upper.disjoint:
                return False
            pproj = preq.projection.pid if preq.projection else 0
            nproj = nreq.projection.pid if nreq.projection else 0
            if pproj != nproj:
                return False
        return True
