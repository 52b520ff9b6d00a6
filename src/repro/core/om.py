"""Order maintenance: O(1) ordering labels for the analysis core.

*DePa* (Westrick et al., PPoPP '22) shows that dependence/order queries in
task-parallel runtimes can be answered in O(1) by giving every program
position a compact two-component timestamp and comparing timestamps
instead of searching a history structure.  This module provides the two
pieces the DCR analysis core builds on:

* :class:`OMLabeler` — the classic *list-labeling* order-maintenance
  structure (Dietz–Sleator / Bender et al.): a sequence of positions, each
  holding an integer label such that list order == label order.  Appending
  or inserting between neighbors is amortized O(1); when two neighbors
  have no label gap left, the smallest enclosing power-of-two label range
  whose density is below a geometric threshold is *relabeled* (evenly
  respaced), which is what keeps the amortized bound.  Comparing two
  positions is a single integer comparison.

* :class:`SeqStamps` — a dense map from program positions (the pipeline's
  ``op.seq`` indexes) to two-component *(coarse, fine)* timestamps for one
  fence channel: ``fine`` is the rank (count) of channel positions at or
  before the sequence point, ``coarse`` is the OM label of the latest such
  position.  "Is there a fence in ``(earlier, later]``?" is then
  ``fine(later) > fine(earlier)`` — one comparison, independent of how
  many fences exist (the flat-scaling property the fence-population
  benchmark sweep guards).

Both structures are pure ordering machinery: they never decide *whether*
two accesses conflict, only *where* positions sit relative to each other,
so the differential harness can pin the indexed analysis byte-identical
to the naive references while the query cost drops to O(1).
"""

from __future__ import annotations

from bisect import bisect_right, insort
from typing import Iterator, List, Optional, Tuple

__all__ = ["OMCapacityError", "OMNode", "OMLabeler", "SeqStamps"]


class OMCapacityError(RuntimeError):
    """The label space cannot hold another position (tiny capacities only).

    With the default 62-bit label space this is unreachable in practice;
    tests construct labelers with very small capacities to force relabel
    regions and, ultimately, this error.
    """


class OMNode:
    """One position in the maintained order.  ``label`` is private to the
    labeler and may change on relabels; only its *relative* order against
    other labels of the same labeler is meaningful."""

    __slots__ = ("label", "prev", "next")

    def __init__(self, label: int) -> None:
        self.label = label
        self.prev: Optional["OMNode"] = None
        self.next: Optional["OMNode"] = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"OMNode({self.label})"


class OMLabeler:
    """List-labeling order maintenance with amortized O(1) relabeling.

    Labels live in ``[0, 2**capacity_bits)``.  Appends advance by a fixed
    gap; inserts between neighbors take the midpoint.  When no gap is
    available, :meth:`_relabel_region` finds the smallest enclosing
    power-of-two label range whose occupancy is below the geometric
    density threshold ``(2/branch)**level`` and respaces its members
    evenly — the standard amortization argument charges each relabeled
    node against the inserts that densified the range.

    ``order(a, b)`` is a single integer comparison and stays valid across
    relabels (relabeling preserves relative order, checked by
    :meth:`check_invariants` and the property suite in
    tests/core/test_om.py).
    """

    def __init__(self, capacity_bits: int = 62, branch: float = 1.5) -> None:
        if capacity_bits < 3:
            raise ValueError("capacity_bits must be >= 3")
        if not 1.0 < branch < 2.0:
            raise ValueError("branch must be in (1, 2)")
        self._bits = capacity_bits
        self._cap = 1 << capacity_bits
        self._branch = branch
        # Append gap: large enough to absorb long append-only runs, small
        # enough that tiny test capacities still exercise relabeling.
        self._gap = max(2, self._cap >> 42) if capacity_bits > 42 \
            else max(2, self._cap >> (capacity_bits // 2))
        self.head: Optional[OMNode] = None
        self.tail: Optional[OMNode] = None
        self._count = 0
        self.relabels = 0          # relabel regions performed
        self.relabeled_nodes = 0   # total node labels rewritten

    # -- insertion ---------------------------------------------------------------

    def insert_last(self) -> OMNode:
        """Append after the current tail (the fence store's fast path)."""
        tail = self.tail
        if tail is None:
            node = OMNode(self._gap)
            self.head = self.tail = node
            self._count = 1
            return node
        label = tail.label + self._gap
        if label >= self._cap:
            self._rebalance_all(extra=1)
            tail = self.tail
            assert tail is not None
            label = tail.label + self._gap
            if label >= self._cap:
                # Even after a full respace the tail sits too close to the
                # top: fall back to the midpoint of the remaining space.
                if tail.label + 2 > self._cap:
                    raise OMCapacityError(
                        f"label space of {self._cap} cannot hold "
                        f"{self._count + 1} positions")
                label = (tail.label + self._cap) // 2
        node = OMNode(label)
        node.prev = tail
        tail.next = node
        self.tail = node
        self._count += 1
        return node

    def insert_after(self, node: OMNode) -> OMNode:
        """Insert a new position immediately after ``node``."""
        if node.next is None:
            return self.insert_last()
        succ = node.next
        if succ.label - node.label < 2:
            self._relabel_region(node)
            succ = node.next
            assert succ is not None and succ.label - node.label >= 2
        fresh = OMNode((node.label + succ.label) // 2)
        fresh.prev = node
        fresh.next = succ
        node.next = fresh
        succ.prev = fresh
        self._count += 1
        return fresh

    def insert_before(self, node: OMNode) -> OMNode:
        """Insert a new position immediately before ``node``."""
        if node.prev is not None:
            return self.insert_after(node.prev)
        if node.label < 2:
            self._relabel_region(node)
        fresh = OMNode(node.label // 2)
        fresh.next = node
        node.prev = fresh
        self.head = fresh
        self._count += 1
        return fresh

    # -- relabeling --------------------------------------------------------------

    def _relabel_region(self, node: OMNode) -> None:
        """Respace the smallest enclosing sparse-enough label range.

        Walks levels ``i = 1, 2, ...``: the level-``i`` range is the
        aligned ``2**i``-label window containing ``node``.  The first
        level whose member count is at most ``(2/branch)**i`` (and leaves
        an average gap of at least 3) is respaced evenly.  Members of a
        range are contiguous in list order, so collecting them is a local
        walk — the relabel cost is the range size, amortized O(1) per
        insert by the classic argument.
        """
        threshold = 2.0 / self._branch
        for level in range(1, self._bits + 1):
            size = 1 << level
            lo = (node.label >> level) << level
            hi = lo + size
            first = node
            while first.prev is not None and lo <= first.prev.label:
                first = first.prev
            members: List[OMNode] = []
            walk: Optional[OMNode] = first
            while walk is not None and walk.label < hi:
                members.append(walk)
                walk = walk.next
            n = len(members)
            if n <= threshold ** level and size // n >= 3:
                step = size // n
                # Offset by half a step: head-side inserts need headroom
                # *below* the first member (label ``lo`` would leave the
                # head at 0 and force the next insert_before into a
                # duplicate label).  step >= 3 keeps the last member at
                # least 2 below the first label past the window, so a
                # midpoint insert fits on either side of the range.
                label = lo + step // 2
                for m in members:
                    m.label = label
                    label += step
                self.relabels += 1
                self.relabeled_nodes += n
                return
        raise OMCapacityError(
            f"label space of {self._cap} too dense for {self._count} "
            f"positions (no relabelable range)")

    def _rebalance_all(self, extra: int = 0) -> None:
        """Respace every node evenly across the whole label space."""
        if self._count + extra >= self._cap // 2:
            raise OMCapacityError(
                f"label space of {self._cap} cannot hold "
                f"{self._count + extra} positions")
        step = self._cap // (self._count + extra + 1)
        label = step
        walk = self.head
        while walk is not None:
            walk.label = label
            label += step
            walk = walk.next
        self.relabels += 1
        self.relabeled_nodes += self._count

    # -- queries -----------------------------------------------------------------

    @staticmethod
    def order(a: OMNode, b: OMNode) -> int:
        """-1, 0, or 1 as ``a`` sits before, at, or after ``b`` — one
        integer comparison, the whole point of the structure."""
        if a.label < b.label:
            return -1
        if a.label > b.label:
            return 1
        return 0

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[OMNode]:
        walk = self.head
        while walk is not None:
            yield walk
            walk = walk.next

    def check_invariants(self) -> None:
        """Raise AssertionError unless the structure is consistent:
        labels strictly increase along the list, stay inside the label
        space, and the node count matches the links."""
        seen = 0
        prev: Optional[OMNode] = None
        walk = self.head
        while walk is not None:
            assert 0 <= walk.label < self._cap, \
                f"label {walk.label} outside [0, {self._cap})"
            if prev is not None:
                assert prev.label < walk.label, \
                    f"labels not strictly increasing: {prev.label} " \
                    f">= {walk.label}"
                assert walk.prev is prev, "broken prev link"
            seen += 1
            prev = walk
            walk = walk.next
        assert seen == self._count, \
            f"count {self._count} != {seen} linked nodes"
        assert self.tail is prev, "tail does not terminate the list"


class SeqStamps:
    """Two-component timestamps over program positions for one channel.

    A *channel* is one reason a fence might order two program points (the
    global channel, or one (scope-region, field) pair).  ``note(at_seq,
    node)`` records a fence position; ``fine_at(seq)`` returns the rank —
    how many channel positions are at or before ``seq`` — and
    ``stamp_at(seq)`` the full *(coarse OM label, fine rank)* timestamp.
    A fence separates ``earlier`` from ``later`` on this channel iff
    ``fine_at(later) > fine_at(earlier)`` (equivalently iff the coarse
    labels differ — the components agree, property-tested).

    Ranks are stored in a dense array indexed by ``seq`` and extended
    lazily toward the largest queried position, so both inserts (which in
    analysis order arrive with non-decreasing ``at_seq``) and queries are
    amortized O(1).  An out-of-order insert (constructor-style bulk loads,
    replay rebinding in adversarial tests) truncates the stale suffix and
    rebuilds it on the next query.
    """

    __slots__ = ("_positions", "_nodes", "_ranks")

    def __init__(self) -> None:
        self._positions: List[int] = []        # sorted fence at_seqs
        self._nodes: List[Optional[OMNode]] = []  # parallel OM positions
        self._ranks: List[int] = []            # _ranks[s] = rank at seq s

    def note(self, at_seq: int, node: Optional[OMNode] = None) -> None:
        """Record a fence at ``at_seq`` (its OM node carries the coarse
        component).  Monotone appends are O(1); an out-of-order insert
        pays a bisect plus a suffix truncation."""
        if at_seq < 0:
            raise ValueError("fence positions are non-negative sequences")
        pos = self._positions
        if not pos or at_seq >= pos[-1]:
            pos.append(at_seq)
            self._nodes.append(node)
        else:
            idx = bisect_right(pos, at_seq)
            pos.insert(idx, at_seq)
            self._nodes.insert(idx, node)
        if at_seq < len(self._ranks):
            del self._ranks[at_seq:]

    def fine_at(self, seq: int) -> int:
        """Rank of the latest channel position at or before ``seq`` —
        the *fine* timestamp component.  O(1) once the dense array covers
        ``seq``; extending it is amortized O(1) per program position."""
        if seq < 0:
            return 0
        ranks = self._ranks
        if seq < len(ranks):
            return ranks[seq]
        self._extend(seq)
        return self._ranks[seq]

    def stamp_at(self, seq: int) -> Tuple[int, int]:
        """The two-component *(coarse label, fine rank)* timestamp of a
        program position; (-1, 0) before any fence."""
        fine = self.fine_at(seq)
        if fine == 0:
            return (-1, 0)
        node = self._nodes[fine - 1]
        return (node.label if node is not None else -1, fine)

    def covers(self, earlier_seq: int, later_seq: int) -> bool:
        """Any channel position in ``(earlier_seq, later_seq]``?  Two
        O(1) rank lookups and one comparison."""
        return self.fine_at(later_seq) > self.fine_at(earlier_seq)

    def latest_at(self, seq: int) -> int:
        """The latest channel position at or before ``seq`` (-1 if none):
        ``covers(e, seq)`` holds exactly when this exceeds ``e``, so one
        lookup answers coverage for every earlier position at once."""
        fine = self.fine_at(seq)
        return self._positions[fine - 1] if fine else -1

    def _extend(self, seq: int) -> None:
        pos = self._positions
        ranks = self._ranks
        start = len(ranks)
        i = bisect_right(pos, start - 1) if start else 0
        npos = len(pos)
        for s in range(start, seq + 1):
            while i < npos and pos[i] <= s:
                i += 1
            ranks.append(i)

    def __len__(self) -> int:
        return len(self._positions)

    def positions(self) -> List[int]:
        return list(self._positions)

    def check_invariants(self, labeler: Optional[OMLabeler] = None) -> None:
        """Positions sorted; rank array consistent; label order agrees
        with rank order (the two timestamp components never disagree)."""
        pos = self._positions
        assert all(a <= b for a, b in zip(pos, pos[1:])), \
            "channel positions out of order"
        for s, r in enumerate(self._ranks):
            assert r == bisect_right(pos, s), f"stale rank at seq {s}"
        nodes = [n for n in self._nodes if n is not None]
        for a, b in zip(nodes, nodes[1:]):
            assert a.label < b.label or a is b, \
                "coarse labels disagree with channel order"


# Re-exported sentinel: channels with no fence yet stamp as (-1, 0).
EMPTY_STAMP: Tuple[int, int] = (-1, 0)
