"""Field pooling with deferred frees (the legate.core ``FieldManager`` idiom).

Long array programs churn through temporaries: every ``a + b`` needs a
fresh region field, and without reuse the runtime's region count (and the
analysis' uid universe) grows without bound.  The manager keeps one pool
per ``(shape, dtype)``; a freed backing block is *not* reusable
immediately — real runtimes cannot recycle a field while launched ops may
still read it — so frees sit in a pending list until at least one more
launch has retired, mirroring legate.core's GC-deferred free queue
(paper §4.3 treats the same problem for region deletions).

Determinism: pool and pending state are pure functions of the per-shard
call sequence (checkout/release order and the per-context launch counter),
never of wall-clock or shared cross-shard state — so every shard makes the
identical reuse decisions and the create-call streams stay byte-identical.

Blocks are reference-counted through :class:`_Lease`: views share their
base array's lease, and a *fresh* lease wraps every checkout so CPython's
one-shot ``__del__`` on the old lease can never resurrect a recycled
block.

The manager holds no reference back to its context: the region factory
comes with each :meth:`FieldManager.checkout`.  The runtime keeps the
manager's ``flush`` as a drain hook, so a back-reference would close a
cycle through the context to the runtime and keep every finished
runtime (and its analysis state) alive until a full garbage collection.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

__all__ = ["FieldManager", "FieldBlock"]


class FieldBlock:
    """One backing (region, field) allocation of a fixed shape."""

    __slots__ = ("region", "shape", "generation")

    def __init__(self, region, shape: Tuple[int, ...]):
        self.region = region
        self.shape = shape
        self.generation = 0          # bumped on every reuse (debug aid)


class _Lease:
    """Holder of one checkout of a block; releases it exactly once.

    Arrays (and every view derived from them) share the lease object, so
    the block returns to the manager when the last referencing array dies
    — or immediately on an explicit :meth:`release`.
    """

    __slots__ = ("_manager", "block", "_released")

    def __init__(self, manager: "FieldManager", block: FieldBlock):
        self._manager = manager
        self.block = block
        self._released = False

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        self._manager._release(self.block)

    def __del__(self) -> None:
        try:
            self.release()
        except Exception:       # pragma: no cover - interpreter teardown
            pass


class FieldManager:
    """(shape, dtype)-keyed pools of freed fields, with deferred frees."""

    def __init__(self) -> None:
        self._pool: Dict[Tuple[Tuple[int, ...], str], List[FieldBlock]] = {}
        self._pending: List[Tuple[int, FieldBlock]] = []
        self._launch_seq = 0
        self.created = 0             # regions actually allocated
        self.reused = 0              # checkouts served from a pool
        self.released = 0            # blocks handed back

    # -- lifecycle hooks -----------------------------------------------------

    def note_launch(self) -> None:
        """Called once per array-op launch; retires eligible frees."""
        self._launch_seq += 1
        self._retire()

    def _retire(self) -> None:
        if not self._pending:
            return
        still: List[Tuple[int, FieldBlock]] = []
        for seq, block in self._pending:
            if seq < self._launch_seq:
                self._pool.setdefault((block.shape, "f8"), []).append(block)
            else:
                still.append((seq, block))
        self._pending = still

    def flush(self) -> None:
        """Retire every pending free (the runtime's deferred-drain hook)."""
        self._launch_seq += 1
        self._retire()

    def _release(self, block: FieldBlock) -> None:
        self.released += 1
        self._pending.append((self._launch_seq, block))

    # -- checkout ------------------------------------------------------------

    def checkout(self, shape: Tuple[int, ...],
                 create_region: Callable[[Tuple[int, ...]], Any]
                 ) -> Tuple[FieldBlock, _Lease]:
        """A backing block for ``shape``: pooled if possible, else a fresh
        one whose region ``create_region(shape)`` allocates."""
        shape = tuple(int(e) for e in shape)
        self._retire()
        pool = self._pool.get((shape, "f8"))
        if pool:
            block = pool.pop()
            block.generation += 1
            self.reused += 1
        else:
            block = FieldBlock(create_region(shape), shape)
            self.created += 1
        return block, _Lease(self, block)

    @property
    def pooled(self) -> int:
        """Blocks currently idle in pools (plus pending frees)."""
        return sum(len(v) for v in self._pool.values()) + len(self._pending)
