"""GC-safe deferred operations (paper §4.3).

Garbage-collector finalizers (Python/Lua) may delete regions or perform
detach operations at *arbitrary* points in each shard, which would violate
control determinism.  The remedy: such operations are *deferred* — each
shard announces the operation whenever its collector happens to run, and the
runtime periodically polls (with exponential back-off) whether **all**
shards have observed the same deferred operation.  Once they concur, the
operation is inserted at the same location in every shard's dependence
analysis stream.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Set

__all__ = ["DeferredOpManager"]


@dataclass
class _PendingOp:
    key: Hashable
    observed_by: Set[int] = field(default_factory=set)


class DeferredOpManager:
    """Consensus buffer for finalizer-issued operations.

    ``announce(shard, key)`` is called from a shard's finalizer; ``poll()``
    is called by the runtime between operations and returns (in a canonical,
    deterministic order) the keys every shard has announced, which the
    runtime then inserts into all shards' streams at the same point.

    Exponential back-off: when a poll yields nothing, the next poll is
    skipped for exponentially more ticks (capped), so an idle collector
    costs almost nothing; activity resets the interval, matching §4.3.
    """

    def __init__(self, num_shards: int, min_interval: int = 1,
                 max_interval: int = 1024):
        self.num_shards = num_shards
        self.min_interval = min_interval
        self.max_interval = max_interval
        self._pending: Dict[Hashable, _PendingOp] = {}
        self._announce_order: List[Hashable] = []
        self._interval = min_interval
        self._cooldown = 0
        self._active: Set[int] = set(range(num_shards))
        # Loopback-backend replicas announce from concurrent threads; the
        # shared pending map must mutate atomically.
        self._lock = threading.Lock()
        self.polls = 0            # polls actually performed
        self.skipped = 0          # polls suppressed by back-off

    def quarantine(self, shard: int) -> None:
        """Stop waiting for ``shard``'s announcements (DEGRADE recovery).

        Consensus now requires only the surviving shards — without this a
        quarantined shard's missing announcements would wedge every pending
        deferred op (and the runtime's drain loop) forever.
        """
        self._active.discard(shard)
        if not self._active:
            raise ValueError("cannot quarantine the last active shard")

    def restore(self, shard: int) -> None:
        """Re-admit ``shard`` to the consensus set (RESTART rejoin)."""
        if not 0 <= shard < self.num_shards:
            raise ValueError(f"invalid shard {shard}")
        self._active.add(shard)

    def announce(self, shard: int, key: Hashable) -> None:
        """Shard ``shard``'s collector finalized the resource named ``key``."""
        if not 0 <= shard < self.num_shards:
            raise ValueError(f"invalid shard {shard}")
        with self._lock:
            op = self._pending.get(key)
            if op is None:
                op = _PendingOp(key)
                self._pending[key] = op
                self._announce_order.append(key)
            op.observed_by.add(shard)

    def tick(self) -> List[Hashable]:
        """One runtime tick: maybe poll; returns ready operations (in the
        deterministic first-announced order) or an empty list."""
        if self._cooldown > 0:
            self._cooldown -= 1
            self.skipped += 1
            return []
        self.polls += 1
        with self._lock:
            ready = [
                key for key in self._announce_order
                if self._active <= self._pending[key].observed_by
            ]
            for key in ready:
                del self._pending[key]
            self._announce_order = [
                k for k in self._announce_order if k in self._pending]
        if ready:
            self._interval = self.min_interval
        else:
            self._interval = min(self._interval * 2, self.max_interval)
        self._cooldown = self._interval - 1
        return ready

    @property
    def outstanding(self) -> int:
        """Operations announced by at least one shard but not yet agreed."""
        return len(self._pending)

    def pending_keys(self) -> List[Hashable]:
        """Keys announced but not yet agreed, in announcement order.

        Used by the runtime's gang backends: once the replicas' call
        streams are verified byte-identical over the wire, the driver
        endorses its announcements on their behalf (forked replicas
        announce only into their own copies of this manager).
        """
        return list(self._announce_order)
