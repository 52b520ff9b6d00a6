"""Gang reaping deadlines: a wedged gang dies in ~1x the timeout, not Nx.

Regression tests for two overshoot bugs: ``supervise_gang`` used to join
each worker with ``remaining + 5.0`` *sequentially* (up to +5s per worker
past the deadline) and the loopback runner joined each thread with the
full ``join_timeout_s`` (N x total wall clock for N wedged shards).  The
gang launcher now shares one monotonic deadline across all joins, for
threads and forks alike.
"""

import multiprocessing
import time

import pytest

import repro.dist.runner as runner_mod
from repro.dist import DistRunner, stencil_program
from repro.dist.runner import supervise_gang, terminate_gang


def _wedged_worker():
    time.sleep(120.0)


def test_supervise_gang_reaps_wedged_gang_within_one_timeout():
    ctx = multiprocessing.get_context("fork")
    entries = []
    for rank in range(4):
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_wedged_worker, daemon=True)
        proc.start()
        child_conn.close()
        entries.append((rank, proc, parent_conn))
    try:
        start = time.monotonic()
        payloads, failures = supervise_gang(entries, timeout_s=0.5,
                                            grace_s=0.5)
        elapsed = time.monotonic() - start
    finally:
        terminate_gang(entries)
    assert payloads == {}
    assert len(failures) == 4
    assert all("no report within" in f for f in failures)
    # One shared deadline: ~timeout + grace, with scheduler slack.  The old
    # per-worker accounting would have taken >= timeout + 4 x 5s here.
    assert elapsed < 3.0, f"wedged gang held the supervisor {elapsed:.1f}s"


class _WedgedShardWorker:
    """Stands in for ShardWorker: claims a transport, then never returns."""

    def __init__(self, transport, spec, **kwargs):
        self.transport = transport

    def run(self):
        time.sleep(120.0)


def test_loopback_join_shares_one_deadline(monkeypatch):
    monkeypatch.setattr(runner_mod, "ShardWorker", _WedgedShardWorker)
    runner = DistRunner(stencil_program(4, steps=1), 4, backend="loopback",
                        join_timeout_s=1.0)
    start = time.monotonic()
    with pytest.raises(TimeoutError, match="did not finish"):
        runner.run()
    elapsed = time.monotonic() - start
    # All four wedged shard threads share one 1s deadline; the old code
    # joined each with the full timeout (>= 4s total).
    assert elapsed < 3.0, f"wedged loopback gang held the runner {elapsed:.1f}s"


def _exit_fast_worker():
    pass


def test_terminate_gang_is_idempotent_and_orphan_free():
    """terminate_gang must survive double invocation, already-exited
    workers, already-closed pipes, and a SIGSTOPped (stalled) worker that
    ignores SIGTERM — and leave no process behind in every case."""
    import os
    import signal

    ctx = multiprocessing.get_context("fork")
    entries = []
    for rank in range(4):
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        target = _exit_fast_worker if rank == 0 else _wedged_worker
        proc = ctx.Process(target=target, daemon=True)
        proc.start()
        child_conn.close()
        entries.append((rank, proc, parent_conn))
    entries[0][1].join(5.0)                  # rank 0 already exited
    entries[1][2].close()                    # rank 1's pipe already closed
    os.kill(entries[2][1].pid, signal.SIGSTOP)   # rank 2 stalled: SIGTERM
    #                                              queues, only KILL works
    terminate_gang(entries)
    terminate_gang(entries)                  # second sweep: strict no-op
    for _rank, proc, _conn in entries:
        assert not proc.is_alive(), f"rank {_rank} survived the sweep"
