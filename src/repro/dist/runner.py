"""Launch, supervise, and merge an N-shard replicated run.

Three ways to run the same :class:`~repro.dist.programs.ProgramSpec`:

* :func:`run_reference` — the serial in-process reference.  No transport
  at all: each shard replica is replayed one after another with a plain
  :class:`~repro.core.determinism.ShardHasher`, producing the conformance
  artifacts the other backends must match byte-for-byte.
* :class:`DistRunner` with ``backend="loopback"`` — one thread per shard
  over a :class:`~repro.dist.transport.LoopbackFabric`.  Real collective
  schedules, real frames, one process; what the unit tests use.
* :class:`DistRunner` with a process backend (``"multiprocess"``,
  ``"shm"``, ``"tcp"``) — one forked OS process per shard over the
  matching fabric.  The paper's actual deployment shape: replicas share
  nothing but the fabric.

Both start through :func:`launch_gang`, as do the runtime's replica
backends.  No orphaned workers: every rank reports under one shared
deadline, and a ``finally`` sweep reaps every forked rank still alive.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from ..core.determinism import ShardHasher, stream_digest
from ..core.pipeline import DCRPipeline, analysis_digest, fence_sequence
from .programs import ProgramSpec, build_field, build_operations
from . import transport as fabrics
from .report import MergedReport, ShardReport, merge_reports
from .transport import DEFAULT_DEADLINE_S, PROCESS_BACKENDS
from .worker import ShardWorker, replay

__all__ = ["DistRunner", "ServiceRunner", "run_reference", "BACKENDS",
           "launch_gang", "supervise_gang", "terminate_gang"]

#: "loopback" threads transports in one process; the rest fork one worker
#: process per shard over the matching fabric ("multiprocess" = pipe mesh,
#: "shm" = shared-memory rings, "tcp" = socket mesh).
BACKENDS = ("loopback",) + PROCESS_BACKENDS


def supervise_gang(entries: List[tuple], timeout_s: float,
                   grace_s: float = 5.0):
    """Collect one ``(status, payload)`` message per worker, hard deadline.

    ``entries`` is a list of ``(rank, process, parent_conn)``.  Returns
    ``(payloads, failures)`` where ``payloads`` maps rank to the payload of
    each ``("ok", payload)`` message and ``failures`` is a list of
    human-readable failure strings (worker errors, silent deaths, and
    deadline overruns all land here — never an indefinite wait).

    All polls and joins share **one** monotonic deadline (``timeout_s``
    for reports, plus ``grace_s`` once — not per worker — for exits): a
    wedged gang of N is reaped within ~1× the configured timeout, where
    the old per-worker ``join(remaining + 5.0)`` accounting could overrun
    the deadline by 5s × N.
    """
    payloads: Dict[int, Any] = {}
    failures: List[str] = []
    deadline = time.monotonic() + timeout_s
    for rank, proc, conn in entries:
        remaining = max(0.0, deadline - time.monotonic())
        if conn.poll(remaining):
            try:
                status, payload = conn.recv()
            except EOFError:
                failures.append(f"shard {rank}: died without a report "
                                f"(pid {proc.pid})")
                continue
            if status == "ok":
                payloads[rank] = payload
            else:
                failures.append(f"shard {rank}: {payload}")
        else:
            failures.append(f"shard {rank}: no report within "
                            f"{timeout_s:.0f}s (pid {proc.pid})")
    join_deadline = deadline + grace_s
    for _rank, proc, _conn in entries:
        proc.join(max(0.0, join_deadline - time.monotonic()))
    return payloads, failures


def terminate_gang(entries: List[tuple]) -> None:
    """Terminate and reap every still-alive worker (the no-orphans sweep).

    Idempotent and order-independent: calling it twice, calling it on a
    gang that already exited, or calling it while a respawned worker is
    dying mid-rejoin must never raise or leave a process behind.  Every
    per-entry step therefore tolerates an already-reaped process (whose
    ``is_alive``/``terminate`` can race exit) and an already-closed pipe,
    and the last resort is SIGKILL — SIGTERM is merely *queued* on a
    stopped (``SIGSTOP``-ed, e.g. stalled) worker, so ``terminate()``
    alone cannot guarantee the sweep converges.
    """
    for _rank, proc, _conn in entries:
        try:
            if proc.is_alive():
                proc.terminate()
        except (ValueError, OSError):  # already closed/reaped elsewhere
            pass
    for _rank, proc, conn in entries:
        try:
            if proc.is_alive():
                proc.join(5.0)
            if proc.is_alive():  # pragma: no cover - last resort
                proc.kill()
                proc.join(5.0)
        except (ValueError, OSError):
            pass
        try:
            conn.close()
        except OSError:
            pass


def run_reference(spec: ProgramSpec, num_shards: int,
                  batch: int = 64) -> MergedReport:
    """Serial in-process reference run — the conformance ground truth.

    Replays every shard replica in one thread of one process, recording
    the identical call stream the distributed workers record (same
    :func:`~repro.dist.worker.op_signature` helper), with fences counted
    but not synchronized (there is nothing to synchronize with).
    """
    reports: List[ShardReport] = []
    for rank in range(num_shards):
        t0 = time.perf_counter()
        hasher = ShardHasher(rank)
        pipeline = DCRPipeline(num_shards)
        field = build_field(spec)
        ops = build_operations(spec, num_shards, field)
        hasher.record("program", *spec.signature())
        replay(pipeline, ops, hasher.record, lambda: None)
        coarse, fine = pipeline.coarse_result, pipeline.fine_result
        reports.append(ShardReport(
            shard=rank, num_shards=num_shards, backend="inprocess",
            graph_digest=analysis_digest(coarse, fine),
            fence_sequence=tuple(fence_sequence(coarse)),
            determinism_digest=stream_digest(hasher.calls),
            call_count=len(hasher.calls),
            checks=0,
            ops_analyzed=coarse.ops_analyzed,
            fences=len(coarse.fences),
            fences_elided=coarse.fences_elided,
            points=fine.points_per_shard.get(rank, 0),
            wall_s=time.perf_counter() - t0, pid=os.getpid()))
    return merge_reports(reports, backend="inprocess")


#: A rank's work: ``body(transport, rank) -> result``.
RankBody = Callable[[Any, int], Any]


def _run_rank(fabric: Any, rank: int, body: RankBody) -> Any:
    """Claim ``rank``'s endpoint, run the body on it, release it."""
    endpoint = fabric.transport(rank)
    try:
        return body(endpoint, rank)
    except BaseException:
        if isinstance(fabric, fabrics.LoopbackFabric):
            # In-process queues deliver no EOF: declare the rank dead so
            # peers polling it raise PeerGone instead of waiting out the
            # receive deadline.
            fabric.mark_closed(rank)
        raise
    finally:
        endpoint.close()


def _fork_main(fabric: Any, rank: int, body: RankBody, conn: Any) -> None:
    """Forked rank entrypoint: claim endpoints, run the body, report, exit."""
    try:
        fabric.close_other_ends(rank)
        conn.send(("ok", _run_rank(fabric, rank, body)))
    except BaseException as exc:  # noqa: BLE001 - forwarded to the parent
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()


class _ThreadRank:
    """A rank on a daemon thread that reports like a forked rank, so
    :func:`supervise_gang` collects threads and forks alike (``join`` and
    ``is_alive`` track the report, not the thread's teardown)."""

    def __init__(self, fabric: Any, rank: int, body: RankBody, name: str):
        self.pid = os.getpid()
        self.name = name
        self._message: Optional[tuple] = None
        self._done = threading.Event()
        threading.Thread(target=self._main, args=(fabric, rank, body),
                         name=name, daemon=True).start()

    def _main(self, fabric: Any, rank: int, body: RankBody) -> None:
        try:
            self._message = ("ok", _run_rank(fabric, rank, body))
        except BaseException as exc:  # noqa: BLE001 - reported like a fork
            self._message = ("error", f"{type(exc).__name__}: {exc}")
        finally:
            self._done.set()

    def poll(self, timeout: float) -> bool:
        return self._done.wait(timeout)

    def recv(self) -> tuple:
        return self._message

    def join(self, timeout: Optional[float] = None) -> None:
        self._done.wait(timeout)

    def is_alive(self) -> bool:
        return not self._done.is_set()


def launch_gang(backend: str, num_shards: int, body: RankBody, *,
                timeout_s: float, inline: Optional[int] = None,
                deadline_s: float = DEFAULT_DEADLINE_S,
                name: str = "repro-shard",
                **fabric_kwargs: Any) -> Dict[int, Any]:
    """Run ``body(transport, rank)`` once per rank; return ``{rank: result}``.

    ``"loopback"`` ranks are threads over a ``LoopbackFabric``; the process
    backends fork one process per rank over ``fabric_for_backend`` (which
    gets ``fabric_kwargs``).  Rank ``inline`` runs in the caller once the
    others have started, and its exception, if any, is re-raised as is
    after the gang is reaped.  The other ranks share one ``timeout_s``
    deadline; a thread still running then raises :class:`TimeoutError`,
    and any other failure raises :class:`RuntimeError` listing them all.
    """
    threaded = backend == "loopback"
    if threaded:
        fabric = fabrics.LoopbackFabric(num_shards, deadline_s=deadline_s)
    else:
        fork = multiprocessing.get_context("fork")
        fabric = fabrics.fabric_for_backend(backend, num_shards,
                                            deadline_s=deadline_s,
                                            **fabric_kwargs)
    entries: List[tuple] = []
    results: Dict[int, Any] = {}
    try:
        for rank in range(num_shards):
            if rank == inline:
                continue
            if threaded:
                proc = conn = _ThreadRank(fabric, rank, body,
                                          f"{name}-{rank}")
            else:
                conn, child_conn = fork.Pipe(duplex=False)
                proc = fork.Process(target=_fork_main,
                                    args=(fabric, rank, body, child_conn),
                                    name=f"{name}-{rank}", daemon=True)
                proc.start()
                child_conn.close()
            entries.append((rank, proc, conn))
        try:
            # Release the parent's copies of the other ranks' endpoints so
            # a dead rank's peers observe EOF (-> PeerGone), not a deadline.
            if inline is not None:
                if not threaded:
                    fabric.close_other_ends(inline)
                results[inline] = _run_rank(fabric, inline, body)
            elif fabric.parent_must_release:
                fabric.close_all()
        finally:
            reports, failures = supervise_gang(
                entries, timeout_s, grace_s=0.0 if threaded else 5.0)
    finally:
        if not threaded:
            terminate_gang(entries)
            fabric.close_all()
    stuck = [proc.name for _rank, proc, _conn in entries if proc.is_alive()]
    if stuck:
        raise TimeoutError(f"{backend} shards did not finish: {stuck}")
    if failures:
        raise RuntimeError(f"{backend} run failed: " + "; ".join(failures))
    results.update(reports)
    return results


class DistRunner:
    """Run one spec at N shards on a chosen backend; merge the reports."""

    def __init__(self, spec: ProgramSpec, num_shards: int,
                 backend: str = "multiprocess", batch: int = 64,
                 deadline_s: float = DEFAULT_DEADLINE_S,
                 join_timeout_s: float = 60.0,
                 profile_dir: Optional[str] = None,
                 coalesce: int = 1, **fabric_kwargs: Any):
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; "
                             f"expected one of {BACKENDS}")
        if num_shards < 1:
            raise ValueError(f"need at least one shard, got {num_shards}")
        self.spec = spec
        self.num_shards = num_shards
        self.backend = backend
        self.batch = batch
        self.coalesce = coalesce
        self.deadline_s = deadline_s
        self.join_timeout_s = join_timeout_s
        self.profile_dir = profile_dir
        self.fabric_kwargs = fabric_kwargs

    def run(self) -> MergedReport:
        reports = launch_gang(self.backend, self.num_shards, self._replay,
                              timeout_s=self.join_timeout_s,
                              deadline_s=self.deadline_s,
                              **self.fabric_kwargs)
        return merge_reports([reports[r] for r in sorted(reports)],
                             backend=self.backend)

    def _replay(self, transport: Any, rank: int) -> ShardReport:
        return ShardWorker(transport, self.spec, backend=self.backend,
                           batch=self.batch, profile_dir=self.profile_dir,
                           coalesce=self.coalesce).run()


class ServiceRunner:
    """Client-side convenience over :class:`repro.service.DCRService`.

    The session-serving counterpart of :class:`DistRunner`: where a
    DistRunner launches a gang, runs one spec, and tears everything down,
    a ServiceRunner holds a persistent service and submits a *stream* of
    specs through one default session — repeat shapes are served from
    cached analysis templates instead of re-analyzed.

    ``repro.service`` is imported lazily inside the methods (it imports
    this module for the worker machinery, so a top-level import here would
    be a cycle).
    """

    def __init__(self, num_shards: int, backend: str = "loopback",
                 batch: int = 64, **service_kwargs: Any):
        self.num_shards = num_shards
        self.backend = backend
        self.batch = batch
        self.service_kwargs = service_kwargs
        self._service = None
        self._session = None

    @property
    def service(self):
        if self._service is None:
            raise RuntimeError("ServiceRunner is not started")
        return self._service

    def start(self) -> "ServiceRunner":
        from ..service import DCRService
        self._service = DCRService(self.num_shards, backend=self.backend,
                                   batch=self.batch,
                                   **self.service_kwargs).start()
        self._session = self._service.open_session("service-runner")
        return self

    def close(self) -> None:
        if self._service is not None:
            self._service.close()
            self._service = None
            self._session = None

    def __enter__(self) -> "ServiceRunner":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def submit(self, spec: ProgramSpec):
        """Queue one program; returns a ``JobHandle`` (non-blocking)."""
        return self._session.submit(spec)

    def run(self, spec: ProgramSpec) -> MergedReport:
        """Submit one program and block for its merged report."""
        return self._session.run(spec)

    def open_session(self, name: Optional[str] = None):
        """An additional named client session on the shared service."""
        return self.service.open_session(name)
