"""The four benchmark workloads, their seeded inputs and output checks.

Every workload runs 2 shards, sized for a 2-CPU host, and goes
through the public API only: ``repro.runtime.Runtime.execute`` for the
three Runtime workloads and ``repro.service.DCRService`` for
``service-mix``.  Inputs are pure functions of the seed; the programs see
only the generated arrays or program specs.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import threading
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

SHARDS = 2
TILES = 4
#: service-mix submissions per burst; the first of each is structurally new.
BURST = 4
#: Distinct cells_per_tile values the structurally new submissions cycle
#: through, and the template store size that has evicted each before it
#: recurs (the pool's 4 shapes stay resident: every burst touches them).
CELL_CYCLE = 32
TEMPLATE_CAPACITY = 16
#: The service-mix shape pool is part of the workload, not of its inputs:
#: shapes differ in cold-run cost by up to 2x, so a per-seed pool would
#: make every seed a different workload.  The seed picks parameter values
#: and which pool shape each template hit reuses.
POOL_SEED = 0

__all__ = ["SHARDS", "Outcome", "WORKLOADS", "make_workload"]


@dataclass
class Outcome:
    """One program: its latency and whether its output passed the check."""

    latency_s: float
    ok: bool
    error: str = ""


def _count_metrics(rt: Any) -> Dict[str, float]:
    """Exact per-program counters read from one finished Runtime."""
    stats = rt.pipeline.stats
    return {
        "core.pipeline.ops": stats.ops,
        "core.coarse.fences": stats.fences,
        "core.coarse.fences_elided": stats.fences_elided,
        "core.coarse.users_scanned": rt.pipeline.coarse.result.users_scanned,
        "core.fine.scans": sum(
            rt.pipeline.fine.result.scans_per_shard.values()),
        "core.tracing.replayed_ops": stats.traced_ops,
        "core.tracing.fallbacks": stats.trace_fallbacks,
        "core.determinism.checks": rt.monitor.checks_performed,
        "runtime.points": rt.executed_points,
        "dist.monitor.checks": rt.dist_checks,
        "dist.transport.frames": sum(
            r["frames_sent"] + r["frames_received"]
            for r in rt.replica_reports),
    }


class RuntimeWorkload:
    """Closed loop, one program at a time: a fresh Runtime plus execute."""

    backend = "inprocess"
    auto_trace = False
    generator_threads = 0
    tail_percentile = 90.0
    trace_programs = 12
    modules = ("repro.runtime", "repro.legate")

    def __init__(self, seed: int, tiny: bool, break_reference: bool):
        self.args, self.reference, self.sizes = self.make_inputs(seed, tiny)
        if break_reference:
            self.reference = self.reference + 1.0
        self.processes = SHARDS if self.backend != "inprocess" else 1
        self.last_counts: Dict[str, float] = {}

    def make_inputs(self, seed: int, tiny: bool):
        raise NotImplementedError

    def control(self, ctx, *args):
        raise NotImplementedError

    def output_ok(self, out: np.ndarray) -> bool:
        raise NotImplementedError

    def start(self) -> None:
        """Imports the layers; nothing else lives across programs."""
        from repro.runtime import Runtime
        self._runtime_cls = Runtime

    def stop(self) -> None:
        pass

    def first_program(self) -> Outcome:
        """The first, cold-cache program."""
        return self.run_program()

    def warm_up(self) -> List[Outcome]:
        return [self.first_program()]

    def run_program(self, tracer=None, program: Any = None) -> Outcome:
        Runtime = self._runtime_cls
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rt = Runtime(num_shards=SHARDS, backend=self.backend,
                             auto_trace=self.auto_trace)
                out = rt.execute(self.control, *self.args)
            else:
                with tracer.root(program):
                    rt = Runtime(num_shards=SHARDS, backend=self.backend,
                                 auto_trace=self.auto_trace)
                    out = rt.execute(self.control, *self.args)
        except Exception as exc:  # noqa: BLE001 - a failed program is data
            return Outcome(time.perf_counter() - t0, False,
                           f"{type(exc).__name__}: {exc}")
        latency = time.perf_counter() - t0
        digests = rt.determinism_digests()
        if len(digests) != SHARDS or len(set(digests)) != 1:
            return Outcome(latency, False, f"digests differ: {digests}")
        if not self.output_ok(out):
            return Outcome(latency, False, "output differs from reference")
        self.last_counts = _count_metrics(rt)
        return Outcome(latency, True)


class StencilWorkload(RuntimeWorkload):
    """``sliced_stencil`` on a seeded wave: analysis-bound (484 points)."""

    def make_inputs(self, seed, tiny):
        from repro.legate import make_wave, reference_stencil
        n, iters = (256, 4) if tiny else (4096, 40)
        rng = np.random.default_rng(seed)
        init = make_wave(n) + rng.uniform(-0.5, 0.5, n)
        sizes = {"points": n, "iterations": iters, "tiles": TILES,
                 "shards": SHARDS, "backend": self.backend}
        return (init, iters, TILES), reference_stencil(init, iters), sizes

    def control(self, ctx, init, iters, tiles):
        from repro.legate import sliced_stencil
        return sliced_stencil(ctx, init, iters, tiles)

    def output_ok(self, out):
        return np.array_equal(out, self.reference)


class StencilShmWorkload(StencilWorkload):
    """The same stencil with one forked replica over shared-memory rings."""

    backend = "shm"


class LogregWorkload(RuntimeWorkload):
    """``logistic_regression`` on 8192x32 float64: hashing-bound, traced."""

    auto_trace = True
    tail_percentile = 65.0
    trace_programs = 4

    def make_inputs(self, seed, tiny):
        from repro.legate import reference_logistic_regression
        n, f, iters = (512, 8, 3) if tiny else (8192, 32, 20)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, f))
        y = (x @ rng.standard_normal(f) > 0).astype(np.float64)
        self._first_bytes: Optional[bytes] = None
        sizes = {"rows": n, "features": f, "iterations": iters, "lr": 0.5,
                 "tiles": TILES, "shards": SHARDS, "backend": self.backend,
                 "auto_trace": True}
        return ((x, y, iters), reference_logistic_regression(x, y, iters, 0.5),
                sizes)

    def control(self, ctx, x, y, iters):
        from repro.legate import logistic_regression
        return logistic_regression(ctx, x, y, iters, 0.5, TILES)

    def output_ok(self, out):
        # Same seed, same bytes: the first output of this process is the
        # witness every later run must reproduce exactly.
        if self._first_bytes is None:
            self._first_bytes = out.tobytes()
        return (out.tobytes() == self._first_bytes
                and np.allclose(out, self.reference, rtol=1e-9, atol=1e-12))


class ServiceMixWorkload:
    """Open-loop bursts into ``DCRService(2, backend="multiprocess")``.

    One generator thread submits a burst of :data:`BURST` programs every
    ``BURST / rate_hz`` seconds, whether or not earlier ones finished.
    Programs come from ``make_shape_pool(4, 16, 4)`` with fresh parameter
    values; the first of each burst gets a ``cells_per_tile`` the template
    store does not hold, so it runs cold on the gang and the burst's
    template hits queue behind it.  Latency runs from each submission's
    due time to the moment its report resolves.
    """

    rate_hz = 10.0
    tail_percentile = 90.0
    trace_programs = 80
    generator_threads = 1
    processes = 1 + SHARDS
    modules = ("repro.service", "repro.dist.programs")

    def __init__(self, seed: int, tiny: bool, break_reference: bool):
        from repro.service import make_shape_pool
        self.seed = seed
        tiles, steps = (4, 2) if tiny else (16, 4)
        self.pool = make_shape_pool(4, tiles, steps, POOL_SEED)
        # A broken reference expects non-conformant reports.
        self.expect_conformant = not break_reference
        self.sizes = {"shapes": 4, "tiles": tiles, "steps": steps,
                      "pool_seed": POOL_SEED, "burst": BURST,
                      "rate_hz": self.rate_hz, "shards": SHARDS,
                      "template_capacity": TEMPLATE_CAPACITY,
                      "backend": "multiprocess"}
        self.svc = None
        self.last_counts: Dict[str, float] = {}
        self.lag_max_s = 0.0
        # Gang transport frames so far: reports carry the workers'
        # cumulative counters (template hits repeat their cold run's).
        self._frames = 0
        self.submit_times: Dict[int, float] = {}

    def spec(self, n: int, warmup: bool = False):
        """Submission ``n`` of the stream; a pure function of (seed, n).

        The pool uses ``cells_per_tile=4``; structurally new submissions
        cycle through 5..36 in the stream (a repeat comes 32 bursts later,
        long after :data:`TEMPLATE_CAPACITY` evicted it, and keeps region
        sizes from growing over a run) and take 100 + n in the warm-up.
        """
        from repro.dist.programs import OpSpec
        rng = np.random.default_rng((self.seed, n, int(warmup)))
        if warmup:
            base = self.pool[n % len(self.pool)]
            if n >= len(self.pool):
                return replace(base, cells_per_tile=100 + n)
        elif n % BURST == 0:
            burst = n // BURST
            return replace(self.pool[burst % len(self.pool)],
                           cells_per_tile=5 + burst % CELL_CYCLE)
        else:
            base = self.pool[int(rng.integers(len(self.pool)))]
        values = rng.integers(0, 1_000_000, len(base.ops))
        return replace(base, ops=tuple(OpSpec(op.code, int(v))
                                       for op, v in zip(base.ops, values)))

    def arrivals(self, count: int) -> np.ndarray:
        """Fixed-rate arrival offsets, in bursts of :data:`BURST`.

        The schedule is the same for every seed, which changes only what
        arrives.  A burst's structurally new program goes first, so its
        three template hits queue behind the cold gang run.
        """
        return (np.arange(count) // BURST) * (BURST / self.rate_hz)

    def start(self) -> None:
        from repro.service import DCRService
        self._frames = 0
        # Generous admission limits: an open-loop burst behind a cold run
        # must queue, not be refused.
        self.svc = DCRService(SHARDS, backend="multiprocess",
                              max_pending=1024, session_inflight=1024,
                              template_capacity=TEMPLATE_CAPACITY)
        self.svc.start()
        # One gang worker per CPU, as a deployment would pin them: left to
        # the scheduler, both workers of a 2-CPU host sometimes share one
        # CPU for a whole run, which doubles every cold run.
        cpus = sorted(os.sched_getaffinity(0))
        workers = sorted(multiprocessing.active_children(),
                         key=lambda proc: proc.pid)
        for i, proc in enumerate(workers):
            os.sched_setaffinity(proc.pid, {cpus[i % len(cpus)]})
        self.session = self.svc.open_session("mix")

    def _warm(self, n: int) -> Outcome:
        t0 = time.perf_counter()
        return self._check(self.session.submit(self.spec(n, warmup=True)), t0)

    def first_program(self) -> Outcome:
        """The first cold run on the freshly started gang."""
        return self._warm(0)

    def warm_up(self) -> List[Outcome]:
        """Closed-loop cold runs: each pool shape, then as many new shapes."""
        return [self._warm(n) for n in range(2 * len(self.pool))]

    def stop(self) -> None:
        if self.svc is not None:
            self.svc.close()
            self.svc = None

    def _check(self, handle, due: float) -> Outcome:
        try:
            report = handle.result(timeout=60.0)
        except Exception as exc:  # noqa: BLE001 - a failed program is data
            return Outcome(time.perf_counter() - due, False,
                           f"{type(exc).__name__}: {exc}")
        done = time.perf_counter()
        self._frames = max(self._frames, report.total_frames)
        if report.conformant != self.expect_conformant:
            return Outcome(done - due, False,
                           f"conformant={report.conformant}")
        return Outcome(done - due, True)

    def run_stream(self, seconds: Optional[float] = None,
                   count: Optional[int] = None,
                   tracer=None) -> Tuple[List[Outcome], float, float]:
        """Submit on schedule from a generator thread; await in order.

        Returns ``(outcomes, first_due, last_done)``.  The single session
        is served FIFO, so awaiting handles in submission order stamps
        each completion as it happens.
        """
        horizon = count if count is not None \
            else int(seconds * self.rate_hz * 3) + 50
        offsets = self.arrivals(horizon)
        if count is None:
            offsets = offsets[offsets < seconds]
        pending: "queue.Queue" = queue.Queue()
        t_base = time.perf_counter() + 0.02
        self.lag_max_s = 0.0
        frames0 = self._frames
        stats0 = self.svc.templates.stats()

        def generate() -> None:
            for n, off in enumerate(offsets):
                due = t_base + off
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                spec = self.spec(n)
                if tracer is not None:
                    tracer.spec_program[id(spec)] = n
                t_call = time.perf_counter()
                self.lag_max_s = max(self.lag_max_s, t_call - due)
                try:
                    handle = self.session.submit(spec)
                except Exception as exc:  # noqa: BLE001 - admission refusal
                    pending.put((n, due, None, exc))
                    continue
                t_sub = time.perf_counter()
                if tracer is not None:
                    tracer.add("loadgen.lag", due, t_call, n)
                    tracer.add("service.submit", t_call, t_sub, n)
                    self.submit_times[n] = t_sub
                pending.put((n, due, handle, None))
            pending.put(None)

        gen = threading.Thread(target=generate, name="e2ebench-loadgen",
                               daemon=True)
        gen.start()
        outcomes: List[Outcome] = []
        last_done = t_base
        while (item := pending.get()) is not None:
            n, due, handle, error = item
            if handle is None:
                outcomes.append(Outcome(0.0, False,
                                        f"{type(error).__name__}: {error}"))
                continue
            out = self._check(handle, due)
            last_done = time.perf_counter()
            if tracer is not None:
                tracer.add("program", due, last_done, n)
            outcomes.append(out)
        gen.join(timeout=60.0)
        if gen.is_alive():
            raise RuntimeError("load generator did not finish")
        stats1 = self.svc.templates.stats()
        hits = stats1["hits"] - stats0["hits"]
        misses = stats1["misses"] - stats0["misses"]
        self.last_counts = {
            "service.template_hit_ratio": hits / max(1, hits + misses),
            "dist.transport.frames": self._frames - frames0,
        }
        return outcomes, t_base + float(offsets[0]), last_done

    def queue_wait_spans(self, tracer) -> None:
        """Queue wait: from submit's return to the dispatcher's lookup."""
        first_lookup: Dict[Any, float] = {}
        for s in tracer.spans:
            if s[1] == "service.template_lookup" and s[5] is not None:
                first_lookup[s[5]] = min(first_lookup.get(s[5], s[2]), s[2])
        for n, t_sub in self.submit_times.items():
            start = first_lookup.get(n)
            if start is not None and start > t_sub:
                tracer.add("service.queue_wait", t_sub, start, n)
        self.submit_times.clear()


WORKLOADS = {
    "stencil-inproc": StencilWorkload,
    "stencil-shm": StencilShmWorkload,
    "logreg-bigdata": LogregWorkload,
    "service-mix": ServiceMixWorkload,
}


def make_workload(name: str, seed: int, tiny: bool = False,
                  break_reference: bool = False):
    return WORKLOADS[name](seed, tiny, break_reference)
