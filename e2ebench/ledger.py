"""Outside-in layer ledger: spans around each layer's public entry point.

The benchmark measures end-to-end numbers with nothing patched.  A traced
run then installs a :class:`Tracer`, which replaces each entry point named
in :data:`ENTRY_POINTS` with a thin wrapper that records one span (name,
start, end, parent span, program id, thread) per call.  Spans stay in
memory; :meth:`Tracer.chrome_trace` turns them into a Chrome-trace JSON
when the run ends.  A layer's *self time* is its span's duration minus
the part of that interval its child spans cover, so the self times of a
program add up to its wall time less the part no layer span covers
(``trace.unattributed_share``).

Nothing under ``src/`` changes: every wrapper is installed on, and
removed from, the class or module attribute the runtime looks up at call
time.  CPython garbage collection is recorded through ``gc.callbacks`` as
a child span of whatever layer the collection interrupted.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import itertools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["ENTRY_POINTS", "SELF_TIME_METRIC", "Tracer", "union_length"]

#: (module, attribute path, span name) for every wrapped entry point.
#: ``runtime.shard`` spans are renamed ``runtime.driver``/``runtime.replica``
#: per call, from the shard they replay.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.runtime.runtime", "Runtime.__init__", "runtime.init"),
    ("repro.runtime.runtime", "Runtime.execute", "runtime.execute"),
    ("repro.runtime.runtime", "Runtime._run_shard", "runtime.shard"),
    ("repro.runtime.runtime", "Context._execute_point", "runtime.kernel"),
    ("multiprocessing.process", "BaseProcess.start", "runtime.spawn"),
    ("repro.core.determinism", "ShardHasher.record",
     "core.determinism.hash"),
    ("repro.core.determinism", "DeterminismMonitor.maybe_check",
     "core.determinism.check"),
    ("repro.core.determinism", "DeterminismMonitor.flush",
     "core.determinism.check"),
    ("repro.dist.monitor", "DistDeterminismMonitor.maybe_check",
     "core.determinism.check"),
    ("repro.dist.monitor", "DistDeterminismMonitor.flush",
     "core.determinism.check"),
    ("repro.core.pipeline", "DCRPipeline.analyze", "core.pipeline.analyze"),
    ("repro.core.pipeline", "DCRPipeline.validate",
     "core.pipeline.validate"),
    ("repro.core.coarse", "CoarseAnalysis.analyze", "core.coarse.analyze"),
    ("repro.core.fine", "FineAnalysis.analyze", "core.fine.analyze"),
    ("repro.core.tracing", "AutoTracer.step", "core.tracing.auto"),
    ("repro.core.tracing", "AutoTracer.after_fresh", "core.tracing.auto"),
    ("repro.dist.transport", "fabric_for_backend", "dist.fabric"),
    ("repro.dist.runner", "supervise_gang", "dist.supervise"),
    ("repro.dist.runner", "terminate_gang", "dist.supervise"),
    ("repro.dist.transport", "Transport.recv", "dist.transport.recv"),
    ("repro.dist.transport", "Transport.send", "dist.transport.send"),
    ("repro.service.templates", "TemplateStore.lookup",
     "service.template_lookup"),
    ("repro.service.templates", "TemplateStore.record",
     "service.template_record"),
    ("repro.service.templates", "AnalysisTemplate.patch",
     "service.template_patch"),
    ("repro.service.gang", "ServiceGang.run_job", "service.gang_run"),
    ("repro.service.service", "merge_reports", "service.merge"),
)

#: Span name -> the per-layer metric its summed self time is reported as.
#: ``program`` roots are absent on purpose: their self time is the
#: unattributed remainder.
SELF_TIME_METRIC: Dict[str, str] = {
    "runtime.init": "runtime.init_ms",
    "runtime.execute": "runtime.execute_self_ms",
    "runtime.driver": "runtime.driver_self_ms",
    "runtime.replica": "runtime.replica_self_ms",
    "runtime.kernel": "runtime.kernel_ms",
    "runtime.spawn": "runtime.spawn_ms",
    "core.determinism.hash": "core.determinism.hash_ms",
    "core.determinism.check": "core.determinism.check_ms",
    "core.pipeline.analyze": "core.pipeline.analyze_self_ms",
    "core.pipeline.validate": "core.pipeline.validate_ms",
    "core.coarse.analyze": "core.coarse.analyze_ms",
    "core.fine.analyze": "core.fine.analyze_ms",
    "core.tracing.auto": "core.tracing.auto_ms",
    "dist.fabric": "dist.fabric_ms",
    "dist.supervise": "dist.supervise_ms",
    "dist.transport.recv": "dist.transport.recv_wait_ms",
    "dist.transport.send": "dist.transport.send_ms",
    "service.submit": "service.submit_ms",
    "service.queue_wait": "service.queue_wait_ms",
    "service.template_lookup": "service.template_lookup_ms",
    "service.template_record": "service.template_record_ms",
    "service.template_patch": "service.template_patch_ms",
    "service.gang_run": "service.gang_run_ms",
    "service.merge": "service.merge_ms",
    "loadgen.lag": "loadgen.lag_ms",
    "python.gc": "python.gc_pause_ms",
}


def union_length(intervals: List[Tuple[float, float]], lo: float,
                 hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _resolve(module: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """In-memory span recorder with per-thread span stacks.

    A span is ``(sid, name, t0, t1, parent_sid, program, thread_id)``.
    Spans inherit the program id of their parent; a span opened with no
    parent on a thread takes that thread's current program
    (:meth:`set_thread_program`), which is how the service dispatcher's
    spans are tied to the submission it is serving.
    """

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._thread_program: Dict[int, Any] = {}
        self._restore: List[Tuple[Any, str, Any]] = []
        self._gc_start: Dict[int, Tuple[float, Optional[int], Any]] = {}
        # id(program spec) -> program id, filled by the service generator
        # so the dispatcher's lookup can name the program it serves.
        self.spec_program: Dict[int, Any] = {}

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _context(self) -> Tuple[Optional[int], Any]:
        stack = self._stack()
        if stack:
            return stack[-1]
        return None, self._thread_program.get(threading.get_ident())

    def set_thread_program(self, program: Any) -> None:
        self._thread_program[threading.get_ident()] = program

    def open(self, program: Any = None) -> Tuple[int, Optional[int], Any]:
        """Push a span; returns the token :meth:`close` needs."""
        parent, inherited = self._context()
        sid = next(self._ids)
        prog = inherited if program is None else program
        self._stack().append((sid, prog))
        return sid, parent, prog

    def close(self, token: Tuple[int, Optional[int], Any], name: str,
              t0: float, t1: float) -> None:
        sid, parent, prog = token
        self._stack().pop()
        self.spans.append((sid, name, t0, t1, parent, prog,
                           threading.get_ident()))

    def add(self, name: str, t0: float, t1: float, program: Any) -> None:
        """Record a span measured outside any wrapper (open-loop phases)."""
        self.spans.append((next(self._ids), name, t0, t1, None, program,
                           threading.get_ident()))

    @contextlib.contextmanager
    def root(self, program: Any) -> Iterator[None]:
        """One program's root span around the ``with`` body."""
        token = self.open(program)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.close(token, "program", t0, time.perf_counter())

    # -- installation --------------------------------------------------------

    def _wrapper(self, orig: Callable, name: str) -> Callable:
        tracer = self
        clock = time.perf_counter
        if name == "runtime.shard":
            def span_name(args):
                runtime, shard = args[0], args[1]
                return ("runtime.driver" if shard == runtime.driver_shard
                        else "runtime.replica")
        else:
            def span_name(_args):
                return name
        spec_program = self.spec_program

        def wrapper(*args, **kwargs):
            if name == "service.template_lookup" and len(args) > 1:
                prog = spec_program.get(id(args[1]))
                if prog is not None:
                    tracer.set_thread_program(prog)
            token = tracer.open()
            t0 = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                tracer.close(token, span_name(args), t0, clock())

        return wrapper

    def install(self) -> "Tracer":
        for module, path, name in ENTRY_POINTS:
            owner, attr = _resolve(module, path)
            orig = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            setattr(owner, attr, self._wrapper(orig, name))
            self._restore.append((owner, attr, orig))
        gc.callbacks.append(self._on_gc)
        return self

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        tid = threading.get_ident()
        if phase == "start":
            parent, prog = self._context()
            self._gc_start[tid] = (time.perf_counter(), parent, prog)
            return
        start = self._gc_start.pop(tid, None)
        if start is None:
            return
        t0, parent, prog = start
        self.spans.append((next(self._ids), "python.gc", t0,
                           time.perf_counter(), parent, prog, tid))

    # -- the ledger ----------------------------------------------------------

    def ledger(self) -> Dict[str, Any]:
        """Self time per span name, program walls, and the unattributed part.

        Spans with no parent but a program id hang under that program's
        root span (the dispatcher-thread spans of the service).  Returns
        ``{"self_s": {name: seconds}, "wall_s": s, "unattributed_s": s,
        "programs": n, "counts": {name: calls}}``.
        """
        roots = {s[5]: s for s in self.spans if s[1] == "program"}
        # Spans outside every program (service start-up, warm-up) are not
        # part of any measured program and stay out of the ledger.
        spans = [s for s in self.spans if s[5] in roots]
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for s in spans:
            if s[1] == "program":
                continue
            parent = s[4] if s[4] is not None else roots[s[5]][0]
            children[parent].append((s[2], s[3]))
        self_s: Dict[str, float] = defaultdict(float)
        counts: Dict[str, int] = defaultdict(int)
        wall = unattributed = 0.0
        for s in spans:
            sid, name, t0, t1 = s[0], s[1], s[2], s[3]
            own = (t1 - t0) - union_length(children.get(sid, []), t0, t1)
            if name == "program":
                wall += t1 - t0
                unattributed += own
            else:
                self_s[name] += own
                counts[name] += 1
        return {"self_s": dict(self_s), "counts": dict(counts),
                "wall_s": wall, "unattributed_s": unattributed,
                "programs": len(roots)}

    def chrome_trace(self, metadata: Dict[str, Any]) -> Dict[str, Any]:
        """The spans as a Chrome-trace (``chrome://tracing``) document."""
        t_base = min((s[2] for s in self.spans), default=0.0)
        tids = {tid: n for n, tid in enumerate(
            sorted({s[6] for s in self.spans}))}
        events = []
        for sid, name, t0, t1, parent, prog, tid in self.spans:
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "ts": (t0 - t_base) * 1e6, "dur": (t1 - t0) * 1e6,
                "pid": 0, "tid": tids[tid],
                "args": {"span": sid, "parent": parent,
                         "program": str(prog)}})
        events.sort(key=lambda e: (e["ts"], -e["dur"]))
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": metadata}
