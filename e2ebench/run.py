"""End-to-end DCR benchmark: one workload, timed or traced, one result line.

Run from the repository root::

    python3 e2ebench/run.py --workload stencil-inproc --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched: a
closed (or, for ``service-mix``, open) loop of programs for ``--seconds``,
then several cold-interpreter set-ups.  ``--trace 1`` runs a fixed number
of programs untraced, then twice traced with the same seed, and reports
the per-layer ledger; a count that differs between the two traced passes,
or a ledger that leaves more than 10% of program wall time unattributed,
fails the run.  Every program's output is checked; a failure counts in
``attempted``/``failed`` and makes the exit status non-zero.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The environment, every sample
and (traced) a Chrome trace go to ``e2ebench/out/``.  See
``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
SRC = os.path.join(ROOT, "src")

#: Unattributed share of program wall above which a traced run fails.
MAX_UNATTRIBUTED = 0.10
#: Cold-interpreter set-ups per timed run; setup_s is their median.
SETUP_PROBES = 5

#: Per-layer metrics that are exact counts: equal across traced passes.
COUNT_METRICS = (
    "runtime.points", "core.determinism.hash_calls",
    "core.determinism.checks", "core.pipeline.ops", "core.coarse.fences",
    "core.coarse.fences_elided", "core.coarse.users_scanned",
    "core.fine.scans", "core.tracing.replayed_ops",
    "core.tracing.replay_ratio", "core.tracing.fallbacks",
    "dist.transport.recvs", "dist.transport.frames", "dist.monitor.checks",
    "service.template_hit_ratio",
)


def _import_layers() -> None:
    """Put the checkout's ``src/`` first on the path and import it."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"e2ebench: no repro package under {SRC}")
    sys.path.insert(0, SRC)
    import repro  # noqa: F401


def _peak_rss_mb() -> float:
    """This process plus its children: reaped ones and live ones."""
    import multiprocessing
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    live = 0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        live += int(line.split()[1])
        except OSError:
            pass
    return (own + reaped + live) / 1024.0


def stop_helpers() -> None:
    """Stop and reap every process this one started, helpers included.

    The workloads reap their own replicas and gang workers; what remains
    is multiprocessing's resource tracker, which the shared-memory fabric
    starts on first use and which would otherwise outlive this process.
    """
    import multiprocessing
    from multiprocessing import resource_tracker
    for child in multiprocessing.active_children():
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def _cpu_jiffies() -> tuple:
    """(steal, total) CPU time of the host so far, from ``/proc/stat``."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return fields[7], sum(fields)


def environment(args, wl) -> dict:
    import numpy
    affinity = sorted(os.sched_getaffinity(0))
    nproc = os.cpu_count()
    busy = wl.processes + wl.generator_threads
    return {
        "nproc": nproc, "affinity": affinity,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "loadavg_start": list(os.getloadavg()), "seed": args.seed,
        "workload": args.workload, "sizes": wl.sizes,
        "processes": wl.processes,
        "generator_threads": wl.generator_threads,
        "oversubscribed": busy > len(affinity),
        "tail_percentile": wl.tail_percentile,
        "tiny": args.tiny,
    }


# -- set-up probes -----------------------------------------------------------

def probe_setup(args) -> int:
    """Child side: imports, inputs (timed apart), first program, report.

    Prints one line once the first program has completed; the parent
    stops its clock on that line and subtracts the input generation time.
    """
    import importlib
    from workloads import WORKLOADS, make_workload
    _import_layers()
    for module in WORKLOADS[args.workload].modules:
        importlib.import_module(module)
    t_gen = time.perf_counter()
    wl = make_workload(args.workload, args.seed, args.tiny,
                       args.break_reference)
    gen_s = time.perf_counter() - t_gen
    try:
        wl.start()
        try:
            first = wl.first_program()
            print(json.dumps({"gen_s": gen_s, "ok": first.ok,
                              "error": first.error}), flush=True)
        finally:
            wl.stop()
    finally:
        stop_helpers()
    return 0


def measure_setup(args, probes: int) -> tuple:
    """Cold-interpreter times to the first completed program, and the
    failures of the probes' programs."""
    times, failures = [], []
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--tiny"] * args.tiny + ["--break-reference"] * args.break_reference
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                cwd=ROOT)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        try:
            report = json.loads(line)
        except ValueError:
            failures.append(f"setup probe exited {proc.returncode}")
            continue
        if not report["ok"]:
            failures.append(f"setup probe program: {report['error']}")
        times.append(t1 - t0 - report["gen_s"])
    return times, failures


# -- timed run ---------------------------------------------------------------

def timed_run(args, wl) -> dict:
    import numpy as np
    wl.start()
    try:
        outcomes = list(wl.warm_up())
        warm = len(outcomes)
        if hasattr(wl, "run_stream"):
            window, t_first, t_last = wl.run_stream(seconds=args.seconds)
            outcomes += window
            elapsed = t_last - t_first
        else:
            t_first = time.perf_counter()
            while time.perf_counter() - t_first < args.seconds:
                outcomes.append(wl.run_program())
            elapsed = time.perf_counter() - t_first
        peak = _peak_rss_mb()
    finally:
        wl.stop()
    window = outcomes[warm:]
    lat_ms = [o.latency_s * 1e3 for o in window if o.ok]
    setup, setup_failures = measure_setup(args, args.setup_probes)
    failures = [o.error for o in outcomes if not o.ok] + setup_failures
    ok = len(lat_ms) > 0 and len(setup) > 0
    metrics = {
        "programs_per_s": (len(lat_ms) / elapsed, "1/s"),
        "program_ms_p50": (statistics.median(lat_ms) if ok else 0.0, "ms"),
        "program_ms_tail": (float(np.percentile(lat_ms, wl.tail_percentile))
                            if ok else 0.0, "ms"),
        "setup_s": (statistics.median(setup) if ok else 0.0, "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    beyond = sum(1 for x in lat_ms
                 if ok and x > metrics["program_ms_tail"][0])
    return {
        "metrics": metrics, "failures": failures,
        "attempted": len(outcomes) + args.setup_probes,
        "failed": len(failures),
        "samples": {"program_ms": lat_ms, "setup_s": setup,
                    "tail_samples_beyond": beyond,
                    "window_s": elapsed,
                    "loadgen_lag_ms_max": getattr(wl, "lag_max_s", 0.0) * 1e3},
    }


# -- traced run --------------------------------------------------------------

def _traced_pass(wl, n: int, tracer=None):
    """``n`` programs (after warm-up), optionally under ``tracer``."""
    from repro.regions import region_cache_stats
    wl.start()
    try:
        outcomes = list(wl.warm_up())
        rc0 = region_cache_stats()
        if tracer is not None:
            tracer.install()
        try:
            if hasattr(wl, "run_stream"):
                window, _, _ = wl.run_stream(count=n, tracer=tracer)
                counts = dict(wl.last_counts)
                counts["dist.transport.frames"] /= n
            else:
                window, totals = [], {}
                for i in range(n):
                    window.append(wl.run_program(tracer=tracer, program=i))
                    for k, v in wl.last_counts.items():
                        totals[k] = totals.get(k, 0) + v
                counts = {k: v / n for k, v in totals.items()}
        finally:
            if tracer is not None:
                tracer.uninstall()
        rc1 = region_cache_stats()
        if tracer is not None and hasattr(wl, "queue_wait_spans"):
            wl.queue_wait_spans(tracer)
    finally:
        wl.stop()
    cache = {k: rc1[k] - rc0[k] for k in rc0}
    return outcomes + window, window, counts, cache


def _layer_metrics(tracer, counts: dict, cache: dict,
                   lag_ms_max: float) -> dict:
    from ledger import SELF_TIME_METRIC
    led = tracer.ledger()
    programs = max(1, led["programs"])
    m = {metric: 0.0 for metric in SELF_TIME_METRIC.values()}
    for name, secs in led["self_s"].items():
        m[SELF_TIME_METRIC[name]] += secs * 1e3 / programs
    calls = led["counts"]
    m.update({k: 0 for k in COUNT_METRICS})
    m.update(counts)
    m["core.determinism.hash_calls"] = \
        calls.get("core.determinism.hash", 0) / programs
    m["dist.transport.recvs"] = \
        calls.get("dist.transport.recv", 0) / programs
    ops = m["core.pipeline.ops"]
    m["core.tracing.replay_ratio"] = \
        m["core.tracing.replayed_ops"] / ops if ops else 0.0
    alias = cache["alias_hits"] + cache["alias_misses"]
    contains = cache["contains_hits"] + cache["contains_misses"]
    m["regions.cache.alias_hit_ratio"] = \
        cache["alias_hits"] / alias if alias else 0.0
    m["regions.cache.contains_hit_ratio"] = \
        cache["contains_hits"] / contains if contains else 0.0
    m["python.gc_collections"] = calls.get("python.gc", 0) / programs
    m["loadgen.lag_ms_max"] = lag_ms_max
    m["trace.unattributed_share"] = \
        led["unattributed_s"] / led["wall_s"] if led["wall_s"] else 0.0
    m["trace.program_ms"] = led["wall_s"] * 1e3 / programs
    return m


def traced_run(args, wl) -> dict:
    from ledger import Tracer
    n = 2 if args.tiny else wl.trace_programs
    all_out, plain, _, _ = _traced_pass(wl, n)
    passes = []
    for _ in range(2):
        tracer = Tracer()
        outs, window, counts, cache = _traced_pass(wl, n, tracer)
        all_out += outs
        lag = getattr(wl, "lag_max_s", 0.0) * 1e3
        passes.append((tracer, window,
                       _layer_metrics(tracer, counts, cache, lag)))
    failures = [o.error for o in all_out if not o.ok]
    failed = len(failures)
    first, second = passes[0][2], passes[1][2]
    for name in COUNT_METRICS:
        if first[name] != second[name]:
            failures.append(f"count {name} drifted between two runs of "
                            f"seed {args.seed}: {first[name]} != "
                            f"{second[name]}")
    for _, _, layer in passes:
        share = layer["trace.unattributed_share"]
        if share > MAX_UNATTRIBUTED:
            failures.append(f"ledger leaves {share:.1%} of program wall "
                            f"unattributed (limit {MAX_UNATTRIBUTED:.0%})")
    untraced = sum(o.latency_s for o in plain)
    traced = sum(o.latency_s for o in passes[0][1])
    first["trace.overhead_ratio"] = traced / untraced if untraced else 0.0
    return {"metrics": {k: (v, _unit(k)) for k, v in sorted(first.items())},
            "attempted": len(all_out), "failed": failed,
            "failures": failures,
            "tracer": passes[0][0], "samples": {"programs_per_pass": n}}


def _unit(metric: str) -> str:
    if metric.endswith("_ms") or metric.endswith("_ms_max"):
        return "ms"
    if metric.endswith("_ratio") or metric.endswith("_share"):
        return "ratio"
    return "count"


# -- entry -------------------------------------------------------------------

def parse_args(argv):
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test sizes (not comparable to full runs)")
    p.add_argument("--break-reference", action="store_true",
                   help="check against a wrong reference (every program "
                        "must then fail)")
    p.add_argument("--probe-setup", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    args.setup_probes = 1 if args.tiny else SETUP_PROBES
    return args


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    args = parse_args(argv)
    if args.probe_setup:
        return probe_setup(args)
    try:
        return run(args)
    finally:
        stop_helpers()


def run(args) -> int:
    _import_layers()
    from workloads import make_workload
    wl = make_workload(args.workload, args.seed, args.tiny,
                       args.break_reference)
    env = environment(args, wl)
    steal0, total0 = _cpu_jiffies()
    result = traced_run(args, wl) if args.trace else timed_run(args, wl)
    steal1, total1 = _cpu_jiffies()
    # Time the hypervisor gave other guests while this run wanted the
    # CPUs: the main source of run-to-run spread on a shared host.
    env["cpu_steal_share"] = ((steal1 - steal0) / (total1 - total0)
                              if total1 > total0 else 0.0)
    failed = result["failed"]
    attempted = result["attempted"]
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}")
    tracer = result.pop("tracer", None)
    if tracer is not None:
        with open(stem + ".chrome.json", "w") as fh:
            json.dump(tracer.chrome_trace(env), fh)
    with open(stem + ".json", "w") as fh:
        json.dump({"env": env, "metrics": result["metrics"],
                   "failures": result["failures"],
                   "samples": result["samples"]}, fh, indent=1)
    print("env " + json.dumps(env, sort_keys=True))
    for msg in result["failures"][:10]:
        print(f"FAILED {msg}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value:.6g} {unit}")
    print(f"error_rate {failed / attempted:.6g} ratio")
    correct = not result["failures"]
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
