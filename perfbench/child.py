"""One workload run in a fresh process: set up, measure, check.

``run.py`` starts this script with the run's own empty work directory as
the current directory and reads the JSON it writes to ``--out``.  With
``--setup-only`` it only sets up (and tears down), so ``run.py`` can take
the median of several set-ups.
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
import traceback
from pathlib import Path

from spans import Tracer
from workloads import WORKLOADS, mismatch, register_spans


class HostProbe:
    """A fixed mix of small numpy operations and interpreted Python.

    The shared host's speed drifts by up to ±25% over tens of seconds,
    for this program and for the probe alike.  Timing the probe right
    before and right after every operation lets ``run.py`` express
    operation times at a reference host speed.  The probe uses no code
    of the program, so no change to the program moves it.
    """

    def __init__(self) -> None:
        import numpy as np

        self.a = np.arange(1 << 15, dtype=np.uint64)
        self.b = self.a[::-1].copy()
        self.out = np.empty_like(self.a)
        self.index = np.random.default_rng(0).integers(0, 1 << 15, 4096)
        self.np = np

    def __call__(self) -> float:
        np, a, b, out, index = self.np, self.a, self.b, self.out, self.index
        start = time.perf_counter()
        for _ in range(200):
            np.bitwise_and(a, b, out)
            np.bitwise_or(out, a, out)
            out.take(index)
            total = 0
            for value in range(300):
                total += value
        return time.perf_counter() - start


def spawn_probe_s() -> float:
    """Seconds to start a fresh interpreter that imports numpy.

    A set-up is mostly process start and imports, which ``HostProbe``
    tracks only partly.  This probe does the same kind of work and uses
    no code of the program; ``run.py`` times it right before it spawns a
    workload process, and the process right after its set-up.
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - start


def _rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def measure(workload, seconds: float, traced_run: bool) -> dict:
    """Closed loop over whole passes until *seconds* are (about) used.

    A new pass starts only while at least half a pass fits in the
    remaining time.  In a traced run of an in-process workload, odd
    passes run with the spans installed and even passes without, so the
    two can be compared in the same process.
    """
    tracer = None
    if traced_run and workload.in_process:
        tracer = Tracer()
        register_spans(tracer)
    probe = HostProbe()
    samples: list[dict] = []
    pass_s: list[float] = []
    traced_passes = 0
    store_before = workload.store_counts()
    start = time.monotonic()
    index = 0
    while True:
        ops = workload.pass_ops(index)
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
            traced_passes += 1
        began = time.monotonic()
        try:
            for op in ops:
                sample = {"kind": op.kind, "label": op.label, "traced": traced}
                before = probe()
                t0 = time.perf_counter()
                try:
                    result = op.run()
                    sample["s"] = time.perf_counter() - t0
                except Exception as exc:  # a failed operation, not a crash
                    sample["s"] = time.perf_counter() - t0
                    sample["error"] = f"{type(exc).__name__}: {exc}"
                # the host's speed during the operation, from both sides
                sample["probe_s"] = (before + probe()) / 2
                if "error" not in sample:
                    sample["summary"] = op.summarize(result)
                    del result  # one analysis tree alive at a time
                    if traced_run and not workload.in_process:
                        request = sample["summary"]["_request"]
                        request["events"] = workload.events(request["job_id"])
                sample["op"] = op
                samples.append(sample)
        finally:
            if traced:
                tracer.remove()
        pass_s.append(time.monotonic() - began)
        index += 1
        used = time.monotonic() - start
        minimum = 2 if tracer is not None else 1
        if index >= minimum and used + statistics.mean(pass_s) / 2 > seconds:
            break
    store_after = workload.store_counts()
    return {
        "samples": samples,
        "passes": index,
        "traced_passes": traced_passes,
        "window_s": time.monotonic() - start,
        "store": {
            "entries_added": store_after[0] - store_before[0],
            "bytes_written": store_after[1] - store_before[1],
            "hits": store_after[2] - store_before[2],
        },
        "layers": {
            name: {
                "calls": layer.calls, "total_ns": layer.total_ns,
                "self_ns": layer.self_ns, "counts": layer.counts,
            }
            for name, layer in (tracer.layers.items() if tracer else ())
        },
    }


def _results(summary: dict) -> dict:
    return {k: v for k, v in summary.items() if not k.startswith("_")}


def check(samples: list[dict]) -> list[str]:
    """Check every summary; list the failures.

    Each summary must match its expected value, and must be identical,
    bit for bit, to the first summary of the same operation in the run.
    """
    failures = []
    first: dict[tuple[str, str], dict] = {}
    for sample in samples:
        op = sample.pop("op")
        if "error" in sample:
            failures.append(f"{op.label}: {sample['error']}")
            continue
        results = _results(sample["summary"])
        earlier = first.setdefault((op.kind, op.label), results)
        try:
            problem = mismatch(results, earlier) or mismatch(
                results, op.expect(), op.rel
            )
        except Exception as exc:
            problem = f"reference failed: {type(exc).__name__}: {exc}"
        if problem:
            sample["error"] = problem
            failures.append(f"{op.label}: {problem}")
    return failures


def engine_info(workload) -> dict:
    """The configuration a default user call resolves to on this host."""
    import numpy

    from repro.core.activity import default_batch_size
    from repro.sim.bitplane import default_engine

    engine = default_engine()
    cpu = getattr(workload, "cpu", None)
    if cpu is None:
        from repro.cpu import build_ulp430

        cpu = build_ulp430()
    evaluator = cpu.evaluator_for(None)
    resolved = getattr(evaluator, "engine_name", None) or engine
    if engine != "native":
        native = "not used by the default engine"
    elif resolved == "native":
        native = "built"
    else:
        native = "fell back to bitplane"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "engine": engine,
        "evaluator": type(evaluator).__name__,
        "native": native,
        "batch_size": default_batch_size(engine),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() just before this process "
                        "was started")
    parser.add_argument("--root", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](Path(args.root), Path.cwd(), args.seed)
    phases: dict[str, float] = {}
    report: dict = {}
    try:
        workload.setup(phases)
        report["setup_s"] = time.monotonic() - args.spawned_at
        report["phases"] = phases
        # the host's speed as set-up ended; run.py probed it before spawning
        report["setup_probe_s"] = spawn_probe_s()
        if not args.setup_only:
            report.update(measure(workload, args.seconds, bool(args.trace)))
            rss = _rss_mb(resource.RUSAGE_SELF)
            workload.teardown()
            report["peak_rss_mb"] = rss + workload.server_rss_mb
            # the largest of the server and its job workers, once waited for
            report["children_rss_mb"] = _rss_mb(resource.RUSAGE_CHILDREN)
            report["failures"] = (
                check(report["samples"]) + workload.check_window(report)
            )
            report["info"] = engine_info(workload)
    except Exception:
        report["crash"] = traceback.format_exc()
    finally:
        workload.teardown()
    Path(args.out).write_text(json.dumps(report))
    return 1 if "crash" in report else 0


if __name__ == "__main__":
    sys.exit(main())
