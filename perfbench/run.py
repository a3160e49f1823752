"""Repository benchmark: end-to-end and per-layer metrics of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout.  Each run sets the workload up five
times, each in a fresh process with its own empty work directory, and
measures the last of them for about ``--seconds`` seconds of whole
passes.  Every operation is checked (see ``workloads.py``).  The last
line of standard output is one JSON object: with ``--trace 0`` it holds
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
traced run.  The exit code is 0 only when every operation was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import spawn_probe_s
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: set-ups per run; ``setup_s`` is their median
SETUPS = 5
#: time one set-up may take, and time for the checks after the window;
#: with the window they bound a run
SETUP_LIMIT_S = 15.0
CHECK_LIMIT_S = 60.0
#: each knob changes which program is measured, so a run refuses them
KNOBS = (
    "REPRO_ENGINE", "REPRO_WORKERS", "REPRO_BATCH_SIZE", "REPRO_NO_CACHE",
    "REPRO_FAULTS", "REPRO_ISLANDS", "REPRO_MIGRATION_INTERVAL",
)
#: operation kinds that simulate cycles (warm reads and the GA do not
#: report a cycle count)
SIMULATING = ("analyze", "cold", "profile")

#: per-layer span metrics: metric -> (layer, what)
SPAN_METRICS = {
    "sim.settle_s": ("sim.settle", "self"),
    "sim.settle_calls": ("sim.settle", "calls"),
    "sim.settle_rows": ("sim.settle", "rows"),
    "batch.step_s": ("batch.step", "self"),
    "batch.step_calls": ("batch.step", "calls"),
    "batch.snapshot_s": ("batch.snapshot", "self"),
    "batch.snapshot_calls": ("batch.snapshot", "calls"),
    "batch.run_to_halt_s": ("batch.run_to_halt", "self"),
    "machine.bus_io_s": ("machine.bus_io", "self"),
    "machine.bus_io_calls": ("machine.bus_io", "calls"),
    "cpu.probe_s": ("cpu.probe", "self"),
    "cpu.probe_calls": ("cpu.probe", "calls"),
    "activity.explore_s": ("activity.explore", "self"),
    "activity.state_key_s": ("activity.state_key", "self"),
    "activity.state_key_calls": ("activity.state_key", "calls"),
    "trace.unpack_s": ("trace.unpack", "self"),
    "trace.unpack_bytes": ("trace.unpack", "bytes"),
    "peakpower.s": ("peakpower", "self"),
    "power.pair_power_s": ("power.pair_power", "self"),
    "peakpower.rows": ("power.pair_power", "rows"),
    "peakenergy.s": ("peakenergy", "self"),
    "baselines.profile_s": ("baselines.profile", "self"),
    "baselines.concrete_cycles": ("baselines.profile", "cycles"),
    "stressmark.s": ("stressmark", "self"),
}

#: normalized times are seconds on a host that runs the host probe
#: (``child.HostProbe``) in exactly this long
PROBE_REF_S = 0.008
#: normalized set-up times are seconds on a host that runs
#: ``child.spawn_probe_s`` in exactly this long
SPAWN_REF_S = 0.15

#: the coverage of traced ``analyze()`` time by layer self times that a
#: traced multipath run must reach
MIN_COVERAGE = 0.9


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """(end-to-end, per-layer) metric units, as ``BENCHMARK.json`` lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple(
        {metric["name"]: metric["unit"] for metric in spec[key]}
        for key in ("end_to_end", "per_layer")
    )


def normalized_s(samples: list[dict]) -> float:
    """Mean operation time at the reference host speed.

    A host probe runs right before and right after every operation; the
    operation's time divided by the mean of its two probes cancels the
    host's speed drift during that operation.
    """
    return PROBE_REF_S * statistics.mean(s["s"] / s["probe_s"] for s in samples)


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[8]


def run_child(args, run_dir: Path, number: int, setup_only: bool,
              deadline: float) -> dict:
    """Start ``child.py`` in a fresh work directory; return its report.

    The report's ``setup_norm_s`` is its set-up time at the reference
    host speed: the spawn probe runs right before the spawn here and
    right after the set-up in the child.
    """
    workdir = run_dir / f"p{number}"
    workdir.mkdir(parents=True)
    out = run_dir / f"p{number}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--root", str(ROOT), "--out", str(out),
    ]
    if setup_only:
        command.append("--setup-only")
    probe_before = spawn_probe_s()
    spawned_at = time.monotonic()
    child = subprocess.Popen(
        command + ["--spawned-at", repr(spawned_at)],
        cwd=workdir, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    try:
        child.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        raise RuntimeError(f"workload process {number} ran out of time")
    if not out.exists():
        raise RuntimeError(
            f"workload process {number} exited {child.returncode} "
            "without a report"
        )
    report = json.loads(out.read_text())
    if "crash" in report:
        raise RuntimeError(f"workload process {number} crashed:\n"
                           f"{report['crash']}")
    report["setup_norm_s"] = SPAWN_REF_S * report["setup_s"] / (
        (probe_before + report["setup_probe_s"]) / 2
    )
    return report


def end_to_end(report: dict, setups: list[dict]) -> dict[str, float]:
    # whole passes only, so every program of the mix has the same weight
    ok = [s for s in report["samples"] if "error" not in s]
    return {
        "setup_s": statistics.median(r["setup_norm_s"] for r in setups),
        "op_norm_s": normalized_s(ok) if ok else 0.0,
        "peak_rss_mb": report["peak_rss_mb"],
    }


def per_layer(
    report: dict, setups: list[dict], workload, names
) -> tuple[dict, list]:
    """Per-layer metrics of a traced run, plus the trace checks' failures.

    A layer the workload does not exercise reads 0.
    """
    problems: list[str] = []
    metrics = dict.fromkeys(names, 0.0)
    for phase in ("setup.import_s", "cpu.build_s", "power.model_init_s",
                  "sim.evaluator_load_s", "service.server_start_s",
                  "service.warmup_s"):
        values = [r["phases"][phase] for r in setups if phase in r["phases"]]
        metrics[phase] = _p50(values)
    metrics["setup.wall_s"] = _p50([r["setup_s"] for r in setups])

    samples = [s for s in report["samples"] if "error" not in s]
    untraced = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    by_kind = {}
    for sample in untraced:
        by_kind.setdefault(sample["kind"], []).append(sample["s"])
    if untraced:
        metrics["op_mean_s"] = statistics.mean(s["s"] for s in untraced)
        metrics["host.probe_s"] = _p50([s["probe_s"] for s in untraced])
    simulating = [s for s in untraced if s["kind"] in SIMULATING]
    busy = sum(s["s"] for s in simulating)
    if busy:
        metrics["sim_cycles_per_s"] = sum(
            s["summary"]["_cycles"] for s in simulating) / busy
    for kind in ("analyze", "warm", "cold", "profile"):
        metrics[f"{kind}_p50_s"] = _p50(by_kind.get(kind, []))
        metrics[f"{kind}_p90_s"] = _p90(by_kind.get(kind, []))
    metrics["stressmark_s"] = _p50(by_kind.get("stressmark", []))

    layers = report["layers"]
    passes = report["traced_passes"]
    if workload.in_process:
        for metric, (name, what) in SPAN_METRICS.items():
            layer = layers.get(name)
            if not layer or not passes:
                continue
            if what == "self":
                value = layer["self_ns"] / 1e9
            elif what == "calls":
                value = layer["calls"]
            else:
                value = layer["counts"].get(what, 0)
            metrics[metric] = value / passes
        settle = layers.get("sim.settle")
        if settle and settle["counts"].get("rows"):
            metrics["sim.settle_ns_per_row"] = (
                settle["self_ns"] / settle["counts"]["rows"]
            )
        step = layers.get("batch.step")
        if step and step["calls"]:
            metrics["batch.rows_per_step"] = (
                step["counts"].get("lanes", 0) / step["calls"]
            )
        trees = [s["summary"] for s in traced if s["kind"] == "analyze"]
        if trees and passes:
            metrics["activity.tree_cycles"] = sum(
                t["_cycles"] for t in trees) / passes
            metrics["activity.segments"] = sum(
                t["n_segments"] for t in trees) / passes
            metrics["activity.memo_hits"] = sum(
                t["n_memo_hits"] for t in trees) / passes
            edges = sum(t["_fork_edges"] for t in trees)
            if edges:
                metrics["activity.memo_hit_ratio"] = (
                    metrics["activity.memo_hits"] * passes / edges
                )
        # raw wall-clock p50 of the workload's main operation kind
        kind = workload.main_kind
        metrics["trace.overhead_s"] = (
            _p50([s["s"] for s in traced if s["kind"] == kind])
            - _p50(by_kind.get(kind, []))
        )
        root = layers.get("analyze")
        if root and root["total_ns"]:
            metrics["trace.coverage"] = (
                (root["total_ns"] - root["self_ns"]) / root["total_ns"]
            )
        for name in workload.required:
            if not layers.get(name, {}).get("calls"):
                problems.append(f"traced run: span {name} never fired")
        if workload.name == "multipath" and (
            metrics["trace.coverage"] < MIN_COVERAGE
        ):
            problems.append(
                f"traced run: layer self times cover only "
                f"{metrics['trace.coverage']:.1%} of analyze() time"
            )
    else:
        spans = {key: [] for key in ("submit", "queue", "boot", "exec",
                                     "deliver")}
        for sample in samples:
            request = sample["summary"]["_request"]
            stamps = request["events"]
            missing = {"queued", "started", "booted", "finished"} - set(stamps)
            if missing:
                problems.append(
                    f"traced run: job {request['job_id']} has no "
                    f"{', '.join(sorted(missing))} event"
                )
                continue
            spans["submit"].append(request["posted"] - request["began"])
            spans["queue"].append(stamps["started"] - stamps["queued"])
            spans["boot"].append(stamps["booted"] - stamps["started"])
            spans["exec"].append(stamps["finished"] - stamps["booted"])
            spans["deliver"].append(request["delivered"] - stamps["finished"])
        for key, values in spans.items():
            metrics[f"service.{key}_s"] = _p50(values)
        store = report["store"]
        if samples:
            # one store lookup per request: warm reads hit, uploads miss
            metrics["service.store_hit_ratio"] = store["hits"] / len(samples)
        metrics["service.worker_peak_rss_mb"] = report["children_rss_mb"]
        metrics["store.entries_added"] = (
            store["entries_added"] / report["passes"]
        )
        metrics["store.bytes_written"] = (
            store["bytes_written"] / report["passes"]
        )
        if not store["entries_added"]:
            problems.append("traced run: no store entry was written")
    return metrics, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "repro").is_dir() or not (
        ROOT / "tests" / "golden_suite.json"
    ).is_file():
        print(f"perfbench: {ROOT} is not a checkout of the repository "
              "(no src/repro or tests/golden_suite.json)", file=sys.stderr)
        return 2
    end_to_end_units, per_layer_units = declared_metrics()
    knobs = [knob for knob in KNOBS if knob in os.environ]
    if knobs:
        print(f"perfbench: refusing to run with {', '.join(knobs)} set; "
              "the benchmark measures the default configuration",
              file=sys.stderr)
        return 2

    run_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    deadline = started + SETUPS * SETUP_LIMIT_S + args.seconds + CHECK_LIMIT_S
    try:
        setups = [
            run_child(args, run_dir, number, True, deadline)
            for number in range(SETUPS - 1)
        ]
        report = run_child(args, run_dir, SETUPS - 1, False, deadline)
        setups.append(report)
    except RuntimeError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    workload = WORKLOADS[args.workload]
    failures = list(report["failures"])
    if args.trace:
        units = per_layer_units
        metrics, problems = per_layer(report, setups, workload, units)
        failures += problems
    else:
        units = end_to_end_units
        metrics = end_to_end(report, setups)
    if set(metrics) != set(units):
        raise SystemExit(
            "perfbench: computed metrics differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ set(units))}"
        )
    samples = report["samples"]
    kinds = sorted({s["kind"] for s in samples})
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(samples)} operations ({', '.join(kinds)}) in "
          f"{report['passes']} passes over {report['window_s']:.1f} s")
    print("# host " + " ".join(f"{k}={v}" for k, v in report["info"].items()))
    print("# set-ups (wall s / reference s): " + ", ".join(
        f"{r['setup_s']:.3f}/{r['setup_norm_s']:.3f}" for r in setups))
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    for failure in failures:
        print(f"# FAILED {failure}")
    result = {
        "correct": not failures,
        "attempted": len(samples),
        "failed": sum("error" in s for s in samples),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
