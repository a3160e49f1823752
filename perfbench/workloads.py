"""The benchmark's workloads: set-up, passes of timed operations, checks.

A workload runs in its own fresh process (see ``child.py``).  It sets up
the way a user would, then hands out *passes*: each pass is one complete,
seed-shuffled round over the workload's operations, so every pass has
the same mix however many passes fit in the run.  Every operation's
result is reduced to a small summary right after it is timed, and every
summary is checked after the timed window against the committed goldens
or against an untimed in-process reference run of the same input.
"""

from __future__ import annotations

import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: the seven forking Table 4.1 kernels (13-157 segments each)
MULTIPATH = ("Viterbi", "inSort", "tHold", "binSearch", "div", "rle", "PI")
#: the seven single-segment Table 4.1 kernels
STRAIGHTLINE = ("ConvEn", "FFT", "autoCorr", "intAVG", "intFilt", "mult", "tea8")
#: seed-generated programs analyzed in every straightline pass
FUZZ_PER_PASS = 4
#: Table 4.1 kernels the service store is pre-filled with (the reads)
WARM = ("FFT", "intAVG")
#: warm reads per cold upload in one service pass
WARM_PER_COLD = 2
#: profiled kernels: two forking, two straight-line
PROFILED = ("inSort", "tHold", "mult", "FFT")
#: input sets per profiling call
N_INPUT_SETS = 8
#: seconds a single service request may take before it counts as failed
REQUEST_TIMEOUT_S = 120.0

#: float tolerance against the committed goldens, the same as the
#: repository's golden tests: they were recorded under another numpy, and
#: summation order moves the last couple of ulps between versions
GOLDEN_REL = 1e-9

#: fields of ``AnalysisReport`` compared to the goldens
REPORT_FIELDS = (
    "peak_power_mw", "peak_energy_pj", "npe_pj_per_cycle", "peak_cycle",
    "path_cycles", "n_segments", "n_cycles", "n_memo_hits",
)
#: fields a warm service result shares with the goldens
WARM_FIELDS = (
    "peak_power_mw", "peak_energy_pj", "npe_pj_per_cycle", "path_cycles",
    "n_segments",
)
#: fields an upload result shares with ``AnalysisReport.to_payload``
UPLOAD_FIELDS = (
    "peak_power_mw", "peak_energy_pj", "npe_pj_per_cycle", "peak_cycle",
    "path_cycles", "n_segments", "n_cycles",
)


@dataclass
class Op:
    """One timed operation of a pass."""

    kind: str
    label: str
    run: Callable[[], object]
    #: reduces the result to the small dict the checks compare
    summarize: Callable[[object], dict]
    #: expected summary, computed on demand after the timed window
    expect: Callable[[], dict]
    #: relative float tolerance against *expect* (0: bit-exact)
    rel: float = 0.0


def _seeds(seed: int, tag: str, count: int) -> list[int]:
    rng = random.Random(f"{seed}:{tag}")
    return [rng.getrandbits(32) for _ in range(count)]


def _report_summary(report) -> dict:
    tree = report.tree
    summary = {
        "peak_power_mw": report.peak_power_mw,
        "peak_energy_pj": report.peak_energy_pj,
        "npe_pj_per_cycle": report.npe_pj_per_cycle,
        "peak_cycle": int(report.peak_power.peak_cycle),
        "path_cycles": int(report.peak_energy.path_cycles),
        "n_segments": len(tree.segments),
        "n_cycles": int(tree.n_cycles),
        "n_memo_hits": int(tree.n_memo_hits),
    }
    # simulated work, used for throughput and the traced counters only
    summary["_cycles"] = summary["n_cycles"]
    summary["_fork_edges"] = len(tree.edges())
    return summary


def _high_water_mb(pid: int) -> float:
    """Peak resident memory of a live process (Linux ``VmHWM``)."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def mismatch(summary: dict, expected: dict, rel: float = 0.0) -> str | None:
    """The first field where *summary* differs from *expected*.

    Integers and strings must be equal; floats must be equal too, or
    within *rel* of the expected value when *rel* is given.
    """
    for key, want in expected.items():
        got = summary.get(key)
        if got == want:
            continue
        if (
            rel and isinstance(want, float) and isinstance(got, float)
            and abs(got - want) <= rel * abs(want)
        ):
            continue
        return f"{key}: got {got!r}, expected {want!r}"
    return None


class Workload:
    """Base: one closed-loop caller, default engine, batch and workers."""

    name = ""
    #: layers whose spans must fire in a traced run of this workload
    required: tuple[str, ...] = ()
    #: in-process workloads alternate traced and untraced passes
    in_process = True
    #: the operation kind whose p50 the tracing overhead compares
    main_kind = "analyze"

    def __init__(self, root: Path, workdir: Path, seed: int) -> None:
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.golden = json.loads(
            (root / "tests" / "golden_suite.json").read_text()
        )

    def setup(self, phases: dict) -> None:
        raise NotImplementedError

    def pass_ops(self, index: int) -> list[Op]:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def store_counts(self) -> tuple[int, int, int]:
        """(entries, bytes, hits) of this workload's artifact store."""
        return 0, 0, 0

    def check_window(self, report: dict) -> list[str]:
        """Failures visible only over the whole timed window."""
        return []

    #: peak resident memory of a long-lived server process, if any
    server_rss_mb = 0.0

    def shuffled(self, ops: list[Op], index: int) -> list[Op]:
        random.Random(f"{self.seed}:pass{index}").shuffle(ops)
        return ops


class _Engine(Workload):
    """Shared set-up of the in-process workloads: the default engine."""

    def setup(self, phases: dict) -> None:
        start = time.perf_counter()
        import numpy  # noqa: F401  (counted as import time)

        import repro.core.api
        import repro.core.baselines
        import repro.core.stressmark
        from repro.bench import runner
        from repro.bench.perf import STRESSMARK_KWARGS
        from repro.bench.suite import ALL_BENCHMARKS
        from repro.cells import SG65
        from repro.cpu import build_ulp430
        from repro.power.model import PowerModel

        phases["setup.import_s"] = time.perf_counter() - start
        # the native kernel cache and the artifact store: per run, empty
        runner.CACHE_DIR = self.workdir / "cache"
        start = time.perf_counter()
        self.cpu = build_ulp430()
        phases["cpu.build_s"] = time.perf_counter() - start
        start = time.perf_counter()
        self.model = PowerModel(self.cpu.netlist, SG65, clock_ns=10.0)
        phases["power.model_init_s"] = time.perf_counter() - start
        start = time.perf_counter()
        self.cpu.evaluator_for(None)  # schedule compile, or native build/load
        phases["sim.evaluator_load_s"] = time.perf_counter() - start
        self.benchmarks = ALL_BENCHMARKS
        # called through their modules, so traced runs see the spans
        self.api = repro.core.api
        self.baselines = repro.core.baselines
        self.stressmarks = repro.core.stressmark
        self.stressmark_kwargs = dict(STRESSMARK_KWARGS)
        self.load_programs()

    def load_programs(self) -> None:
        pass

    def analyze_op(
        self, label: str, program, kwargs: dict, expect, rel: float = 0.0
    ) -> Op:
        return Op(
            kind="analyze",
            label=label,
            run=lambda: self.api.analyze(
                self.cpu, program, self.model, **kwargs
            ),
            summarize=_report_summary,
            expect=expect,
            rel=rel,
        )

    def kernel_ops(self, names) -> list[Op]:
        return [
            self.analyze_op(
                name, self.programs[name],
                self.benchmarks[name].analysis_kwargs(),
                lambda name=name: self.golden[name],
                GOLDEN_REL,
            )
            for name in names
        ]


class Multipath(_Engine):
    name = "multipath"
    required = (
        "analyze", "activity.explore", "activity.state_key", "sim.settle",
        "batch.step", "batch.snapshot", "machine.bus_io", "cpu.probe",
        "trace.unpack", "peakpower", "power.pair_power", "peakenergy",
    )

    def load_programs(self) -> None:
        self.programs = {n: self.benchmarks[n].program() for n in MULTIPATH}

    def pass_ops(self, index: int) -> list[Op]:
        return self.shuffled(self.kernel_ops(MULTIPATH), index)


class Straightline(_Engine):
    name = "straightline"
    required = (
        "analyze", "activity.explore", "sim.settle", "batch.step",
        "batch.snapshot", "machine.bus_io", "cpu.probe", "trace.unpack",
        "peakpower", "power.pair_power", "peakenergy",
    )

    def load_programs(self) -> None:
        from repro.asm import assemble
        from repro.verify.fuzz import generate_program

        self.programs = {n: self.benchmarks[n].program() for n in STRAIGHTLINE}
        self.fuzz = {}
        for number, fuzz_seed in enumerate(_seeds(self.seed, "fuzz", FUZZ_PER_PASS)):
            name = f"fuzz{number}"
            self.fuzz[name] = assemble(
                generate_program(fuzz_seed, name=name).render(), name
            )
        self._references: dict[str, dict] = {}

    def reference(self, name: str) -> dict:
        """Untimed in-process analysis of one generated program."""
        if name not in self._references:
            summary = _report_summary(
                self.api.analyze(self.cpu, self.fuzz[name], self.model)
            )
            self._references[name] = {k: summary[k] for k in REPORT_FIELDS}
        return self._references[name]

    def pass_ops(self, index: int) -> list[Op]:
        ops = self.kernel_ops(STRAIGHTLINE)
        for name, program in self.fuzz.items():
            ops.append(self.analyze_op(
                name, program, {}, lambda name=name: self.reference(name)
            ))
        return self.shuffled(ops, index)


class Baselines(_Engine):
    name = "baselines"
    main_kind = "profile"
    required = (
        "baselines.profile", "stressmark", "batch.run_to_halt",
        "sim.settle", "batch.step", "machine.bus_io", "cpu.probe",
        "trace.unpack",
    )

    def load_programs(self) -> None:
        self.programs = {n: self.benchmarks[n].program() for n in PROFILED}
        self.inputs = {
            name: self.benchmarks[name].input_sets(
                N_INPUT_SETS, seed=self.seed
            )
            for name in PROFILED
        }
        self.stressmark_seed = _seeds(self.seed, "stressmark", 1)[0]
        self._references: dict[str, dict] = {}

    def profile(self, name: str):
        return self.baselines.input_profiling(
            self.cpu, self.programs[name], self.inputs[name], self.model
        )

    def stressmark(self):
        return self.stressmarks.generate_stressmark(
            self.cpu, self.model, seed=self.stressmark_seed,
            **self.stressmark_kwargs,
        )

    @staticmethod
    def profile_summary(profile) -> dict:
        return {
            "runs": [
                [run.peak_power_mw, run.avg_power_mw, run.energy_pj, run.cycles]
                for run in profile.runs
            ],
            "_cycles": sum(run.cycles for run in profile.runs),
        }

    @staticmethod
    def stressmark_summary(mark) -> dict:
        return {
            "source": mark.source,
            "peak_power_mw": mark.peak_power_mw,
            "avg_power_mw": mark.avg_power_mw,
        }

    def reference(self, label: str) -> dict:
        """Untimed reference run of one operation, after the timed window."""
        if label not in self._references:
            if label == "stressmark":
                summary = self.stressmark_summary(self.stressmark())
            else:
                summary = self.profile_summary(self.profile(label))
                summary.pop("_cycles")
            self._references[label] = summary
        return self._references[label]

    def pass_ops(self, index: int) -> list[Op]:
        ops = [
            Op("profile", name, lambda name=name: self.profile(name),
               self.profile_summary,
               lambda name=name: self.reference(name))
            for name in PROFILED
        ]
        ops.append(Op(
            "stressmark", "stressmark", self.stressmark,
            self.stressmark_summary, lambda: self.reference("stressmark"),
        ))
        return self.shuffled(ops, index)


class Service(Workload):
    """One client on one connection to a loopback ``repro serve``."""

    name = "service"
    in_process = False

    def setup(self, phases: dict) -> None:
        start = time.perf_counter()
        from repro.service.client import ServiceClient
        from repro.verify.fuzz import generate_program

        phases["setup.import_s"] = time.perf_counter() - start
        self.generate_program = generate_program
        self.store = self.workdir / "store"
        start = time.perf_counter()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        # process backend, default slots, no keyring, empty store
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--store", str(self.store)],
            cwd=self.workdir, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, start_new_session=True,
        )
        banner = self.server.stdout.readline()
        match = re.search(r"http://[\d.]+:(\d+)", banner)
        if not match:
            self.teardown()
            raise RuntimeError(f"repro serve did not start: {banner!r}")
        # drain the server log so a chatty server never blocks on a pipe
        self._log = threading.Thread(
            target=self.server.stdout.read, daemon=True
        )
        self._log.start()
        self.client = ServiceClient(
            f"http://127.0.0.1:{match.group(1)}", timeout=REQUEST_TIMEOUT_S
        )
        self.client.health()
        phases["service.server_start_s"] = time.perf_counter() - start
        start = time.perf_counter()
        # untimed warm-up: publish the read set into the store
        jobs = [self.client.submit("analyze", benchmark=n) for n in WARM]
        for job in jobs:
            self.client.result(job["job_id"], timeout=REQUEST_TIMEOUT_S)
        phases["service.warmup_s"] = time.perf_counter() - start
        self._uploads = 0
        self._sources: dict[str, str] = {}
        self._references: dict[str, dict] = {}

    def teardown(self) -> None:
        """Graceful SIGTERM drain; kill the group if it does not exit."""
        server = getattr(self, "server", None)
        if server is None or server.poll() is not None:
            return
        self.server_rss_mb = _high_water_mb(server.pid)
        server.send_signal(signal.SIGTERM)
        try:
            server.wait(timeout=20)
        except subprocess.TimeoutExpired:
            os.killpg(server.pid, signal.SIGKILL)
            server.wait()
        log = getattr(self, "_log", None)
        if log is not None:
            log.join(timeout=5)

    def store_counts(self) -> tuple[int, int, int]:
        """Counted on disk: the counters the store keeps live in workers.

        Hits are the per-artifact read counters of the ``.meta.json``
        sidecars; a publish resets its entry's counter to 0.
        """
        entries = size = hits = 0
        for path in self.store.rglob("*"):
            if not path.is_file():
                continue
            size += path.stat().st_size
            entries += path.suffix == ".pkl"
            if path.name.endswith(".meta.json"):
                hits += json.loads(path.read_text()).get("hits", 0)
        return entries, size, hits

    def check_window(self, report: dict) -> list[str]:
        """Every warm read must have been served from the store."""
        warm = sum(s["kind"] == "warm" for s in report["samples"])
        hits = report["store"]["hits"]
        if hits == warm:
            return []
        return [f"store: {hits} artifact hits for {warm} warm reads"]

    def _request(self, submit) -> dict:
        client = self.client
        began = time.time()
        job = submit()
        posted = time.time()
        payload = client.result(job["job_id"], timeout=REQUEST_TIMEOUT_S)
        return {
            "job_id": job["job_id"], "began": began, "posted": posted,
            "delivered": time.time(), "result": payload["result"],
        }

    def warm_op(self, name: str) -> Op:
        return Op(
            "warm", name,
            lambda: self._request(
                lambda: self.client.submit("analyze", benchmark=name)
            ),
            self.service_summary,
            lambda: {k: self.golden[name][k] for k in WARM_FIELDS},
            GOLDEN_REL,
        )

    def cold_op(self) -> Op:
        number = self._uploads
        self._uploads += 1
        name = f"upload{number}"
        fuzz_seed = _seeds(self.seed, f"upload{number}", 1)[0]
        source = self.generate_program(fuzz_seed, name=name).render()
        self._sources[name] = source
        return Op(
            "cold", name,
            lambda: self._request(lambda: self.client.upload(source, name)),
            self.service_summary,
            lambda: self.reference(name),
        )

    @staticmethod
    def service_summary(request: dict) -> dict:
        result = request["result"]
        summary = {k: result.get(k) for k in UPLOAD_FIELDS}
        if "cached" in result:  # uploads only
            summary["cached"] = result["cached"]
        summary["_cycles"] = result.get("n_cycles", 0) or 0
        summary["_request"] = {
            k: request[k] for k in ("job_id", "began", "posted", "delivered")
        }
        return summary

    def reference(self, name: str) -> dict:
        """Untimed in-process analysis of one uploaded source."""
        if name not in self._references:
            if not hasattr(self, "cpu"):
                from repro.cells import SG65
                from repro.cpu import build_ulp430
                from repro.power.model import PowerModel

                self.cpu = build_ulp430()
                self.model = PowerModel(self.cpu.netlist, SG65, clock_ns=10.0)
            from repro.asm import assemble
            from repro.core.api import analyze
            from repro.service.gateway import (
                DEFAULT_MAX_CYCLES,
                DEFAULT_MAX_SEGMENTS,
            )

            report = analyze(
                self.cpu, assemble(self._sources[name], name), self.model,
                max_cycles=DEFAULT_MAX_CYCLES,
                max_segments=DEFAULT_MAX_SEGMENTS,
            )
            payload = report.to_payload()
            expected = {k: payload[k] for k in UPLOAD_FIELDS}
            expected["cached"] = False  # a never-seen program is computed
            self._references[name] = expected
        return self._references[name]

    def events(self, job_id: str) -> dict[str, float]:
        """First wall-clock stamp of each job stage."""
        stamps: dict[str, float] = {}
        for event in self.client.events(job_id)["events"]:
            stamps.setdefault(event["stage"], event["ts"])
        return stamps

    def pass_ops(self, index: int) -> list[Op]:
        rng = random.Random(f"{self.seed}:warm{index}")
        ops = [self.warm_op(rng.choice(WARM)) for _ in range(WARM_PER_COLD)]
        ops.append(self.cold_op())
        return self.shuffled(ops, index)


WORKLOADS = {
    cls.name: cls for cls in (Multipath, Straightline, Service, Baselines)
}


def _settle_rows(layer, args, _result) -> None:
    planes = args[1]
    rows = 1
    for dim in planes.shape[:-2]:
        rows *= dim
    layer.add("rows", rows)


def _live_lanes(layer, args, _result) -> None:
    layer.add("lanes", len(args[0].lanes))


def _matrix_bytes(layer, _args, result) -> None:
    layer.add("bytes", result.nbytes)


def _priced_rows(layer, args, _result) -> None:
    layer.add("rows", args[2])


def _concrete_cycles(layer, _args, result) -> None:
    layer.add("cycles", sum(run.cycles for run in result.runs))


def register_spans(tracer) -> None:
    """Declare every layer span; ``tracer.install()`` applies them.

    The spans sit on public functions and methods.  ``analyze`` is the
    root span of an analyze operation, not a layer: the layers' self
    times are measured against it.
    """
    import repro.core.activity as activity
    import repro.core.api as api
    import repro.core.baselines as baselines
    import repro.core.peakenergy as peakenergy
    import repro.core.peakpower as peakpower
    import repro.core.stressmark as stressmark
    import repro.cpu.core as cpu
    import repro.power.model as power
    import repro.sim.batch as batch
    import repro.sim.bitplane as bitplane
    import repro.sim.machine as machine
    import repro.sim.native  # noqa: F401  (its evaluator overrides the settle)
    import repro.sim.trace as trace

    tracer.function(api, "analyze", "analyze")
    tracer.function(activity, "explore", "activity.explore")
    tracer.method(machine.Machine, "snapshot_state_key", "activity.state_key")
    evaluators = [bitplane.BitplaneEvaluator]
    evaluators += bitplane.BitplaneEvaluator.__subclasses__()
    for cls in evaluators:
        if "settle_and_mark" in cls.__dict__:
            tracer.method(cls, "settle_and_mark", "sim.settle", _settle_rows)
    tracer.method(batch.BatchMachine, "step", "batch.step", _live_lanes)
    tracer.method(batch.BatchMachine, "snapshot", "batch.snapshot")
    tracer.function(batch, "run_batch_to_halt", "batch.run_to_halt")
    for name in (
        "read_bus_planes", "force_bus_planes", "sample_memory_control_packed"
    ):
        tracer.function(machine, name, "machine.bus_io")
    for name in ("halted", "pc_next_unknown", "branch_fork_assignments",
                 "annotate"):
        tracer.method(cpu.Ulp430, name, "cpu.probe")
    for name in ("values_matrix", "active_matrix"):
        tracer.method(trace.Trace, name, "trace.unpack", _matrix_bytes)
    tracer.function(peakpower, "compute_peak_power", "peakpower")
    tracer.method(power.PowerModel, "pair_power", "power.pair_power",
                  _priced_rows)
    tracer.function(peakenergy, "compute_peak_energy", "peakenergy")
    tracer.function(baselines, "input_profiling", "baselines.profile",
                    _concrete_cycles)
    tracer.function(stressmark, "generate_stressmark", "stressmark")
