"""Figure 1.5 — active (toggling) gates at the peak-power cycle for tHold
vs PI, grouped by the paper's module labels."""

from conftest import heading

from repro.bench import runner

#: the paper's Figure 1.5 region labels -> our module prefixes
GROUPS = {
    "MULT": ("multiplier",),
    "WDG": ("watchdog",),
    "REGISTER FILE": ("exec_unit/regfile",),
    "ALU": ("exec_unit/alu",),
    "FRONTEND": ("frontend",),
    "MEM_BACKBONE": ("mem_backbone",),
    "MISC": ("clk_module", "dbg", "sfr", "exec_unit"),
}


def active_by_group(name: str) -> tuple[dict[str, int], int]:
    report = runner.full_report(name)
    cpu = runner.shared_cpu()
    peak_cycle = report.peak_power.peak_cycle
    active = report.tree.flat_trace[peak_cycle].active
    counts = {label: 0 for label in GROUPS}
    total = 0
    for gate in cpu.netlist.gates:
        if not active[gate.index]:
            continue
        if gate.kind in ("INPUT", "CONST0", "CONST1"):
            continue
        total += 1
        for label, prefixes in GROUPS.items():
            if any(
                gate.module == p or gate.module.startswith(p + "/")
                for p in prefixes
            ):
                counts[label] += 1
                break
    # longest-prefix groups listed first, so exec_unit/* lands correctly:
    return counts, total


def regenerate():
    return {name: active_by_group(name) for name in ("tHold", "PI")}


def test_fig1_5(benchmark):
    profiles = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    heading("Figure 1.5 — active gates at each app's peak cycle")
    print(f"{'module':>15} {'tHold':>8} {'PI':>8}")
    for label in GROUPS:
        print(
            f"{label:>15} {profiles['tHold'][0][label]:>8} "
            f"{profiles['PI'][0][label]:>8}"
        )
    thold_total = profiles["tHold"][1]
    pi_total = profiles["PI"][1]
    print(f"{'TOTAL':>15} {thold_total:>8} {pi_total:>8}   (paper: 452 vs 743)")

    # The figure's claim: PI exercises a larger fraction of the processor
    # at its peak than tHold (PI drives the multiplier, tHold does not).
    assert pi_total > thold_total
    assert profiles["PI"][0]["MULT"] > profiles["tHold"][0]["MULT"]
