"""Perf-regression gate: diff a fresh bench artifact against a baseline.

``python -m repro.bench.compare bench-smoke.json BENCH_suite.json`` walks
every benchmark both reports share and fails (exit 1) when any timed
phase slowed down by more than the threshold factor.  Tiny absolute
timings are ignored — a 0.004 s phase tripling is scheduler noise, not a
regression — and benchmarks or phases missing from either side are
skipped, so a baseline regenerated with more (or fewer) kernels never
breaks the gate.

CI runs this after the perf-smoke bench so a hot-path regression fails
the PR with a per-phase attribution instead of a mute wall-clock
timeout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: fail when current > baseline * threshold (and the delta is real)
DEFAULT_THRESHOLD = 2.5

#: phases below this many seconds in the baseline are never gated —
#: their variance on shared CI runners exceeds any signal
MIN_BASELINE_S = 0.05

#: (row key, seconds key) per gated phase of a benchmark row; keys a
#: report lacks (e.g. native_s in a pre-schema-3 baseline or on a
#: compiler-less host) are skipped, not failed
PHASES = (
    ("explore", "native_s"),
    ("explore", "batched_s"),
    ("peakpower", "stacked_s"),
    ("peakenergy", "s"),
    ("baselines", "batched_s"),
)


def compare_reports(
    current: dict,
    baseline: dict,
    threshold: float = DEFAULT_THRESHOLD,
    min_baseline_s: float = MIN_BASELINE_S,
) -> tuple[list[str], int]:
    """Diff *current* against *baseline* phase by phase.

    Returns ``(failures, n_compared)``: one human-readable failure per
    gated slowdown, plus the number of phase timings both reports
    actually shared.  A zero count means the reports have no comparable
    surface (renamed keys, disjoint benchmarks) — the CLI treats that as
    a failure so schema drift can never turn the gate into a no-op.
    """
    failures: list[str] = []
    n_compared = 0
    baseline_rows = {row["name"]: row for row in baseline.get("benchmarks", [])}
    numeric = (int, float)

    def gate(label: str, cur_s, ref_s) -> None:
        nonlocal n_compared
        if not isinstance(cur_s, numeric) or not isinstance(ref_s, numeric):
            return
        n_compared += 1
        if ref_s < min_baseline_s:
            return
        if cur_s > ref_s * threshold:
            failures.append(
                f"{label}: {cur_s:.3f}s vs baseline {ref_s:.3f}s "
                f"({cur_s / ref_s:.2f}x > {threshold:.2f}x)"
            )

    for row in current.get("benchmarks", []):
        base_row = baseline_rows.get(row["name"])
        if base_row is None:
            continue
        for phase, key in PHASES:
            cur_phase = row.get(phase) or {}
            ref_phase = base_row.get(phase) or {}
            gate(
                f"{row['name']}.{phase}.{key}",
                cur_phase.get(key),
                ref_phase.get(key),
            )
    cur_stress = current.get("stressmark") or {}
    ref_stress = baseline.get("stressmark") or {}
    gate(
        "stressmark.batched_s",
        cur_stress.get("batched_s"),
        ref_stress.get("batched_s"),
    )
    return failures, n_compared


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.compare",
        description="fail when a bench artifact regresses vs a baseline",
    )
    parser.add_argument("current", help="fresh bench JSON (e.g. bench-smoke.json)")
    parser.add_argument("baseline", help="committed baseline (BENCH_suite.json)")
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        metavar="X",
        help=f"allowed per-phase slowdown factor (default {DEFAULT_THRESHOLD})",
    )
    args = parser.parse_args(argv)
    current = json.loads(Path(args.current).read_text())
    baseline = json.loads(Path(args.baseline).read_text())
    failures, n_compared = compare_reports(
        current, baseline, threshold=args.threshold
    )
    if failures:
        print(
            "perf-regression gate FAILED "
            f"({len(failures)} phase(s) over {args.threshold}x):"
        )
        for failure in failures:
            print(f"  {failure}")
        return 1
    if n_compared == 0:
        print(
            "perf-regression gate FAILED: no comparable phase timings "
            "between the artifact and the baseline (schema drift?)"
        )
        return 1
    print(
        f"perf-regression gate OK: {n_compared} phase timing(s) within "
        f"{args.threshold}x of baseline"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
