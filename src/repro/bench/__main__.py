"""``python -m repro.bench`` — per-phase, per-engine perf trajectory."""

import sys

from repro.cli import cmd_bench, build_parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(["bench"] + argv)
    return cmd_bench(args)


if __name__ == "__main__":
    sys.exit(main())
