"""Batch front end: run the verification suites and emit reports.

Exit codes: 0 all checks pass, 1 violation found, 2 usage error,
3 precision exhaustion.
"""

from __future__ import annotations

import argparse
import json
import sys

from .scalars import FieldConfig
from .suites import SUITE_NAMES, run_all, run_suite


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="g2kit",
        description="Exact verification suites for the split-octonion / "
                    "triality / building-norm / strata machinery.")
    parser.add_argument("--suite", default="all",
                        choices=list(SUITE_NAMES) + ["all"],
                        help="which suite to run (default: all)")
    parser.add_argument("--p", type=int, default=5,
                        help="residue characteristic (prime >= 5)")
    parser.add_argument("--precision", type=int, default=8,
                        help="truncation window (>= 4 coefficients)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed for the randomized sweeps")
    parser.add_argument("--out", default=None,
                        help="write the JSON report to this path")
    parser.add_argument("--format", default="json", choices=["json", "text"],
                        help="stdout format")
    return parser


def _render_text(reports) -> str:
    lines = []
    for rep in reports:
        lines.append(f"suite {rep['suite']} "
                     f"(p={rep['config']['p']}, "
                     f"precision={rep['config']['precision']}, "
                     f"seed={rep['config']['seed']}) "
                     f"[{rep['wall_time']}s]")
        for check in rep["checks"]:
            line = f"  {check['status']:20s} {check['name']}"
            if check.get("counterexample"):
                line += f"  <- {check['counterexample']}"
            lines.append(line)
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = FieldConfig(args.p, args.precision)
    except Exception as exc:
        parser.error(str(exc))  # exits 2
    if args.suite == "all":
        reports = run_all(cfg, args.seed)
    else:
        reports = [run_suite(args.suite, cfg, args.seed)]
    payload = json.dumps(reports, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    if args.format == "json":
        print(payload)
    else:
        print(_render_text(reports))
    statuses = [c["status"] for rep in reports for c in rep["checks"]]
    if any(s == "precision-exhausted" for s in statuses):
        return 3
    if any(s == "fail" for s in statuses):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
