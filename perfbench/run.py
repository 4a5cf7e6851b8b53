#!/usr/bin/env python3
"""Run one benchmark workload and print its result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload ic-hops --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that reports the per-layer metrics.  Human-readable
tables come first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 only when the run finished and every output matched its
reference.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import harness  # noqa: E402

WORKLOADS = ("ic-hops", "accum-analytics", "serve-mixed")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so the workloads' ``finally``
    # blocks still stop the servers they started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        harness.ensure_program()
    except harness.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "ic-hops":
        from perfbench import ic_hops as workload
    elif args.workload == "accum-analytics":
        from perfbench import accum_analytics as workload
    else:
        from perfbench import serve_mixed as workload

    with harness.Workdir(args.workload) as work:
        out = workload.run(args.seed, args.seconds, bool(args.trace), work)

    e2e = out["e2e"]
    harness.print_table(
        f"{args.workload} seed={args.seed} {'traced' if args.trace else 'untraced'}: end to end",
        [(name, m["value"], m["unit"]) for name, m in e2e.items()]
        + out.get("extra", []) + out.get("notes", []),
    )
    tally = out["tally"]
    if tally is not None:
        harness.print_table(f"{args.workload}: per layer", tally.table_rows())
    print(f"== operations: attempted {out['attempted']}, failed {out['failed']}")
    for problem in out["problems"][:20]:
        print(f"  MISMATCH {problem}")
    metrics = tally.result_metrics() if tally is not None else e2e
    harness.emit_result(out["correct"], out["attempted"], out["failed"], metrics)
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
