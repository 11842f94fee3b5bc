"""Run one pathgauge benchmark workload and print its metrics.

    python3 perfbench/run.py --workload graph-scale --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports pathgauge from `src/`
there and exits with code 2, printing no result, when there is none.  The
last line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics`, the end-to-end metrics with `--trace 0` and the
per-layer metrics with `--trace 1`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import perfbench  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        perfbench.use_source_tree()
    except perfbench.SourceTreeMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from perfbench import runner

    if args.workload not in runner.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(runner.WORKLOADS)}")
    result = runner.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
