"""Benchmark harness for pathgauge: seeded workloads, end-to-end metrics and a
traced per-module run.  Run it as `python3 perfbench/run.py --workload NAME
--seed N --seconds S --trace 0|1` from the root of a source checkout."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class SourceTreeMissing(RuntimeError):
    """The checkout holds no `src/pathgauge` package to benchmark."""


def use_source_tree():
    """Import pathgauge from this checkout's `src/`, never from elsewhere.

    Returns the imported package.  Raises SourceTreeMissing when the checkout
    has no source tree, so the benchmark cannot silently measure an installed
    copy instead.
    """
    if not (SRC / "pathgauge" / "__init__.py").is_file():
        raise SourceTreeMissing(f"no pathgauge sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pathgauge

    if Path(pathgauge.__file__).resolve().parent != SRC / "pathgauge":
        raise SourceTreeMissing(f"pathgauge was imported from {pathgauge.__file__}, not {SRC}")
    return pathgauge
