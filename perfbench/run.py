#!/usr/bin/env python3
"""Benchmark of record for the repro simulator.

Run from the repository root:

    python3 perfbench/run.py --workload sim_serial --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload warm_rerun --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --regen-reference

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics; the last line of standard output is one JSON object.  See
``perfbench/NOTES.md`` for the workloads, the metrics and what each one
is expected to move.

This file only prepares the process (a private cache directory, the
program's sources on ``sys.path``) and then hands over to :mod:`bench`.
It exits with status 2 when the program's sources are not beside it, 1
when no valid measurement can be made, and 3 when a run breaks one of its
preconditions.
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "repro" / "__init__.py"


def main() -> int:
    if not PACKAGE.is_file():
        print("perfbench: program sources not found (%s is missing)"
              % PACKAGE.relative_to(ROOT), file=sys.stderr)
        return 2
    # Every store a run touches lives under its own work directory; the
    # default cache location points there too, so a stray default can
    # never read or write the repository's .repro-cache/.
    os.environ["REPRO_CACHE_DIR"] = str(HERE / "_work" / "default-cache")
    for name in ("REPRO_FAULT_SPEC", "REPRO_FAULT_STATE_DIR"):
        os.environ.pop(name, None)
    sys.path[:0] = [str(HERE), str(PACKAGE.parent.parent)]
    import repro
    if Path(repro.__file__).resolve() != PACKAGE.resolve():
        print("perfbench: imported repro from %s, not from this checkout"
              % repro.__file__, file=sys.stderr)
        return 2
    import bench
    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
