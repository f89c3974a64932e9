"""calabiflow benchmark: one workload per invocation, in a fresh process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
``src/``.  The load is a single closed-loop caller: this process makes
sequential calls with every BLAS/OpenMP pool capped at one thread.

With ``--trace 0`` the run repeats passes (set-up, then work), each followed
by one cold start of the command-line program, until the next pass would
overrun ``--seconds`` (at least three passes); it checks every output and
prints the end-to-end metrics.  With ``--trace 1`` it runs one pass without
spans and two traced passes, and prints the per-layer metrics taken from
spans around the calls into each calabiflow module.  Either way the last line
of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; see ``README.md`` here.

Manifests, spans and the flows' own outputs go to ``perfbench/_out/``.
``--tiny`` shrinks every grid for the self-test (``perfbench/selftest.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "_out"
THREAD_CAPS = {
    var: "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
MIN_PASSES = 3


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small grids, for the self-test")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "calabiflow" / "__init__.py").is_file():
        print(f"error: no calabiflow sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_CAPS)
    # one CPU for this process and its children, so the host-speed kernel
    # (hostspeed.py) always runs where the measured code runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import calabiflow.cli  # noqa: F401  (times the full package import)
    import_s = time.perf_counter() - t0

    import measure

    if args.workload not in measure.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(measure.WORKLOADS)}",
              file=sys.stderr)
        return 2
    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = measure.run(args, out_dir, import_s, ROOT, THREAD_CAPS, min_passes=MIN_PASSES)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
