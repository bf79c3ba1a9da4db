"""Record the reference digests that the wafer-mc check compares against.

    python3 perfbench/make_reference.py

Runs the wafer-mc op once for every seed of the pool, single-threaded as
the benchmark runs, and writes the SHA-256 of each output file to
perfbench/reference/wafer_mc_digests.json.  Re-record only when a change
is meant to alter the bytes of simulate/analyze outputs, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import OUT_DIR, bootstrap


def main() -> int:
    bootstrap()
    import spans
    import workloads

    wl = workloads.WaferMc(run_seed=0, reference={})
    work = OUT_DIR / "make-reference"
    digests = {}
    try:
        for k in range(workloads.MC_SEED_POOL):
            shutil.rmtree(work, ignore_errors=True)
            out = wl.op(k, spans.NullTracer(), work)
            digests[str(out.seed)] = wl.digests(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    workloads.MC_REFERENCE.parent.mkdir(exist_ok=True)
    workloads.MC_REFERENCE.write_text(json.dumps(
        {"seed_pool": workloads.MC_SEED_POOL, "digests": digests}, indent=1) + "\n")
    print(f"wrote {workloads.MC_REFERENCE}: {len(digests)} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
