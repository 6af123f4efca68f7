"""Benchmark entry point.

Run from the repository root::

    python3 perfbench/run.py --workload pelican-batch --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The exit code is nonzero when a correctness or conservation check fails.
Fixtures, checkpoints and span dumps go to ``.perfbench_out/``.
"""

import os

# Pin BLAS to one thread before numpy is imported.  Spawned pool children
# inherit the environment: unpinned, the parent and the child would each
# start one BLAS thread per core on a 2-core host.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse
import json
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(ROOT / "src"))


def _reap_processes() -> None:
    """Stop every process the run started and wait for each to end.

    The workload closes its pool, which joins the children.  Spawning them
    also started multiprocessing's resource tracker, which would outlive
    this process until it noticed the exit.  Wait for the queue feeder
    threads a closed pool leaves winding down, collect what still holds
    tracked semaphores (their finalizers talk to the tracker), then stop
    the tracker and wait for it.
    """
    import gc
    import multiprocessing
    import threading
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    for thread in threading.enumerate():
        if thread is not threading.current_thread():
            thread.join(timeout=5.0)
    gc.unfreeze()
    gc.collect()
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload; choose from {sorted(workloads.WORKLOADS)}")
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    print(f"nproc={os.cpu_count()} workload={args.workload} seed={args.seed}",
          file=sys.stderr)
    outcome = None
    try:
        outcome = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace), out_dir
        )
    except Exception:
        traceback.print_exc()
    # Outside the handler, so a failed run's frames no longer hold the pool.
    _reap_processes()
    if outcome is None:
        return 1
    metrics, attempted, failed, failures = outcome
    units = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
