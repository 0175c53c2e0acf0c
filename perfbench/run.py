"""Benchmark of the avcl continual-training program.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload derpp_full --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced pass and the tracing overhead against an
untraced pass in the same process.  The program is imported from ``src/``
next to this directory; without it the benchmark exits with code 2.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1  # small matrices; see README, Steadiness
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "commit": _git_commit(),
        "workload": args.workload,
        "data_seed": args.seed,
        "train_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def prepare() -> bool:
    """Pin BLAS threads and import avcl from this checkout's ``src/``;
    must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in _BLAS_VARS:
        os.environ[var] = str(min(BLAS_THREADS, nproc))
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import avcl
    except ImportError as exc:
        print(f"cannot import avcl from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return False
    if Path(avcl.__file__).resolve().parent != ROOT / "src" / "avcl":
        print(f"avcl resolved outside this checkout: {avcl.__file__}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="data seed and train seed of the timed runs")
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget of the timed operations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not prepare():
        return 2
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment(args)
    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        result = workloads.run(workloads.WORKLOADS[args.workload], args.seed,
                               args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    units = dict(layers.per_layer_names() if args.trace else workloads.END_TO_END)
    info = result["info"]
    print(json.dumps({"environment": env}))
    print(json.dumps({"info": info}))
    for name, value in result["metrics"].items():
        print(f"  {name:40s} {value:16.6f} {units[name]}")
    print(f"  {'error_rate':40s} {info['error_rate']:16.6f} "
          f"({result['failed']} of {result['attempted']} operations failed)")
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
