"""Rewrite fingerprints.json from the pinned reference runs.

Usage, from the root of the repository:

    python3 perfbench/fingerprint.py

The fingerprint pins the loss trajectory of each reference workload at the
fixed seed in checks.FINGERPRINT_SEED.  Rewrite it only with a change that
is meant to alter training results, and say so in that change.
"""

from __future__ import annotations

import json
import sys

import run as bench


def main() -> int:
    if not bench.prepare():
        return 2
    from avcl import data as dt
    from avcl import trainer as tr

    import checks
    import workloads

    seed = checks.FINGERPRINT_SEED
    blob = {"seed": seed, "tolerance": {"rtol": 1e-6, "atol": 1e-9}}
    for name in sorted({w.reference for w in workloads.WORKLOADS.values()}):
        w = workloads.WORKLOADS[name]
        dcfg = w.data_config(seed)
        run, _, _ = tr.run_sequence(dt.build_sequence(dcfg), dcfg.geometry,
                                    workloads.MODEL, w.train_config(seed))
        blob[name] = {"strategy": w.strategy, "losses": checks.loss_rows(run.records)}
    checks.FINGERPRINTS.write_text(json.dumps(blob, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
