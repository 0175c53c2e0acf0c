"""Correctness checks the benchmark applies to the program's outputs.

Each check raises ``CheckFailed``; the caller counts it as a failed
operation and carries on.  The checks restate the invariants here instead of
calling the program's own validators, so a change to those validators cannot
loosen them.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import avcl.tensor as tt

FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"
#: seeds of the pinned reference run whose losses the fingerprint holds
FINGERPRINT_SEED = 0


class CheckFailed(AssertionError):
    pass


def losses_finite(records) -> None:
    for r in records:
        values = (r.recon, r.contrast, r.penalty, r.avm, r.total)
        if not all(math.isfinite(v) for v in values):
            raise CheckFailed(f"non-finite loss at step {r.step}: {values}")


def acc_row_valid(row, width: int) -> None:
    """Retrieval scores are recall percentages, so they lie in [0, 100]."""
    if len(row) != width:
        raise CheckFailed(f"accuracy row has {len(row)} entries, expected {width}")
    if not all(0.0 <= v <= 100.0 for v in row):
        raise CheckFailed(f"accuracy value outside [0, 100]: {row}")


def acc_matrix_valid(acc) -> None:
    """Lower-triangular: row t holds one score per task seen so far."""
    if not acc:
        raise CheckFailed("empty accuracy matrix")
    for t, row in enumerate(acc):
        acc_row_valid(row, t + 1)


def grad_mode_on() -> None:
    """Public-API probe: a fresh parameter must still record the tape."""
    if not tt.add(tt.parameter(np.zeros(1)), 1.0).requires_grad:
        raise CheckFailed("grad mode left disabled after the operation")


def same_run(expected_step: int, expected_arrays: dict[str, np.ndarray], run) -> None:
    """Resumed step counter and backbone weights are bit-identical."""
    if run.global_step != expected_step:
        raise CheckFailed(f"resumed global_step {run.global_step} != {expected_step}")
    arrays = run.state.named_arrays()
    if arrays.keys() != expected_arrays.keys():
        raise CheckFailed("resumed backbone has different parameters")
    for name, value in expected_arrays.items():
        if not np.array_equal(arrays[name], value):
            raise CheckFailed(f"resumed backbone parameter {name!r} differs")


def loss_rows(records) -> list[list[float]]:
    return [[r.recon, r.contrast, r.penalty, r.avm, r.total] for r in records]


def fingerprint_matches(key: str, records) -> None:
    """Loss trajectory of the pinned reference run, within the tolerance
    stored with the fingerprints (float64 results may differ in the last
    digits between BLAS builds and thread counts)."""
    blob = json.loads(FINGERPRINTS.read_text())
    want = np.asarray(blob[key]["losses"], dtype=np.float64)
    got = np.asarray(loss_rows(records), dtype=np.float64)
    if got.shape != want.shape:
        raise CheckFailed(f"fingerprint {key!r}: {got.shape[0]} steps, expected {want.shape[0]}")
    tol = blob["tolerance"]
    bad = ~np.isclose(got, want, rtol=tol["rtol"], atol=tol["atol"]).all(axis=1)
    if bad.any():
        first = int(np.argmax(bad))
        raise CheckFailed(f"fingerprint {key!r} differs first at step {first}: "
                          f"{got[first].tolist()} vs {want[first].tolist()}")
