"""The probe-candidate bank and the per-seed sample drawn from it.

Candidates are generated once, from ``BANK_SEED``, the way ``permlie verify
all`` generates its probe batches (``workloads.probe_bank``).  Their
reference rows, verdicts and recorded costs live in ``references/``.  A run's
seed picks a cost-matched sample of the bank, so every seed gets different
inputs, all of them with a recorded reference, for about the same work.
This module needs only the standard library, so the harness can name the expected rows without
importing permlie.
"""

import json
import os
import random

BANK_SEED = 2409
ALGEBRA_BANK = 160
COALGEBRA_BANK = 48
# Per pass: laws and failures in each probe direction.  The algebra
# direction draws as many candidates as ``suite_probes`` (8); the
# co-direction one fewer (3 of 4), so that three passes fit in a run.
ALGEBRA_LAWS, ALGEBRA_FAILS = 1, 7
COALGEBRA_LAWS, COALGEBRA_FAILS = 1, 2

BANK_INFO = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "references", "probe-bank.json"
)


def load_bank_info(path=BANK_INFO):
    """``{"algebra": [...], "coalgebra": [...]}``, each entry
    ``{"index", "is_law", "cost", "terms"}``; ``terms`` counts the terms of
    all the candidate's witness residuals."""
    with open(path) as f:
        return json.load(f)


# A sample's recorded cost stays within COST_TOLERANCE of the class's mean
# sample cost.  In the co-direction, the residuals of one candidate take a
# few MB and set a pass's peak memory, so the largest residual in a sample
# also stays within SIZE_TOLERANCE of the top stratum's mean.
COST_TOLERANCE = 0.04
SIZE_TOLERANCE = 0.1


def _matched(rng, entries, count, size_tolerance=None):
    """One entry from each of ``count`` equal strata of ``entries`` ranked
    by cost, redrawn until the sample is within the tolerances (the best of
    1000 draws otherwise), so the work and memory of a run vary little from
    seed to seed while the inputs do."""
    ranked = sorted(entries, key=lambda e: (e["cost"], e["index"]))
    n = len(ranked)
    strata = [ranked[s * n // count : (s + 1) * n // count] for s in range(count)]
    target = sum(sum(e["cost"] for e in st) / len(st) for st in strata)
    size = sum(e["terms"] for e in strata[-1]) / len(strata[-1])
    best = None
    for _ in range(1000):
        pick = [rng.choice(st) for st in strata]
        miss = abs(sum(e["cost"] for e in pick) - target) / (COST_TOLERANCE * target)
        if size_tolerance is not None:
            big = max(e["terms"] for e in pick)
            miss = max(miss, abs(big - size) / (size_tolerance * size))
        if best is None or miss < best[0]:
            best = (miss, pick)
        if miss <= 1:
            break
    return best[1]


def probe_sample(seed, bank_info):
    """Bank indices for one seed, per direction, in ascending order: a
    cost-matched sample of each verdict class (law or not)."""
    rng = random.Random(seed)
    picked = {}
    for direction, n_law, n_fail, size_tolerance in (
        ("algebra", ALGEBRA_LAWS, ALGEBRA_FAILS, None),
        ("coalgebra", COALGEBRA_LAWS, COALGEBRA_FAILS, SIZE_TOLERANCE),
    ):
        chosen = []
        for is_law, count in ((True, n_law), (False, n_fail)):
            entries = [e for e in bank_info[direction] if e["is_law"] == is_law]
            tol = None if is_law else size_tolerance
            chosen += [e["index"] for e in _matched(rng, entries, count, tol)]
        picked[direction] = sorted(chosen)
    return picked


def probe_row_names(picked):
    return [f"probe:algebra:{i}" for i in picked["algebra"]] + [
        f"probe:coalgebra:{i}" for i in picked["coalgebra"]
    ]
