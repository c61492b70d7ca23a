"""Record the reference rows the benchmark checks every pass against.

    python3 bench/record.py [WORKLOAD ...]

Run from the repository root, on the commit whose verdicts are the
reference.  For graded-laws, coalgebra-box and form-search it stores every
row.  For probe-batch it stores the fixed rows and one row per candidate of
the probe bank, with each candidate's verdict and measured cost in
``references/probe-bank.json`` (``bank.probe_sample`` ranks by that cost).
"""

import json
import os
import statistics
import sys
import time

import bank
import harness

sys.path.insert(0, os.path.join(harness.ROOT, "src"))

import workloads  # noqa: E402  (needs src/ on the path)
from permlie import families as fm  # noqa: E402


def record_bank(repeat=3):
    """Reference rows of every bank candidate, and its cost: the median of
    ``repeat`` timings of its probe, run alone."""
    tables, deltas = workloads.probe_bank()
    inp = workloads.Inputs(0, workloads.WINDOWS["probe-batch"], afam=fm.ats_family())
    rows, info = {}, {"algebra": [], "coalgebra": []}
    for direction, cands in (("algebra", tables), ("coalgebra", deltas)):
        for i, cand in enumerate(cands):
            name = f"probe:{direction}:{i}"
            times, seen = [], []
            for _ in range(repeat):
                t0 = time.perf_counter()
                seen.append(workloads.candidate_row(direction, i, cand, inp))
                times.append(time.perf_counter() - t0)
            if any(r != seen[0] for r in seen):
                raise RuntimeError(f"{name}: rows differ between repeats")
            row, cost = seen[0], statistics.median(times)
            rows[name] = row
            terms = sum(v["residual"]["terms"] for v in row["report"]["violations"])
            info[direction].append(
                {
                    "index": i,
                    "is_law": row["report"]["passed"],
                    "cost": round(cost, 4),
                    "terms": terms,
                }
            )
            print(f"  {name} law={row['report']['passed']} {cost:.3f}s", flush=True)
    return rows, info


def record(workload):
    setup, steps = workloads.WORKLOADS[workload]
    rows = {}
    if workload == "probe-batch":
        rows, info = record_bank()
        with open(bank.BANK_INFO, "w") as f:
            json.dump(info, f, indent=1, sort_keys=True)
            f.write("\n")
        steps = [(n, s) for n, s in steps if not n.startswith("probe:")]
    inp = setup(0)
    for name, step in steps:
        for row in step(inp):
            rows[row["name"]] = row
    doc = {"workload": workload, "machine": harness.machine_facts(), "rows": rows}
    path = os.path.join(harness.REFERENCES, f"{workload}.json")
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"{workload}: {len(rows)} rows -> {os.path.relpath(path, harness.ROOT)}")


def main(argv):
    os.makedirs(harness.REFERENCES, exist_ok=True)
    for workload in argv or harness.WORKLOADS:
        record(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
