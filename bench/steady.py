"""Steadiness report: repeat runs across seeds, medians and quartiles.

    python3 bench/steady.py [--workload NAME ...] [--runs 10] [--first-seed 0]
                            [--seconds S] [--out FILE] [--against FILE]

Run from the repository root.  For each workload it makes ``--runs`` runs of
``bench/run.py``, each with the next seed and ``--seconds`` (by default the
``run_seconds`` of ``BENCHMARK.json``), and prints for every end-to-end
metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (q3 - q1) / median.
A metric whose spread exceeds its bound in ``BENCHMARK.json`` is marked
``unresolved``: the runs cannot tell a change within that bound from noise.
One whose spread is under a third of its bound is ``steady``.

``--out`` writes the report, with the machine facts, as JSON.  ``--against``
compares the medians with an earlier report and marks each metric that got
worse by more than its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import harness


def spec():
    with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(harness.HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=harness.ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    if proc.returncode != 0:
        raise harness.BenchError(f"run.py {workload} seed {seed} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med
    if spread > bound:
        status = "unresolved"
    elif spread <= bound / 3:
        status = "steady"
    else:
        status = "within bound"
    return {"values": values, "median": med, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "status": status}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=harness.WORKLOADS)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    p.add_argument("--out")
    p.add_argument("--against")
    args = p.parse_args(argv)
    limits = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    prior = None
    if args.against:
        with open(args.against) as f:
            prior = json.load(f)["workloads"]
    doc = {"machine": harness.machine_facts(), "runs": args.runs,
           "seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in args.workload or harness.WORKLOADS:
        values, attempted, failed = {}, 0, 0
        for i in range(args.runs):
            seed = args.first_seed + i
            res = one_run(workload, seed, args.seconds)
            attempted += res["attempted"]
            failed += res["failed"]
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={m['value']:.4g}" for k, m in res["metrics"].items()), flush=True)
        entry = {"row_fail_share": failed / attempted, "attempted": attempted, "metrics": {}}
        print(f"{workload}: row_fail_share {failed / attempted:g} ({failed} of {attempted} rows)")
        for name, vals in values.items():
            s = summarize(vals, limits[name])
            line = (f"  {name:12s} median {s['median']:.4g}  q1 {s['q1']:.4g}  q3 {s['q3']:.4g}"
                    f"  spread {s['spread']:.3f} of bound {s['bound']}  {s['status']}")
            if prior is not None:
                before = prior[workload]["metrics"][name]["median"]
                s["drift"] = s["median"] / before - 1
                worse = s["drift"] > limits[name]
                ok &= not worse
                line += f"  drift {s['drift']:+.3f}{'  WORSE' if worse else ''}"
            ok &= s["status"] != "unresolved"
            print(line, flush=True)
            entry["metrics"][name] = s
        ok &= failed == 0
        doc["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
