"""permlie benchmark: exact-verdict workloads timed end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the repository root.  NAME is one of graded-laws, coalgebra-box,
probe-batch, form-search, or ``all`` for every workload in turn.  Each pass
runs in a fresh interpreter (``bench/worker.py``) against the sources in
``src/``; its rows are checked against ``bench/references``.  A run makes
passes until S seconds have gone, and at least three.

With ``--trace 0`` the metrics are end to end, each a median over the run:
``verify_s`` (first check call to the last serialized verdict), ``setup_s``
(interpreter start, ``import permlie`` and building the families, catalogs
and generated inputs), and ``peak_rss_mb``.  Both times are scaled to the
reference machine speed by speed samples taken while they run (see
``bench/speed.py``); the wall time of each pass is printed beside it.  ``row_fail_share`` (rows that
raised or differ from the reference, over rows attempted) is printed too,
and carried in the result line as ``failed`` and ``attempted``.  With
``--trace 1`` the run adds traced passes and reports per-layer metrics
(calls, seconds, counts and self time per permlie module, and the tracing
overhead); spans go to ``bench/traces/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when the run completed (whatever the verdicts), and 2 when it cannot run:
no ``src/permlie`` in the working directory, missing references, or a worker
that crashed.
"""

import argparse
import json
import sys

import harness


def unit(name):
    if name.endswith("checked_per_s"):
        return "1/s"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("_share", "calls_per_checked", "slowdown")):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def report(workload, seed, res):
    """Print the metrics by name and unit; return the result object."""
    print(f"workload {workload} seed {seed}: {res['passes']} passes")
    metrics = {}
    for name, (value, u) in res["end_to_end"].items():
        metrics[name] = {"value": value, "unit": u}
    print(f"  row_fail_share {res['row_fail_share']:.6g} ratio "
        f"({res['failed']} of {res['attempted']} rows)")
    if "per_layer" in res:
        metrics = {k: {"value": v, "unit": unit(k)} for k, v in res["per_layer"].items()}
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=harness.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    names = harness.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        harness.check_checkout()
        print("machine " + json.dumps(harness.machine_facts(), sort_keys=True))
        for name in names:
            res = harness.run_workload(name, args.seed, args.seconds, bool(args.trace))
            results[name] = report(name, args.seed, res)
    except harness.BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    if args.workload == "all":
        print(json.dumps(results, sort_keys=True))
    else:
        print(json.dumps(results[args.workload], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
