"""One pass of one workload, in a fresh interpreter.

    python3 bench/worker.py ROOT WORKLOAD SEED MODE [TRACE_FILE]

MODE is ``setup`` (import and set up, then stop), ``pass`` (set up and run
every row) or ``traced`` (a pass with spans around the calls into each
permlie module, written to TRACE_FILE).  The worker prints one JSON line:
the CLOCK_MONOTONIC time at which setup finished, the time the speed samples
took until then and the slowdown they show, and for a pass the time
from the first check call to the serialized verdicts, less the benchmark's
own bookkeeping (``Inputs.paused_s``) and speed samples: as wall time
(``wall_s``) and at the reference speed (``verify_s``, see ``speed.py``).
Then the time of each step at the reference speed, the peak RSS, the
canonical JSON of the rows, and per-layer metrics when traced.  The harness
that started it compares the rows with the references.
"""

import json
import os
import resource
import sys
import time
import traceback

from harness import machine_facts
from speed import SpeedSampler


def main(argv):
    setup_sampler = SpeedSampler()
    setup_sampler.start()
    root, workload, seed, mode = argv[:4]
    seed = int(seed)
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import permlie

    if not os.path.abspath(permlie.__file__).startswith(os.path.join(src, "")):
        print(f"permlie imported from {permlie.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads
    from permlie import serialize

    tracer = None
    if mode == "traced":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    setup, steps = workloads.WORKLOADS[workload]
    inp = setup(seed)
    sampled = setup_sampler.stop()
    out = {
        "setup_done": time.monotonic(),
        "setup_sampled_s": sampled,
        "setup_slowdown": setup_sampler.slowdown(),
    }
    if mode == "setup":
        print(json.dumps(out))
        return 0
    if tracer is not None:
        tracer.install_families(inp.graded_families())

    rows = []
    step_s = []
    sampler = SpeedSampler()
    sampler.start()
    t0 = time.perf_counter()
    for name, step in steps:
        ts = time.perf_counter()
        paused = inp.paused_s
        try:
            if tracer is None:
                got = step(inp)
            else:
                tracer.set_row(name)
                got = tracer.span("bench.row", step, inp)
        except Exception:
            got = [{"name": name, "error": traceback.format_exc(limit=3)}]
        step_s.append([name, time.perf_counter() - ts - (inp.paused_s - paused)])
        rows.extend(got)
    payload = {"suite": workload, "window": inp.w, "seed": seed, "rows": rows}
    text = serialize.canonical_json(payload)
    sampled = sampler.stop()
    wall_s = time.perf_counter() - t0 - inp.paused_s - sampled
    slowdown = sampler.slowdown()
    out["wall_s"] = wall_s
    out["slowdown"] = slowdown
    out["verify_s"] = wall_s / slowdown
    out["step_s"] = [[name, s / slowdown] for name, s in step_s]
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["text"] = text
    if tracer is not None:
        out["layers"] = tracer.metrics()
        tracer.dump(argv[4], {"workload": workload, "seed": seed, "machine": machine_facts()})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
