"""Parent side of the benchmark: fresh-interpreter passes, reference checks,
medians.  Standard library only; permlie is imported by the workers alone.

A run of one workload spawns ``SETUP_SAMPLES`` set-up-only workers, then
passes, each in a fresh interpreter, one after another (a closed loop with
one synchronous caller), until the next pass would overrun the run's time.
It always makes at least ``MIN_PASSES`` untraced passes (and, when tracing,
one untraced and one traced pass).  After a pass it spawns ``SETUP_SAMPLES``
more set-up-only workers until the run has ``MIN_SETUPS`` set-up samples, so
that they spread over the run.  End-to-end metrics are medians over the
run's samples; ``verify_s`` and ``setup_s`` are taken at the reference
speed (``speed.py``).
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import time

import bank

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCES = os.path.join(HERE, "references")
TRACES = os.path.join(HERE, "traces")
WORKLOADS = ("graded-laws", "coalgebra-box", "probe-batch", "form-search")
SETUP_SAMPLES = 3
MIN_SETUPS = 15
MIN_PASSES = 3
CHILD_TIMEOUT_S = 170
REPORT_FIELDS = ("law", "passed", "n", "margin", "checked", "violations")


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or references)."""


def check_checkout(root=ROOT):
    init = os.path.join(root, "src", "permlie", "__init__.py")
    if not os.path.isfile(init):
        raise BenchError(f"no permlie sources at {os.path.dirname(init)}")


# ---------------------------------------------------------------------------
# Machine facts.


def commit(root=ROOT):
    """The checked-out commit, read from .git without running git; None
    outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit(),
    }


# ---------------------------------------------------------------------------
# References and the row check.


def load_references(workload):
    path = os.path.join(REFERENCES, f"{workload}.json")
    try:
        with open(path) as f:
            return json.load(f)["rows"]
    except OSError as err:
        raise BenchError(f"no references for {workload}: {err}") from None


def expected_names(workload, refs, seed):
    """Row names a pass of this workload at this seed must produce."""
    names = [n for n in refs if not n.startswith("probe:")]
    if workload == "probe-batch":
        picked = bank.probe_sample(seed, bank.load_bank_info())
        names += bank.probe_row_names(picked)
    return names


def row_diff(got, want):
    """Differences that make a row fail: its verdict, and for each report
    its law, verdict, window, margin, checked count and witness list.  Keys
    that are new under a report's ``extra`` do not count."""
    if "error" in got:
        return [_raised(got)]
    out = []
    if got.get("passed") != want["passed"]:
        out.append(f"passed {got.get('passed')} != {want['passed']}")
    g, w = got.get("report"), want["report"]
    if isinstance(w, dict) and "violations" in w:
        if not isinstance(g, dict):
            return out + ["report missing"]
        for k in REPORT_FIELDS:
            if g.get(k) != w[k]:
                out.append(f"report.{k} differs")
        gx = g.get("extra", {})
        for k, v in w["extra"].items():
            if gx.get(k) != v:
                out.append(f"report.extra.{k} differs")
    elif g != w:
        out.append("report differs")
    return out


def check_rows(rows, refs, names):
    """(attempted, failed, {row: [differences]}) for one pass."""
    got = {}
    for r in rows:
        got.setdefault(r["name"], r)
    diffs = {}
    for name in names:
        if name not in got:
            diffs[name] = ["missing"]
            continue
        d = row_diff(got[name], refs[name])
        if d:
            diffs[name] = d
    extra = [n for n in got if n not in set(names)]
    for name in extra:
        diffs[name] = [_raised(got[name]) if "error" in got[name] else "unexpected row"]
    return len(names) + len(extra), len(diffs), diffs


def _raised(row):
    return "raised: " + row["error"].strip().splitlines()[-1]


# ---------------------------------------------------------------------------
# Workers.


def spawn(workload, seed, mode, trace_file=None, timeout=CHILD_TIMEOUT_S):
    """Run one worker to completion; returns its JSON line and setup_s, the
    time from the spawn to the end of the worker's set-up, less its speed
    samples, at the reference speed."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), ROOT, workload, str(seed), mode]
    if trace_file:
        argv.append(trace_file)
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    start = time.monotonic()
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker for {workload} ran over {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(
            f"{mode} worker for {workload} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    setup_s = (out["setup_done"] - start - out["setup_sampled_s"]) / out["setup_slowdown"]
    return out, setup_s


def run_workload(workload, seed, seconds, trace):
    """One run: set-up samples, then passes until the time is used.

    Returns a dict with the end-to-end (or, traced, per-layer) metrics and
    the row counts."""
    check_checkout()
    refs = load_references(workload)
    names = expected_names(workload, refs, seed)
    t_run = time.monotonic()
    setups = [spawn(workload, seed, "setup")[1] for _ in range(SETUP_SAMPLES)]
    passes, traced = [], []
    attempted = failed = 0
    first_diffs = {}
    while True:
        mode = "traced" if trace and len(traced) < len(passes) else "pass"
        trace_file = None
        if mode == "traced":
            os.makedirs(TRACES, exist_ok=True)
            trace_file = os.path.join(TRACES, f"{workload}-seed{seed}-{len(traced)}.json")
        t_pass = time.monotonic()
        left = CHILD_TIMEOUT_S - (t_pass - t_run)
        out, setup_s = spawn(workload, seed, mode, trace_file, timeout=max(left, 1))
        pass_s = time.monotonic() - t_pass
        rows = json.loads(out["text"])["rows"]
        a, f, diffs = check_rows(rows, refs, names)
        attempted += a
        failed += f
        for k, v in diffs.items():
            first_diffs.setdefault(k, v)
        if mode == "traced":
            traced.append(out)
        else:
            passes.append(out)
            setups.append(setup_s)
        print(
            f"  {mode:6s} verify_s={out['verify_s']:.3f} wall_s={out['wall_s']:.3f} "
            f"slowdown={out['slowdown']:.3f} setup_s={setup_s:.3f} "
            f"rss_mb={out['rss_kb'] / 1024:.1f} rows={a} failed={f}"
        )
        if len(setups) < MIN_SETUPS:
            setups += [spawn(workload, seed, "setup")[1] for _ in range(SETUP_SAMPLES)]
        if trace:
            done = len(passes) >= 1 and len(traced) >= 1
        else:
            done = len(passes) >= MIN_PASSES
        if done and time.monotonic() - t_run + pass_s > seconds:
            break
    for name, d in sorted(first_diffs.items()):
        print(f"  FAIL {name}: {'; '.join(d)}")
    for key in ("verify_s", "wall_s"):
        times = [p[key] for p in passes]
        if len(times) < 2:
            continue
        q1, med, q3 = statistics.quantiles(times, n=4)
        print(f"  {key} over {len(times)} passes: min {min(times):.3f} q1 {q1:.3f} "
              f"median {statistics.median(times):.3f} q3 {q3:.3f} s")
    verify = statistics.median(p["verify_s"] for p in passes)
    result = {
        "attempted": attempted,
        "failed": failed,
        "passes": len(passes),
        "end_to_end": {
            "verify_s": (verify, "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(p["rss_kb"] for p in passes) / 1024, "MB"),
        },
        "row_fail_share": failed / attempted,
    }
    if trace:
        layers = {}
        for key in traced[0]["layers"]:
            layers[key] = statistics.median(t["layers"][key] for t in traced)
        step_s = [max(s for _, s in p["step_s"]) for p in passes]
        layers["rows.count"] = len(names)
        layers["rows.max_s"] = statistics.median(step_s)
        layers["verify.wall_s"] = statistics.median(p["wall_s"] for p in passes)
        layers["verify.slowdown"] = statistics.median(p["slowdown"] for p in passes)
        traced_verify = statistics.median(t["verify_s"] for t in traced)
        layers["trace.overhead_share"] = traced_verify / verify - 1
        result["per_layer"] = layers
    return result
