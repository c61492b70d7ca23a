"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

Run from the repository root.

1. Wrong input: a deliberately wrong row must fail the reference check.
   The ``law:prelie:ats`` row is computed on the CLI's perturbed ats product
   (t^i . t^j gains a spurious t^(i+j) term), and the honest row is checked
   against a reference with its verdict flipped.  A failing co-direction
   probe is run on its coproduct doubled, which changes its witness
   residuals and nothing else.  Each must give row_fail_share > 0, while
   the honest rows against the true references give 0.
2. Faithfulness: every benchmark row that shares its name with a row of
   ``permlie verify <suite> --window <w> --format json``, where ``w`` is the
   workload's window (``workloads.WINDOWS``), must have identical row JSON.
   The benchmark's rows come from one worker pass of each workload; this
   takes a few minutes.

Exits 0 when every test passes, 1 otherwise.
"""

import copy
import json
import os
import subprocess
import sys

import bank
import harness

sys.path.insert(0, os.path.join(harness.ROOT, "src"))

import workloads  # noqa: E402  (needs src/ on the path)
from permlie import axioms as ax  # noqa: E402
from permlie import cli  # noqa: E402
from permlie import families as fm  # noqa: E402
from permlie import kernel as kn  # noqa: E402


def cli_suite(name):
    """The ``permlie verify`` suite whose output holds this row; None for
    the benchmark's own probe rows."""
    head = name.split(":")[0]
    if head in ("law", "colaw", "form", "affinize", "pipeline", "remark"):
        return "paper-examples"
    if head in ("ybe", "doubles", "appendix"):
        return head
    if head == "neg":
        return "doubles" if name.startswith("neg:matched-pair") else "ybe"
    return None


def cli_rows(args):
    env = dict(os.environ, PYTHONPATH=os.path.join(harness.ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "permlie.cli", "verify", *args, "--format", "json"],
        cwd=harness.ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"permlie verify {' '.join(args)} exited {proc.returncode}")
    return {r["name"]: r for r in json.loads(proc.stdout)["rows"]}


def wrong_ats_rows():
    """``law:prelie:ats`` computed honestly and on the CLI's perturbed ats
    product, with the graded-laws reference and a copy whose verdict is
    flipped."""
    refs = harness.load_references("graded-laws")
    name = "law:prelie:ats"
    inp = workloads.setup_graded(0)
    honest = dict(workloads.GRADED_STEPS)[name](inp)
    fam = inp.afam
    window = kn.Window(inp.w, ax.default_margin(ax.LawId.PreLie, graded=True))
    wrong = [
        cli._report_row(
            name,
            ax.check_algebra(
                ax.LawId.PreLie,
                product=cli._perturbed_ats_product,
                keys=fam.interior_keys(window, ax.LawId.PreLie),
                window=kn.Window(inp.w),
                margin=window.margin,
            ),
        )
    ]
    flipped = copy.deepcopy(refs)
    flipped[name]["passed"] = not flipped[name]["passed"]
    return name, [
        ("honest row, true reference", honest, refs, False),
        ("perturbed ats product", wrong, refs, True),
        ("flipped reference verdict", honest, flipped, True),
    ]


def wrong_residual_rows():
    """The cheapest failing co-direction probe candidate, honestly and with
    its coproduct doubled.  Doubling keeps the verdict, the window, the
    checked count and the witness locations, and multiplies every residual
    by four, so only the residual fingerprints can tell the rows apart."""
    refs = harness.load_references("probe-batch")
    fails = [e for e in bank.load_bank_info()["coalgebra"] if not e["is_law"]]
    index = min(fails, key=lambda e: (e["cost"], e["index"]))["index"]
    table = workloads.probe_bank()[1][index]
    doubled = {src: tuple((i, j, 2 * c) for i, j, c in terms) for src, terms in table.items()}
    inp = workloads.Inputs(0, workloads.WINDOWS["probe-batch"], afam=fm.ats_family())
    honest = [workloads.candidate_row("coalgebra", index, table, inp)]
    wrong = [workloads.candidate_row("coalgebra", index, doubled, inp)]
    return f"probe:coalgebra:{index}", [
        ("honest probe row, true reference", honest, refs, False),
        ("probe with doubled coproduct", wrong, refs, True),
    ]


def test_wrong_input():
    ok = True
    for name, cases in (wrong_ats_rows(), wrong_residual_rows()):
        for label, rows, against, want_fail in cases:
            attempted, failed, diffs = harness.check_rows(rows, against, [name])
            share = failed / attempted
            good = (share > 0) == want_fail
            ok &= good
            detail = "; ".join(diffs.get(name, [])) or "no difference"
            print(f"{'ok  ' if good else 'FAIL'} wrong-input: {name}: {label}: "
                  f"row_fail_share={share:g} ({detail})")
    return ok


def test_faithfulness():
    ok = True
    cache = {}
    for workload in harness.WORKLOADS:
        window = str(workloads.WINDOWS[workload])
        out, _ = harness.spawn(workload, 0, "pass", timeout=600)
        rows = json.loads(out["text"])["rows"]
        shared, same = 0, True
        for row in rows:
            suite = cli_suite(row["name"])
            if suite is None:
                continue
            args = (suite, "--window", window)
            if args not in cache:
                cache[args] = cli_rows(args)
            cli_row = cache[args].get(row["name"])
            if cli_row is None:
                print(f"FAIL faithfulness: {row['name']} not printed by verify {' '.join(args)}")
                same = False
                continue
            shared += 1
            if json.dumps(cli_row, sort_keys=True) != json.dumps(row, sort_keys=True):
                print(f"FAIL faithfulness: {row['name']} differs from verify {' '.join(args)}")
                same = False
        ok &= same
        print(f"{'ok  ' if same else 'FAIL'} faithfulness: {workload}: "
              f"{shared} of {len(rows)} rows shared with the CLI at --window {window}")
    return ok


def main():
    harness.check_checkout()
    ok = test_wrong_input()
    ok &= test_faithfulness()
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
