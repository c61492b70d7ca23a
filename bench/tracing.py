"""Spans around the calls into permlie's modules, recorded from outside.

``Tracer.install`` replaces each traced function where its callers look it
up: the defining module's attribute, every permlie module that imported the
name, ``TemplateSeries`` methods on the class, and ``product_one`` on the
family instances the benchmark built.  Each call becomes a span (name,
start, end, parent span, row) kept in memory, up to SPAN_CAP per name;
``Tracer.dump`` writes them out at the end of the run.  Counts (templates
in, support out, rows reduced, triples checked, ...) are taken at the same
boundaries.  A layer's self time is its spans' time minus the time of the
spans they enclose.
"""

import json
import sys
import time
from collections import defaultdict

# (module, function) pairs traced by name.  The first part of every span
# name is the layer its self time is charged to.
TRACED = {
    "kernel": ("expand_slot", "sparse_rref"),
    "families": (
        "perm_p_family",
        "ats_family",
        "wn_family",
        "finite_catalog",
        "tensor_catalog",
        "delta_p_family",
        "delta_a_family",
        "wn_codelta",
    ),
    "axioms": (
        "check_algebra",
        "check_coalgebra",
        "check_bialgebra",
        "check_form",
        "check_matched_pair",
        "check_preperm",
        "check_o_operator",
        "check_representation",
    ),
    "affinize": (
        "affinization_probe",
        "induced_lie_bracket",
        "delta_bullet_rule",
        "delta_bullet",
        "coproduct_from_form",
        "pair_keys",
    ),
    "ybe": (
        "perm_ybe_residual",
        "cybe_residual",
        "lie_delta_from_r",
        "affinize_r",
        "coboundary_delta_perm",
        "o_to_ybe",
    ),
    "doubles": (
        "invariant_form_search",
        "manin_lie_lift",
        "manin_double_from_bialgebra",
        "manin_cobracket_coefficient",
        "prelie_double",
        "para_kahler_reports",
        "restricted_dual_double",
        "prelie_to_symplectic",
        "symplectic_to_prelie",
        "dual_perm_algebra",
        "canonical_dual_actions",
    ),
    "serialize": ("report_to_json", "canonical_json"),
}
SERIES_METHODS = ("support_in_box", "coefficient_at")
FAMILY_BUILDERS = TRACED["families"][:5]
LAYERS = tuple(TRACED) + ("bench",)
# Spans kept per name.  Calls past the cap (product_one makes ~0.5 M in
# graded-laws) still count in the stats; only their span records are dropped,
# which keeps a traced pass's memory and trace file small.
SPAN_CAP = 20000


def _count_support(counts, args, result):
    counts["kernel.support_in_box.templates"] += len(args[0].templates)
    counts["kernel.support_in_box.support"] += len(result)


def _count_rref(counts, args, result):
    counts["kernel.sparse_rref.rank"] += len(result)


def _count_report(name):
    def count(counts, args, result):
        counts[name + ".checked"] += result.checked
        counts["axioms.violations"] += len(result.violations)

    return count


def _count_probe(counts, args, result):
    rep = result.window_report
    counts["affinize.affinization_probe.checked"] += rep.checked
    counts["affinize.early_exits"] += 1 if rep.extra.get("early_exit") else 0
    counts["affinize.laws"] += 1 if result.is_law else 0


def _count_json(counts, args, result):
    counts["serialize.bytes"] += len(result.encode())


COUNTERS = {
    "kernel.support_in_box": _count_support,
    "kernel.sparse_rref": _count_rref,
    "axioms.check_algebra": _count_report("axioms.check_algebra"),
    "axioms.check_coalgebra": _count_report("axioms.check_coalgebra"),
    "axioms.check_bialgebra": _count_report("axioms.check_bialgebra"),
    "axioms.check_form": _count_report("axioms.check_form"),
    "affinize.affinization_probe": _count_probe,
    "serialize.canonical_json": _count_json,
}


class Tracer:
    def __init__(self):
        self.names = []  # span name table
        self.name_id = {}
        self.rows = []  # row name table
        self.row = -1
        self.spans = []  # (id, name id, start, end, parent id, row id)
        self.stack = []  # open spans: [id, child seconds]
        self.next_id = 0
        self.stats = {}  # name -> [calls, inclusive s, self s]
        self.open_count = {}  # name -> open spans of that name (recursion)
        self.counts = defaultdict(int)

    # -- recording ---------------------------------------------------------

    def _name(self, name):
        i = self.name_id.get(name)
        if i is None:
            i = self.name_id[name] = len(self.names)
            self.names.append(name)
            self.stats[name] = [0, 0.0, 0.0]
            self.open_count[name] = 0
        return i

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        nid = self._name(name)
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1][0] if self.stack else -1
        frame = [sid, 0.0]
        self.stack.append(frame)
        self.open_count[name] += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.open_count[name] -= 1
            dur = end - start
            if self.stack:
                self.stack[-1][1] += dur
            st = self.stats[name]
            st[0] += 1
            if not self.open_count[name]:
                st[1] += dur
            st[2] += dur - frame[1]
            if st[0] <= SPAN_CAP:
                self.spans.append((sid, nid, start, end, parent, self.row))

    def wrap(self, name, fn):
        count = COUNTERS.get(name)
        counts = self.counts
        span = self.span

        if name == "kernel.sparse_rref":
            # Count the rows as the reducer consumes them; callers may pass
            # a generator.
            def traced(rows, *args, **kwargs):
                def counted():
                    for r in rows:
                        counts["kernel.sparse_rref.rows"] += 1
                        yield r

                result = span(name, fn, counted(), *args, **kwargs)
                count(counts, (rows,), result)
                return result

        else:

            def traced(*args, **kwargs):
                result = span(name, fn, *args, **kwargs)
                if count is not None:
                    count(counts, args, result)
                return result

        traced.__wrapped__ = fn
        return traced

    def set_row(self, name):
        self.rows.append(name)
        self.row = len(self.rows) - 1

    # -- installation ------------------------------------------------------

    def install(self):
        """Patch every traced function where permlie's modules look it up."""
        mods = [m for n, m in sys.modules.items() if n == "permlie" or n.startswith("permlie.")]
        for layer, fnames in TRACED.items():
            home = sys.modules[f"permlie.{layer}"]
            for fname in fnames:
                orig = getattr(home, fname)
                wrapped = self.wrap(f"{layer}.{fname}", orig)
                for mod in mods:
                    if getattr(mod, fname, None) is orig:
                        setattr(mod, fname, wrapped)
        series = sys.modules["permlie.kernel"].TemplateSeries
        for meth in SERIES_METHODS:
            setattr(series, meth, self.wrap(f"kernel.{meth}", getattr(series, meth)))

    def install_families(self, families):
        """Trace ``product_one`` on family instances the benchmark built."""
        for fam in families:
            fam.product_one = self.wrap("families.product_one", fam.product_one)

    # -- summaries ---------------------------------------------------------

    def metrics(self):
        """Per-layer metrics of the recorded spans and counts."""
        stats, counts = self.stats, self.counts

        def calls(name):
            return stats.get(name, [0, 0.0, 0.0])[0]

        def secs(name):
            return stats.get(name, [0, 0.0, 0.0])[1]

        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                st[2] for n, st in stats.items() if n.split(".")[0] == layer
            )
        for name in (
            "kernel.support_in_box",
            "kernel.expand_slot",
            "kernel.sparse_rref",
            "families.product_one",
            "affinize.affinization_probe",
            "ybe.perm_ybe_residual",
        ):
            out[f"{name}.calls"] = calls(name)
        for name in (
            "kernel.support_in_box",
            "kernel.expand_slot",
            "kernel.coefficient_at",
            "kernel.sparse_rref",
            "families.product_one",
            "axioms.check_algebra",
            "axioms.check_coalgebra",
            "axioms.check_bialgebra",
            "axioms.check_form",
            "affinize.affinization_probe",
            "ybe.cybe_residual",
            "ybe.lie_delta_from_r",
            "doubles.invariant_form_search",
            "doubles.manin_lie_lift",
            "serialize.report_to_json",
            "serialize.canonical_json",
        ):
            out[f"{name}.s"] = secs(name)
        for key in (
            "kernel.support_in_box.templates",
            "kernel.support_in_box.support",
            "kernel.sparse_rref.rows",
            "kernel.sparse_rref.rank",
            "axioms.check_algebra.checked",
            "axioms.check_coalgebra.checked",
            "axioms.violations",
            "affinize.affinization_probe.checked",
            "serialize.bytes",
        ):
            out[key] = counts[key]
        out["families.build_s"] = sum(secs(f"families.{f}") for f in FAMILY_BUILDERS)
        checked = out["axioms.check_algebra.checked"]
        alg_s = out["axioms.check_algebra.s"]
        out["axioms.check_algebra.checked_per_s"] = checked / alg_s if alg_s else 0.0
        out["families.product_one.calls_per_checked"] = (
            out["families.product_one.calls"] / checked if checked else 0.0
        )
        probes = out["affinize.affinization_probe.calls"]
        out["affinize.early_exit_share"] = (
            counts["affinize.early_exits"] / probes if probes else 0.0
        )
        out["affinize.law_share"] = counts["affinize.laws"] / probes if probes else 0.0
        return out

    def dump(self, path, extra):
        """Write the spans and summaries as one JSON document."""
        doc = dict(extra)
        doc["names"] = self.names
        doc["rows"] = self.rows
        doc["span_fields"] = ["id", "name", "start", "end", "parent", "row"]
        doc["spans"] = self.spans
        doc["span_cap"] = SPAN_CAP
        doc["stats"] = {
            n: {"calls": c, "s": s, "self_s": ss} for n, (c, s, ss) in self.stats.items()
        }
        with open(path, "w") as f:
            json.dump(doc, f, separators=(",", ":"))
