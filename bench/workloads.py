"""The benchmark workloads, built from permlie's public calls.

A workload is a ``setup`` function and a list of steps.  ``setup(seed)``
builds the families, catalog algebras and generated inputs that the
``permlie verify`` suites build before their first check.  Each step makes
the same calls, with the same arguments, that the suites make for one or
more rows, at the workload's CLI window (``WINDOWS``), and returns those rows
exactly as the CLI prints them (``name``, ``law``, ``passed``, ``note``,
``report``).  Row and report helpers are the CLI's own (``permlie.cli``);
only the suite bodies, which the CLI does not split into setup and checks,
are written out here.

Every permlie function is looked up through its module at call time
(``ax.check_algebra``, not a name bound at import), so a tracer that patches
the module attribute sees the benchmark's calls.

Workloads, each the CLI's rows at one ``--window``:

- ``graded-laws`` (window 5): the graded algebra-law cubes, the two forms
  and the affinized bracket table.
- ``coalgebra-box`` (window 3): the coalgebra laws, the affinization
  pipeline, the coproduct-from-form remarks, and the passing ybe and doubles
  rows.
- ``probe-batch`` (window 6): random 2-dim affinization probes in both
  directions, sampled by the run's seed from a bank (``bank.py``), plus
  ``affinize:lie-jacobi`` and every ``neg:*`` row of the ybe and doubles
  suites.
- ``form-search`` (window 6): every row of ``verify appendix``.
"""

import dataclasses
import hashlib
import random
import time
from fractions import Fraction

from bank import ALGEBRA_BANK, BANK_SEED, COALGEBRA_BANK, load_bank_info, probe_sample

from permlie import affinize as af
from permlie import axioms as ax
from permlie import cli
from permlie import doubles as db
from permlie import families as fm
from permlie import kernel as kn
from permlie import serialize as se
from permlie import ybe

WINDOWS = {"graded-laws": 5, "coalgebra-box": 3, "probe-batch": 6, "form-search": 6}


class Inputs:
    """What ``setup`` builds: families, catalogs, generated candidates.

    ``w`` is the workload's CLI window.  ``paused_s`` is time a step spent
    on the benchmark's own bookkeeping, which the pass does not count."""

    def __init__(self, seed, w, **objs):
        self.seed = seed
        self.w = w
        self.paused_s = 0.0
        self.__dict__.update(objs)

    def graded_families(self):
        return [v for v in self.__dict__.values() if isinstance(v, fm.GradedFamily)]


# ---------------------------------------------------------------------------
# graded-laws


def setup_graded(seed):
    return Inputs(
        seed,
        WINDOWS["graded-laws"],
        pfam=fm.perm_p_family(),
        afam=fm.ats_family(),
        w1=fm.wn_family(1),
        w2=fm.wn_family(2),
    )


def _law(name, law, fam_attr):
    def step(inp):
        fam = getattr(inp, fam_attr)
        rep = ax.check_algebra(law, family=fam, window=kn.Window(inp.w), margin=None)
        return [cli._report_row(name, rep)]

    return name, step


def _form(name, law, fam_attr):
    def step(inp):
        fam = getattr(inp, fam_attr)
        rep = ax.check_form(law, family=fam, window=kn.Window(inp.w), margin=None)
        return [cli._report_row(name, rep)]

    return name, step


def _bracket_table(inp):
    return [cli._report_row("affinize:bracket-table", cli._bracket_table_report(inp.w))]


GRADED_STEPS = [
    _law("law:perm:graded-p", ax.LawId.Perm, "pfam"),
    _law("law:prelie:w1", ax.LawId.PreLie, "w1"),
    _law("law:novikov:w1", ax.LawId.Novikov, "w1"),
    _law("law:prelie:w2", ax.LawId.PreLie, "w2"),
    _law("law:prelie:ats", ax.LawId.PreLie, "afam"),
    _form("form:prelie:ats", ax.LawId.QuadPreLieForm, "afam"),
    _form("form:perm:graded-p", ax.LawId.QuadPermForm, "pfam"),
    ("affinize:bracket-table", _bracket_table),
]


# ---------------------------------------------------------------------------
# coalgebra-box


def setup_coalgebra(seed):
    return Inputs(
        seed,
        WINDOWS["coalgebra-box"],
        pfam=fm.perm_p_family(),
        afam=fm.ats_family(),
        w1=fm.wn_family(1),
        cat=fm.finite_catalog(),
        tens=fm.tensor_catalog(),
    )


def _colaw(name, law, fam_attr, delta, sym_co):
    def step(inp):
        fam = getattr(inp, fam_attr)
        wc = kn.Window(min(4, inp.w))
        rep = ax.check_coalgebra(
            law,
            delta=delta(),
            sym_co=sym_co(fam),
            keys=fam.interior_keys(wc, law),
            window=wc,
            margin=None,
        )
        return [cli._report_row(name, rep)]

    return name, step


def _cobracket_table(shape):
    name = f"pipeline:cobracket-table:{shape}"

    def step(inp):
        return [cli._report_row(name, cli._cobracket_table_report(min(5, inp.w), shape))]

    return name, step


def _pipeline(inp):
    wp = min(5, inp.w)
    alg = inp.cat["ex-1p"]
    delta, sym_co = af.delta_bullet_rule(alg, inp.afam)
    br, sbr = af.induced_lie_bracket(alg, inp.afam)
    pk = af.pair_keys(alg, inp.afam, kn.Window(wp))
    rows = [
        cli._report_row(
            "pipeline:lie-bicocycle",
            ax.check_bialgebra(
                ax.LawId.LieBiCocycle,
                bracket=br,
                delta=delta,
                sym_bracket=sbr,
                keys=pk,
                window=kn.Window(wp),
                margin=None,
            ),
        )
    ]
    for name, law in (
        ("pipeline:colie-skew", ax.LawId.CoLieSkew),
        ("pipeline:colie-jacobi", ax.LawId.CoLieJacobi),
    ):
        rep = ax.check_coalgebra(
            law, delta=delta, sym_co=sym_co, keys=pk, window=kn.Window(wp), margin=None
        )
        rows.append(cli._report_row(name, rep))
    return rows


def _coproduct_from_form(which):
    name = f"remark:coproduct-from-form:{which}"

    def step(inp):
        if which == "ats":
            fam, delta_named = inp.afam, fm.delta_a_family
        else:
            fam, delta_named = inp.pfam, fm.delta_p_family
        rep = cli._coproduct_from_form_report(fam, delta_named, min(6, inp.w))
        return [cli._report_row(name, rep)]

    return name, step


def _ybe_rows(inp):
    """The passing rows of ``verify ybe``, in the suite's order."""
    sd2 = inp.cat["ex-sd2"]
    r_sd2 = inp.tens["r-sd2"][1]
    fam = inp.afam
    rows = [
        cli._report_row(
            "ybe:residual-zero:semidirect",
            cli._residual_zero_report(sd2, r_sd2, "PermYbeZero"),
        ),
        cli._report_row(
            "ybe:coboundary-bialgebra",
            ax.check_bialgebra(
                ax.LawId.PermBi, alg=sd2, delta_table=ybe.coboundary_delta_perm(sd2, r_sd2)
            ),
        ),
    ]
    rt = ybe.affinize_r(r_sd2, fam)
    ws = min(4, inp.w)
    skew_bad = (rt + rt.flip_hat()).support_in_box(ws)
    rows.append(
        cli._report_row(
            "ybe:affinized-skew",
            cli._equality_report(
                "AffinizedSkew",
                kn.Window(ws, 0),
                1,
                [((k,), ((k, c),)) for k, c in sorted(skew_bad.items())],
            ),
        )
    )
    _, sbr = af.induced_lie_bracket(sd2, fam)
    rows.append(
        cli._report_row("ybe:cybe", ybe.cybe_residual(sbr, rt, kn.Window(min(5, inp.w), 0)))
    )
    rows.append(
        cli._report_row("ybe:worked-cobracket", cli._worked_cobracket_report(min(3, inp.w)))
    )
    rows.append(cli._report_row("ybe:diagram", cli._ybe_diagram_report(min(4, inp.w))))
    return rows


def _doubles_rows(inp):
    """The passing rows of ``verify doubles``, in the suite's order."""
    p1 = inp.cat["ex-1p"]
    rows = []
    md = db.manin_double_from_bialgebra(p1)
    for name in sorted(md.reports):
        rows.append(cli._report_row(f"doubles:manin:delta-ee:{name}", md.reports[name]))
    md0 = db.manin_double_from_bialgebra(p1, {})
    for name in sorted(md0.reports):
        rows.append(cli._report_row(f"doubles:manin:delta-zero:{name}", md0.reports[name]))
    wl = min(4, inp.w)
    lift = db.manin_lie_lift(md, inp.afam, kn.Window(wl))
    for name in sorted(lift.reports):
        rows.append(cli._report_row(f"doubles:lie-triple:{name}", lift.reports[name]))
    rows.append(
        cli._report_row("doubles:diagram", cli._doubles_diagram_report(md, lift, wl))
    )
    pl1 = inp.cat["ex-prelie-1"]
    for tag, delta in (("delta-ee", None), ("delta-zero", {})):
        pd, pform = db.prelie_double(pl1) if delta is None else db.prelie_double(pl1, delta)
        reps = db.para_kahler_reports(pd, pform)
        for name in sorted(reps):
            rows.append(cli._report_row(f"doubles:para-kahler:{tag}:{name}", reps[name]))
    return rows


COALGEBRA_STEPS = [
    _colaw(
        "colaw:coperm:graded-p",
        ax.LawId.CoPerm,
        "pfam",
        lambda: fm.delta_p_family,
        lambda fam: fam.sym_co,
    ),
    _colaw(
        "colaw:coprelie:ats",
        ax.LawId.CoPreLie,
        "afam",
        lambda: fm.delta_a_family,
        lambda fam: fam.sym_co,
    ),
    _colaw(
        "colaw:coprelie:w1",
        ax.LawId.CoPreLie,
        "w1",
        lambda: (lambda k: fm.wn_codelta(1, k)),
        lambda fam: fm.wn_codelta_sym(1),
    ),
    _cobracket_table("t"),
    _cobracket_table("s"),
    ("pipeline:lie-bicocycle+colie", _pipeline),
    _coproduct_from_form("ats"),
    _coproduct_from_form("graded-p"),
    ("ybe:*", _ybe_rows),
    ("doubles:*", _doubles_rows),
]


# ---------------------------------------------------------------------------
# probe-batch


def algebra_candidate(rng):
    """One algebra-direction probe candidate, drawn as ``suite_probes`` does."""
    return fm.random_table(rng, 2)


def coalgebra_candidate(rng):
    """One co-direction probe candidate, drawn as ``suite_probes`` does."""
    dt = {}
    for src in range(2):
        terms = tuple(
            (i, j, Fraction(rng.randint(-2, 2)))
            for i in range(2)
            for j in range(2)
            if rng.random() < 0.5
        )
        terms = tuple((i, j, c) for i, j, c in terms if c)
        if terms:
            dt[src] = terms
    return dt


def probe_bank():
    """The candidate bank: ALGEBRA_BANK tables, then COALGEBRA_BANK coproduct
    tables, from one generator seeded with BANK_SEED."""
    rng = random.Random(BANK_SEED)
    tables = [algebra_candidate(rng) for _ in range(ALGEBRA_BANK)]
    deltas = [coalgebra_candidate(rng) for _ in range(COALGEBRA_BANK)]
    return tables, deltas


def fingerprint(residual):
    """A witness residual in brief: its term count and a hash of its terms."""
    return {
        "terms": len(residual),
        "sha256": hashlib.sha256(repr(residual).encode()).hexdigest(),
    }


def candidate_row(direction, index, table, inp):
    """The row of bank candidate ``index``: a product table probed in the
    algebra direction, or a coproduct table probed in the co-direction, at
    the windows ``suite_probes`` uses.

    The row passes when the window verdict agrees with the direct finite
    check, as the CLI's probe batches count agreement.  Its report keeps each
    witness's label and location, and a fingerprint of its residual instead
    of the residual itself, which runs to megabytes per co-direction
    candidate.  Fingerprinting is the benchmark's own work: its time goes to
    ``inp.paused_s``."""
    fam = inp.afam
    if direction == "algebra":
        alg = fm.FiniteAlgebra(
            id="probe", space="PR", dim=2, labels=("a", "b"), kind="none", mul=table
        )
        v = af.affinization_probe(alg, fam, "algebra", kn.Window(min(5, inp.w)))
    else:
        alg = fm.FiniteAlgebra(
            id="probe", space="PR", dim=2, labels=("a", "b"), kind="none", mul={}, delta=table
        )
        v = af.affinization_probe(
            alg, fam, "coalgebra", kn.Window(min(4, inp.w)), delta_table=table
        )
    rep = v.window_report
    t0 = time.perf_counter()
    witnesses = dataclasses.replace(
        rep, violations=[(label, at, fingerprint(res)) for label, at, res in rep.violations]
    )
    inp.paused_s += time.perf_counter() - t0
    name = f"probe:{direction}:{index}"
    return cli._row(name, rep.law, v.agree, v.note, se.report_to_json(witnesses))


def setup_probes(seed):
    tables, deltas = probe_bank()
    picked = probe_sample(seed, load_bank_info())
    return Inputs(
        seed,
        WINDOWS["probe-batch"],
        afam=fm.ats_family(),
        cat=fm.finite_catalog(),
        tens=fm.tensor_catalog(),
        algebra=[(i, tables[i]) for i in picked["algebra"]],
        coalgebra=[(i, deltas[i]) for i in picked["coalgebra"]],
    )


def _lie_jacobi(inp):
    probe = af.affinization_probe(
        inp.cat["ex-1p"], inp.afam, "algebra", kn.Window(min(5, inp.w))
    )
    return [
        cli._row(
            "affinize:lie-jacobi",
            probe.window_report.law,
            probe.is_law and probe.direct_report.passed and probe.agree,
            probe.note,
            se.report_to_json(probe.window_report),
        )
    ]


def _algebra_probes(inp):
    return [candidate_row("algebra", i, t, inp) for i, t in inp.algebra]


def _coalgebra_probes(inp):
    return [candidate_row("coalgebra", i, t, inp) for i, t in inp.coalgebra]


def _negative_rows(inp):
    """Every ``neg:*`` row of ``verify ybe`` and ``verify doubles``."""
    cat, tens, fam = inp.cat, inp.tens, inp.afam
    nilp = cat["ex-nilp2"]
    r_n = tens["r-nilp2"][1]
    rows = [
        cli._report_row(
            "neg:perm-ybe:nilpotent",
            cli._residual_zero_report(nilp, r_n, "PermYbeZero"),
            expect_pass=False,
        )
    ]
    _, sbr_n = af.induced_lie_bracket(nilp, fam)
    rows.append(
        cli._report_row(
            "neg:cybe:nilpotent",
            ybe.cybe_residual(sbr_n, ybe.affinize_r(r_n, fam), kn.Window(min(3, inp.w), 0)),
            expect_pass=False,
        )
    )
    wc = kn.Window(min(4, inp.w))
    rows.append(
        cli._report_row(
            "neg:coprelie:perturbed-ats",
            ax.check_coalgebra(
                ax.LawId.CoPreLie,
                delta=cli._perturbed_ats_delta,
                sym_co=cli._perturbed_ats_sym_co,
                keys=fam.interior_keys(wc, ax.LawId.CoPreLie),
                window=wc,
                margin=None,
            ),
            expect_pass=False,
        )
    )
    rows.append(
        cli._report_row(
            "neg:prelie:perturbed-ats-product",
            ax.check_algebra(
                ax.LawId.PreLie,
                product=cli._perturbed_ats_product,
                keys=fam.interior_keys(wc, ax.LawId.PreLie),
            ),
            expect_pass=False,
        )
    )
    rows.append(
        cli._report_row(
            "neg:preperm:broken", ax.check_preperm(cat["ex-preperm-bad"]), expect_pass=False
        )
    )
    onep = cat["ex-1p"]
    try:
        ybe.o_to_ybe(((Fraction(1),),), onep, fm.adjoint_representation(onep))
        rows.append(cli._row("neg:o-operator:adjoint", "OOperator", False, "did not raise"))
    except ybe.OOperatorError as err:
        rows.append(
            cli._row(
                "neg:o-operator:adjoint",
                "OOperator",
                (not err.report.passed) and bool(err.report.violations),
                "expected to fail with witnesses",
                se.report_to_json(err.report),
            )
        )
    rows.append(
        cli._report_row(
            "neg:perm:broken-table",
            ax.check_algebra(ax.LawId.Perm, alg=cat["ex-bad2"]),
            expect_pass=False,
        )
    )
    p1 = cat["ex-1p"]
    dual = db.dual_perm_algebra(p1, p1.delta)
    l12, r12, l21, r21 = db.canonical_dual_actions(p1, dual)
    bad_l12 = tuple(
        tuple(tuple(v + Fraction(1) for v in row) for row in mtx) for mtx in l12
    )
    rows.append(
        cli._report_row(
            "neg:matched-pair:perturbed-action",
            ax.check_matched_pair(p1, dual, bad_l12, r12, l21, r21),
            expect_pass=False,
        )
    )
    return rows


PROBE_STEPS = [
    ("affinize:lie-jacobi", _lie_jacobi),
    ("probe:algebra:*", _algebra_probes),
    ("probe:coalgebra:*", _coalgebra_probes),
    ("neg:*", _negative_rows),
]


# ---------------------------------------------------------------------------
# form-search


def setup_appendix(seed):
    return Inputs(seed, WINDOWS["form-search"], cat=fm.finite_catalog())


def _restricted_dual_rows(inp):
    rows = [
        cli._report_row(
            "appendix:restricted-dual:w1-equals-ats",
            cli._restricted_dual_equality_report(min(6, inp.w)),
        )
    ]
    w1d = db.restricted_dual_double(fm.wn_family(1))
    rows.append(
        cli._report_row(
            "appendix:restricted-dual:w1-form",
            ax.check_form(
                ax.LawId.QuadPreLieForm,
                family=w1d,
                window=kn.Window(min(4, inp.w)),
                margin=None,
            ),
        )
    )
    fd, fform = db.restricted_dual_double(inp.cat["ex-prelie-1"])
    rows.append(
        cli._report_row(
            "appendix:restricted-dual:finite-prelie", ax.check_algebra(ax.LawId.PreLie, alg=fd)
        )
    )
    rows.append(
        cli._report_row(
            "appendix:restricted-dual:finite-form",
            ax.check_form(
                ax.LawId.QuadPreLieForm, form=fform, product=fd.product, keys=fd.basis_keys()
            ),
        )
    )
    return rows


SEARCH_FIELDS = (
    "keys",
    "unknowns",
    "rows",
    "skipped_triples",
    "rank",
    "solution_dim",
    "forced_zero_count",
    "probe_vanishes",
)


def _form_search(n):
    name = f"appendix:form-search:w{n}"

    def step(inp):
        search = db.invariant_form_search(n, kn.Window(3))
        return [
            cli._row(
                name,
                "InvariantFormSearch",
                search["probe_vanishes"],
                f"rank {search['rank']} of {search['unknowns']} unknowns, "
                f"{search['forced_zero_count']} forced zero",
                {k: search[k] for k in SEARCH_FIELDS},
            )
        ]

    return name, step


def _roundtrips(inp):
    cat = inp.cat
    return [
        cli._report_row(f"appendix:symplectic-roundtrip:{aid}", cli._roundtrip_report(cat[aid]))
        for aid in sorted(a.id for a in cat.values() if a.kind == "PreLie")
    ]


APPENDIX_STEPS = [
    ("appendix:restricted-dual:*", _restricted_dual_rows),
    _form_search(1),
    _form_search(2),
    ("appendix:symplectic-roundtrip:*", _roundtrips),
]


WORKLOADS = {
    "graded-laws": (setup_graded, GRADED_STEPS),
    "coalgebra-box": (setup_coalgebra, COALGEBRA_STEPS),
    "probe-batch": (setup_probes, PROBE_STEPS),
    "form-search": (setup_appendix, APPENDIX_STEPS),
}
