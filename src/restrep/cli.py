"""Command line runner for the scenario suite.

Every scenario is decided by exact arithmetic; there are no tolerance
knobs.  Reports are emitted as an aligned table (default), CSV, or JSON
and are byte-identical across runs with the same seed and configuration.
Exit status: 0 when every check passes, 1 on a check failure (the
failing rows are echoed to stderr), 2 on usage errors.
"""

import argparse
import csv
import io
import json
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor

from . import __version__
from .algebra import build_truncated_polynomial
from .fields import field
from .heisenberg import (cgm_check, index_scaling_check, rank_table,
                         wild_abelian_isotropy_check, HypothesisNotMet)
from .hopf import named_structure
from .klein import WANG_STRUCTURES, KleinContext
from .matrices import nilpotent_jordan_type
from .modules import jordan_block_module, rep_from_json, tensor
from .pipoints import PointFamily, nobility, support

log = logging.getLogger("restrep")


def _jsonable(v):
    if isinstance(v, (str, int, float, bool)) or v is None:
        return v
    return str(v)


def emit(rows, fmt, out, scenario, ok, extra=None):
    rows = [{k: _jsonable(v) for k, v in row.items()} for row in rows]
    if fmt == "json":
        payload = {"scenario": scenario, "ok": ok, "rows": rows}
        if extra:
            payload["extra"] = {k: _jsonable(v) if not isinstance(v, dict) else v
                                for k, v in extra.items()}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        cols = []
        for row in rows:
            for k in row:
                if k not in cols:
                    cols.append(k)
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=cols)
        w.writeheader()
        w.writerows(rows)
        text = buf.getvalue()
    else:
        cols = []
        for row in rows:
            for k in row:
                if k not in cols:
                    cols.append(k)
        widths = {c: max(len(c), *(len(str(r.get(c, ""))) for r in rows)) if rows else len(c)
                  for c in cols}
        lines = ["  ".join(c.ljust(widths[c]) for c in cols)]
        for r in rows:
            lines.append("  ".join(str(r.get(c, "")).ljust(widths[c]) for c in cols))
        lines.append(f"[{scenario}] ok={ok}")
        text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_failures(rows, keys=("match",)):
    bad = []
    for row in rows:
        for k in keys:
            if k in row and row[k] is False:
                bad.append(row)
                break
    for row in bad:
        sys.stderr.write(f"check failed: {row}\n")
    return not bad


# -- scenarios ------------------------------------------------------------------------


def scenario_klein(args):
    ctx = KleinContext(ext_degree=args.field_ext, seed=args.seed, trials=args.trials)
    nmax = args.n or 4
    jobs = []
    for name in WANG_STRUCTURES:
        for pt in ctx.family:
            for n in range(1, nmax + 1):
                for m in range(1, nmax + 1):
                    jobs.append((name, pt.coords, n, m))

    def run_one(job):
        name, coords, n, m = job
        return ctx.check_basev_formula(name, coords, n, m)

    with ThreadPoolExecutor(max_workers=args.jobs) as ex:
        rows = list(ex.map(run_one, jobs))
    for name in WANG_STRUCTURES:
        for pt in ctx.family:
            if nobility(ctx.structure(name), pt.coords, ctx.family) == "ignoble":
                rep = ctx.check_pb_witness(name, pt.coords)
                rows.append({"structure": name, "point": pt.label, "kind": "pb_witness",
                             "match": rep["witness_found"], **{k: v for k, v in rep.items()
                                                               if k.endswith("zero") or k.endswith("nonzero")}})
    ok = _report_failures(rows)
    emit(rows, args.format, args.out, "klein", ok)
    return ok


def scenario_twodim(args):
    p = args.p or 3
    rep = wild_abelian_isotropy_check("twodim", p=p)
    if not rep.get("applicable", True):
        emit([rep], args.format, args.out, "twodim", True)
        return True
    checks = ("isotropy_fixed_point", "tensor_square_untwisted_splits",
              "twisted_square_has_full_block", "sum_lacks_full_block",
              "hypothesis_met", "pa_violation_certified")
    ok = all(rep[k] for k in checks)
    emit([rep], args.format, args.out, "twodim", ok)
    return ok


def scenario_heisenberg(args):
    p = args.p or 3
    rows = rank_table(p, use_scenarios=True)
    cert = cgm_check(p)
    ok = (all(r["rank_match"] and r["rho_derived_match"] and r["tau_derived_match"]
              for r in rows)
          and cert["identity_fails"] and cert["twisted_matches_expected"]
          and cert["untwisted_matches_mackey"] and cert["isotropy_argument"])
    _report_failures(rows, keys=("rank_match", "rho_derived_match", "tau_derived_match"))
    emit(rows, args.format, args.out, "heisenberg", ok, extra={"cgm": cert})
    return ok


def scenario_cgm(args):
    p = args.p or 3
    cert = cgm_check(p)
    ok = (cert["identity_fails"] and cert["twisted_matches_expected"]
          and cert["untwisted_matches_mackey"] and cert["isotropy_argument"])
    flat = {k: v for k, v in cert.items() if k != "V1_support_scan"}
    emit([flat], args.format, args.out, "cgm", ok, extra={"certificate": cert})
    return ok


def scenario_witt(args):
    p = args.p or 3
    r = args.r or 1
    if r not in (1, 2):
        sys.stderr.write("witt: --r must be 1 or 2\n")
        raise SystemExit(2)
    F = field(p)
    A = build_truncated_polynomial(F, [p ** r], names=("x",))
    names = ["lie_primitive", "oorttate_Zp"] if r == 1 else \
        ["lie_primitive", "witt_G2", "witt_Zp2"]
    deltas = [named_structure(A, n) for n in names]
    blocks = {i: jordan_block_module(A, i) for i in range(1, p ** r + 1)}
    pairs = [(i, j) for i in range(1, p ** r + 1) for j in range(1, p ** r + 1)]

    def run_pair(pair):
        i, j = pair
        types = [str(nilpotent_jordan_type(tensor(blocks[i], blocks[j], d).actions[0]))
                 for d in deltas]
        return {"p": p, "r": r, "i": i, "j": j,
                **{n: t for n, t in zip(names, types)},
                "match": len(set(types)) == 1}

    with ThreadPoolExecutor(max_workers=args.jobs) as ex:
        rows = list(ex.map(run_pair, pairs))
    ok = _report_failures(rows)
    emit(rows, args.format, args.out, "witt", ok)
    return ok


def scenario_wang_table(args):
    p = args.p or 2
    F = field(p)
    A = build_truncated_polynomial(F, [p, p])
    fam = PointFamily(A, ext_degree=args.field_ext)
    rows = []
    for name in WANG_STRUCTURES:
        d = named_structure(A, name)
        for pt in fam:
            rows.append({"structure": name, "point": pt.label,
                         "nobility": nobility(d, pt.coords, fam)})
    emit(rows, args.format, args.out, "wang-table", True)
    return True


def scenario_support(args):
    with open(args.module) as fh:
        mdata = json.load(fh)
    algebra = None
    if args.algebra:
        with open(args.algebra) as fh:
            adata = json.load(fh)
        mdata = dict(mdata)
        mdata["algebra"] = adata
    M = rep_from_json(mdata, algebra)
    fam = PointFamily(M.algebra, ext_degree=args.field_ext)
    supp = support(M, fam)
    payload = supp.to_json()
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return True


def scenario_abelian_wild(args):
    cases = [("twodim", {"p": args.p or 3}), ("klein3gen", {}),
             ("mixed", {"p": args.p or 3, "n": args.n or 2, "m": args.m or 2}),
             ("equal2power", {"n": args.n or 2})]
    rows = []
    ok = True
    for case, kw in cases:
        try:
            rep = wild_abelian_isotropy_check(case, **kw)
            rep["match"] = rep.get("hypothesis_met", True)
        except HypothesisNotMet as exc:
            rep = {"case": case, "match": False, "error": str(exc)}
        rows.append(rep)
        ok = ok and rep["match"]
    _report_failures(rows)
    emit(rows, args.format, args.out, "abelian-wild", ok)
    return ok


def scenario_scaling(args):
    rep = index_scaling_check(args.p or 3)
    emit([rep], args.format, args.out, "scaling", rep["match"])
    return rep["match"]


# -- entry point ------------------------------------------------------------------------


def build_parser():
    ap = argparse.ArgumentParser(
        prog="restrep",
        description="exact tensor-product experiments over finite local algebras")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="scenario", required=True)

    def common(sp):
        sp.add_argument("--p", type=int, default=None, help="characteristic")
        sp.add_argument("--r", type=int, default=None)
        sp.add_argument("--n", type=int, default=None)
        sp.add_argument("--m", type=int, default=None)
        sp.add_argument("--field-ext", type=int, default=2, dest="field_ext")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--trials", type=int, default=24)
        sp.add_argument("--format", choices=("table", "csv", "json"), default="table")
        sp.add_argument("--jobs", type=int, default=1)
        sp.add_argument("--out", default=None)

    for name, fn in SCENARIOS.items():
        sp = sub.add_parser(name)
        common(sp)
        if name == "support":
            sp.add_argument("--module", required=True)
            sp.add_argument("--algebra", default=None)
        sp.set_defaults(func=fn)
    return ap


SCENARIOS = {
    "klein": scenario_klein,
    "twodim": scenario_twodim,
    "heisenberg": scenario_heisenberg,
    "witt": scenario_witt,
    "wang-table": scenario_wang_table,
    "support": scenario_support,
    "abelian-wild": scenario_abelian_wild,
    "cgm": scenario_cgm,
    "scaling": scenario_scaling,
}


def main(argv=None):
    level = os.environ.get("RESTREP_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.p is not None and args.scenario == "klein" and args.p != 2:
        ap.error("the klein scenario requires p = 2")
    try:
        ok = args.func(args)
    except HypothesisNotMet as exc:
        sys.stderr.write(f"hypothesis not met: {exc}\n")
        return 1
    except (FileNotFoundError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"{exc}\n")
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
