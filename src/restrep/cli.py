"""Command line runner for the scenario suite.

Every scenario is decided by exact arithmetic; there are no tolerance
knobs.  Reports are emitted as an aligned table (default), CSV, or JSON
and are byte-identical across runs with the same seed and configuration.
Exit status: 0 when every check passes, 1 on a check failure (the
failing rows are echoed to stderr) or an unmet hypothesis, 2 on usage
errors and bad input, with one line on stderr.
"""

import argparse
import csv
import io
import json
import logging
import os
import sys

from . import __version__
from .algebra import AlgebraError, build_truncated_polynomial
from .fields import FieldError, field
from .heisenberg import (cgm_check, index_scaling_check, rank_table,
                         wild_abelian_isotropy_check, HypothesisNotMet)
from .hopf import named_structure
from .klein import WANG_STRUCTURES, KleinContext
from .matrices import nilpotent_jordan_type
from .modules import RepresentationError, jordan_block_module, rep_from_json, tensor
from .pipoints import PointError, PointFamily, SupportSet, nobility, support

log = logging.getLogger("restrep")

SUPPORT_POINTS_CAP = 8192   # most points a support scan of P^(k-1)(GF(q)) may visit


def _jsonable(v):
    if isinstance(v, (str, int, float, bool)) or v is None:
        return v
    return str(v)


def emit(rows, fmt, out, scenario, ok, extra=None):
    rows = [{k: _jsonable(v) for k, v in row.items()} for row in rows]
    cols = list(dict.fromkeys(k for row in rows for k in row))
    if fmt == "json":
        payload = {"scenario": scenario, "ok": ok, "rows": rows}
        if extra:
            payload["extra"] = {k: _jsonable(v) if not isinstance(v, dict) else v
                                for k, v in extra.items()}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=cols)
        w.writeheader()
        w.writerows(rows)
        text = buf.getvalue()
    else:
        widths = {c: max(len(c), *(len(str(r.get(c, ""))) for r in rows)) if rows else len(c)
                  for c in cols}
        lines = ["  ".join(c.ljust(widths[c]) for c in cols)]
        for r in rows:
            lines.append("  ".join(str(r.get(c, "")).ljust(widths[c]) for c in cols))
        lines.append(f"[{scenario}] ok={ok}")
        text = "\n".join(lines) + "\n"
    write(text, out)


# -- scenarios ------------------------------------------------------------------------
#
# A scenario computes ``(rows, checks, extra)``: the report rows, the check
# keys, and the extra payload (a dict or None) that emit writes beside the
# rows.  ``run`` decides the verdict from them.  ``support`` returns its
# SupportSet instead, which is written as its own JSON document.


class UsageError(Exception):
    """An option value the scenario cannot take; exit 2 as argparse does."""


def scenario_klein(args):
    ctx = KleinContext(ext_degree=args.field_ext, seed=args.seed, trials=args.trials)
    nmax = args.n or 4
    rows = [ctx.check_basev_formula(name, pt.coords, n, m)
            for name in WANG_STRUCTURES for pt in ctx.family
            for n in range(1, nmax + 1) for m in range(1, nmax + 1)]
    for name in WANG_STRUCTURES:
        for pt in ctx.family:
            if nobility(ctx.structure(name), pt.coords, ctx.family) == "ignoble":
                rep = ctx.check_pb_witness(name, pt.coords)
                rows.append({"structure": name, "point": pt.label, "kind": "pb_witness",
                             "match": rep["witness_found"], **{k: v for k, v in rep.items()
                                                               if k.endswith("zero") or k.endswith("nonzero")}})
    return rows, ("match",), None


TWODIM_CHECKS = ("isotropy_fixed_point", "tensor_square_untwisted_splits",
                 "twisted_square_has_full_block", "sum_lacks_full_block",
                 "hypothesis_met", "pa_violation_certified")
CGM_CHECKS = ("identity_fails", "twisted_matches_expected", "untwisted_matches_mackey",
              "isotropy_argument")


def scenario_twodim(args):
    # at p = 2 the report is a precondition note that carries no check key
    return [wild_abelian_isotropy_check("twodim", p=args.p or 3)], TWODIM_CHECKS, None


def scenario_heisenberg(args):
    p = args.p or 3
    rows = rank_table(p, use_scenarios=True)
    checks = ("rank_match", "rho_derived_match", "tau_derived_match") + CGM_CHECKS
    return rows, checks, {"cgm": cgm_check(p)}


def scenario_cgm(args):
    cert = cgm_check(args.p or 3)
    flat = {k: v for k, v in cert.items() if k != "V1_support_scan"}
    return [flat], CGM_CHECKS, {"certificate": cert}


def scenario_witt(args):
    p = args.p or 3
    r = args.r or 1
    if r not in (1, 2):
        raise UsageError("--r must be 1 or 2")
    F = field(p)
    A = build_truncated_polynomial(F, [p ** r], names=("x",))
    names = ["lie_primitive", "oorttate_Zp"] if r == 1 else \
        ["lie_primitive", "witt_G2", "witt_Zp2"]
    deltas = [named_structure(A, n) for n in names]
    blocks = {i: jordan_block_module(A, i) for i in range(1, p ** r + 1)}
    # J_j⊗J_i is J_i⊗J_j conjugated by the swap (modules.swap_permutation),
    # so row (j, i) is row (i, j) with i and j exchanged
    computed = {}
    rows = []
    for i in range(1, p ** r + 1):
        for j in range(1, p ** r + 1):
            if i > j:
                rows.append(dict(computed.pop((j, i)), i=i, j=j))
                continue
            types = [str(nilpotent_jordan_type(tensor(blocks[i], blocks[j], d).actions[0]))
                     for d in deltas]
            rows.append({"p": p, "r": r, "i": i, "j": j,
                         **{n: t for n, t in zip(names, types)},
                         "match": len(set(types)) == 1})
            if i < j:
                computed[i, j] = rows[-1]
    return rows, ("match",), None


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
    return rows, (), None


def load_json(path):
    """The JSON document in ``path``; RepresentationError, naming the
    file, when it does not parse or holds an integer too long to convert."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:       # JSONDecodeError is a ValueError too
            raise RepresentationError(f"{path}: {exc}") from None


def scenario_support(args):
    mdata = load_json(args.module)
    if args.algebra and type(mdata) is dict:   # rep_from_json refuses any other record
        mdata = dict(mdata, algebra=load_json(args.algebra))
    try:
        M = rep_from_json(mdata)
    except KeyError as exc:
        raise RepresentationError(f"{args.module}: the module JSON has no key {exc}")
    k, q = len(M.algebra.gen_names), field(M.algebra.p, args.field_ext).q
    points = (q ** k - 1) // (q - 1)
    if points > SUPPORT_POINTS_CAP:
        raise PointError(f"the scan of P^{k - 1}(GF({q})) has {points} points, over the cap "
                         f"of {SUPPORT_POINTS_CAP}")
    return support(M, PointFamily(M.algebra, ext_degree=args.field_ext))


def scenario_abelian_wild(args):
    cases = [("twodim", {"p": args.p or 3}), ("klein3gen", {}),
             ("mixed", {"p": args.p or 3, "n": args.n or 2, "m": args.m or 2}),
             ("equal2power", {"n": args.n or 2})]
    rows = []
    for case, kw in cases:
        try:
            rep = wild_abelian_isotropy_check(case, **kw)
            rep["match"] = rep.get("hypothesis_met", True)
        except HypothesisNotMet as exc:
            rep = {"case": case, "match": False, "error": str(exc)}
        rows.append(rep)
    return rows, ("match",), None


def scenario_scaling(args):
    return [index_scaling_check(args.p or 3)], ("match",), None


def write(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run(args):
    """Run one scenario and return its exit status.

    A row, or a dict in the extra payload, fails when one of the check keys
    it holds is false; failing records are echoed to stderr and make the
    status 1.  A bad option value exits 2 like an argparse error; a bad
    input file or a parameter outside the scenario's domain prints one
    line and returns 2.
    """
    try:
        result = args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"{args.scenario}: {exc}\n")
        raise SystemExit(2)
    except HypothesisNotMet as exc:
        sys.stderr.write(f"hypothesis not met: {exc}\n")
        return 1
    except (OSError, FieldError, AlgebraError) as exc:
        sys.stderr.write(f"{args.scenario}: {exc}\n")
        return 2
    if isinstance(result, SupportSet):
        write(json.dumps(result.to_json(), indent=2, sort_keys=True) + "\n", args.out)
        return 0
    rows, checks, extra = result
    records = rows + [v for v in (extra or {}).values() if isinstance(v, dict)]
    failed = [rec for rec in records if any(k in rec and not rec[k] for k in checks)]
    for rec in failed:
        sys.stderr.write(f"check failed: {rec}\n")
    emit(rows, args.format, args.out, args.scenario, not failed, extra=extra)
    return 1 if failed else 0


# -- entry point ------------------------------------------------------------------------


class Parser(argparse.ArgumentParser):
    """A usage error is one line on stderr, led by the scenario name (or
    ``restrep`` before one is chosen), and exit status 2."""

    def parse_known_args(self, args=None, namespace=None):
        # a scenario's parser refuses every flag it does not read, itself,
        # so that the message names the scenario
        ns, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return ns, extra

    def error(self, message):
        self.exit(2, f"{self.prog.split()[-1]}: {message}\n")


def positive(text):
    """An integer flag's value; one below 1 is refused, not read as unset."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {int(text)}")
    return int(text)


# every flag a scenario may take; one left out is None, and the scenario
# that reads it fills in its own default
FLAGS = {
    "p": dict(type=positive, help="characteristic"),
    "r": dict(type=positive),
    "n": dict(type=positive),
    "m": dict(type=positive),
    "field-ext": dict(type=int, default=2),
    "seed": dict(type=int, default=0),
    "trials": dict(type=positive, default=24),
    "format": dict(choices=("table", "csv", "json"), default="table"),
    "module": dict(required=True),
    "algebra": {},
    "out": {},
}


def build_parser():
    ap = Parser(prog="restrep",
                description="exact tensor-product experiments over finite local algebras")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="scenario", required=True)
    for name, (fn, flags) in SCENARIOS.items():
        sp = sub.add_parser(name, allow_abbrev=False)
        for flag in flags + ("out",):
            sp.add_argument(f"--{flag}", **FLAGS[flag])
        sp.set_defaults(func=fn)
    return ap


# each scenario with the flags it reads; every one also takes --out
SCENARIOS = {
    "klein": (scenario_klein, ("n", "field-ext", "seed", "trials", "format")),
    "twodim": (scenario_twodim, ("p", "format")),
    "heisenberg": (scenario_heisenberg, ("p", "format")),
    "witt": (scenario_witt, ("p", "r", "format")),
    "wang-table": (scenario_wang_table, ("p", "field-ext", "format")),
    "support": (scenario_support, ("module", "algebra", "field-ext")),
    "abelian-wild": (scenario_abelian_wild, ("p", "n", "m", "format")),
    "cgm": (scenario_cgm, ("p", "format")),
    "scaling": (scenario_scaling, ("p", "format")),
}


def main(argv=None):
    level = os.environ.get("RESTREP_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
