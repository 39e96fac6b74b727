"""Per-layer spans for the traced run, installed from outside the library.

``Tracer.install()`` replaces the public entry points of every restrep
layer with timing wrappers.  A function is replaced in the module that
defines it and in every restrep module that imported it by name (``from
.modules import tensor`` binds a second reference in klein, heisenberg
and cli); a method is replaced on its class.  ``KleinContext._certify``
is the one private method wrapped: no public call isolates the certify
step.

A span's self time is its duration minus the time of the spans it
encloses.  A call that re-enters the span already open at the top of the
stack (``nullspace`` calling ``rref``, ``inverse`` calling ``solve``) is
folded into it.  Kernel counts are computed from operand shapes, not
measured: a GF(p) product of an r x k by a k x c matrix counts 2rkc
flops, a GF(p^e) product e^2 times that (one float product per pair of
digit planes), and its bytes are the int16 operands plus the result.
"""

import functools
import sys
import time
from collections import defaultdict

# span -> (end-to-end metric it should move, workloads it must fire on)
LAYER_MAP = {
    "fields.tables": ("setup_s; wall_s on klein (sampling extensions)",
                      ("klein-products", "witt-chains", "heisenberg-lab")),
    "matrices.matmul.prime": ("item_p50_ms, item_tail_ms on witt; wall_s on heisenberg",
                              ("witt-chains", "heisenberg-lab")),
    "matrices.matmul.ext": ("item_p50_ms on klein", ("klein-products",)),
    "matrices.elim.prime": ("item_tail_ms on witt", ("witt-chains", "heisenberg-lab")),
    "matrices.elim.ext": ("item_p50_ms, item_tail_ms on klein", ("klein-products",)),
    "matrices.jordan": ("item_p50_ms, item_tail_ms on witt", ("witt-chains",)),
    "matrices.kron": ("item_p50_ms on witt and klein", ("witt-chains", "klein-products")),
    "algebra.build": ("wall_s, peak_rss_mb on heisenberg", ("heisenberg-lab",)),
    "algebra.multiply": ("wall_s, peak_rss_mb on heisenberg", ("heisenberg-lab",)),
    "algebra.morphism": ("wall_s, peak_rss_mb on heisenberg", ("heisenberg-lab",)),
    "hopf.structure": ("setup_s on witt", ("witt-chains",)),
    "modules.tensor": ("item_p50_ms, item_tail_ms on witt and klein",
                       ("witt-chains", "klein-products")),
    "modules.verify": ("item_p50_ms, item_tail_ms on witt", ("witt-chains", "klein-products")),
    "modules.free_rank": ("item_p50_ms on klein", ("klein-products",)),
    "modules.induce": ("wall_s, peak_rss_mb on heisenberg", ("heisenberg-lab",)),
    "modules.hom": ("wall_s on heisenberg; item_p50_ms, item_tail_ms on klein",
                    ("heisenberg-lab", "klein-products")),
    "modules.iso": ("wall_s on heisenberg", ("heisenberg-lab",)),
    "pipoints.family": ("wall_s on heisenberg; item_p50_ms on klein",
                        ("heisenberg-lab", "klein-products")),
    "pipoints.support": ("wall_s on heisenberg; item_p50_ms on klein",
                         ("heisenberg-lab", "klein-products")),
    "pipoints.nobility": ("item_p50_ms on klein", ("klein-products",)),
    "klein.decompose": ("item_p50_ms, item_tail_ms on klein", ("klein-products",)),
    "klein.hom_dims": ("item_p50_ms, item_tail_ms on klein", ("klein-products",)),
    "klein.hom_basis": ("item_p50_ms, item_tail_ms on klein", ("klein-products",)),
    "klein.hom_table": ("item_p50_ms, item_tail_ms on klein", ("klein-products",)),
    "klein.certify": ("item_p50_ms, item_tail_ms on klein", ("klein-products",)),
    "heisenberg.scenario": ("wall_s on heisenberg", ("heisenberg-lab",)),
    "heisenberg.rank_table": ("wall_s on heisenberg", ("heisenberg-lab",)),
    "heisenberg.cgm": ("wall_s on heisenberg", ("heisenberg-lab",)),
    "heisenberg.wild": ("wall_s on heisenberg", ("heisenberg-lab",)),
    "heisenberg.scaling": ("wall_s on heisenberg", ("heisenberg-lab",)),
    "cli.emit": ("wall_s on all", ("klein-products", "witt-chains", "heisenberg-lab")),
}

SPANS = tuple(LAYER_MAP)
BUCKETS = ((64, "le64"), (343, "le343"), (625, "le625"))
BUCKETED = ("matrices.matmul.prime", "matrices.matmul.ext",
            "matrices.elim.prime", "matrices.elim.ext")
MATMULS = ("matrices.matmul.prime", "matrices.matmul.ext")
COUNTERS = ("matrices.jordan.powers", "modules.iso.trials", "pipoints.support.points",
            "klein.certify.trials", "klein.certify.successes")


def bucket(n):
    for limit, label in BUCKETS:
        if n <= limit:
            return label
    return "gt625"


def _field_kind(prefix):
    def name(args):
        return f"{prefix}.prime" if args[0].field.e == 1 else f"{prefix}.ext"
    return name


class Tracer:
    """Span stack, per-span call counts and self times, and named counters."""

    def __init__(self):
        self.stack = []                      # [span, time of enclosed spans]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.top_s = 0.0                     # time covered by outermost spans

    def wrap(self, fn, span, after=None):
        """``fn`` timed under ``span`` (a name, or a function of the arguments)."""
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = span(args) if callable(span) else span
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                else:
                    self.top_s += dur
            if after is not None:
                after(name, parent, args, out)
            return out

        return traced

    # -- computed counts --------------------------------------------------------

    def _matmul(self, name, parent, args, out):
        a, b = args
        r, k = a.a.shape
        c = b.a.shape[1]
        e = a.field.e
        self.counts[f"{name}.gflop"] += 2e-9 * r * k * c * e * e
        self.counts[f"{name}.gbyte"] += 2e-9 * (r * k + k * c + r * c)
        self.counts[f"{name}.{bucket(max(r, k, c))}"] += 1
        if parent == "matrices.jordan":
            self.counts["matrices.jordan.powers"] += 1

    def _elim(self, name, parent, args, out):
        self.counts[f"{name}.{bucket(max(args[0].a.shape))}"] += 1

    def _rank(self, name, parent, args, out):
        self._elim(name, parent, args, out)
        if parent == "klein.certify":
            self.counts["klein.certify.trials"] += 1

    def _jordan(self, name, parent, args, out):
        if parent == "pipoints.support":
            self.counts["pipoints.support.points"] += 1

    def _iso(self, name, parent, args, out):
        self.counts["modules.iso.trials"] += out.trials

    def _certify(self, name, parent, args, out):
        if out:
            self.counts["klein.certify.successes"] += 1

    # -- installation --------------------------------------------------------------

    def install(self):
        from restrep import algebra, cli, fields, heisenberg, hopf, klein, matrices, modules, pipoints

        methods = [
            (fields.FieldSpec, "__init__", "fields.tables", None),
            (matrices.Matrix, "__matmul__", _field_kind("matrices.matmul"), self._matmul),
            (matrices.Matrix, "rank", _field_kind("matrices.elim"), self._rank),
            (matrices.Matrix, "kron", "matrices.kron", None),
            (algebra.AlgebraPresentation, "__init__", "algebra.build", None),
            (algebra.AlgebraPresentation, "multiply", "algebra.multiply", None),
            (algebra.AlgebraMorphism, "__init__", "algebra.morphism", None),
            (algebra.AlgebraMorphism, "invert", "algebra.morphism", None),
            (modules.Representation, "verify_relations", "modules.verify", None),
            (pipoints.PointFamily, "__init__", "pipoints.family", None),
            (pipoints.PiPoint, "__init__", "pipoints.family", None),
            (pipoints.PointFamily, "support", "pipoints.support", None),
            (klein.KleinContext, "decompose", "klein.decompose", None),
            (klein.KleinContext, "basev_hom_dims", "klein.hom_dims", None),
            (klein.KleinContext, "basev_hom_basis", "klein.hom_basis", None),
            (klein.KleinContext, "hom_table", "klein.hom_table", None),
            (klein.KleinContext, "_certify", "klein.certify", self._certify),
            (heisenberg.HeisenbergScenario, "__init__", "heisenberg.scenario", None),
        ]
        methods += [(matrices.Matrix, m, _field_kind("matrices.elim"), self._elim)
                    for m in ("rref", "nullspace", "solve", "inverse")]
        functions = [
            (matrices, "nilpotent_jordan_type", "matrices.jordan", self._jordan),
            (hopf, "named_structure", "hopf.structure", None),
            (hopf, "twist", "hopf.structure", None),
            (modules, "tensor", "modules.tensor", None),
            (modules, "free_rank", "modules.free_rank", None),
            (modules, "induce", "modules.induce", None),
            (modules, "induce_trivial", "modules.induce", None),
            (modules, "hom_space", "modules.hom", None),
            (modules, "hom_from_cyclic", "modules.hom", None),
            (modules, "hom_from_free", "modules.hom", None),
            (modules, "hom_space_from_sum", "modules.hom", None),
            (heisenberg, "hom_from_cyclic_sum_rev", "modules.hom", None),
            (modules, "iso_test", "modules.iso", self._iso),
            (pipoints, "support", "pipoints.support", None),
            (heisenberg, "heis_support_scan", "pipoints.support", None),
            (pipoints, "nobility", "pipoints.nobility", None),
            (heisenberg, "rank_table", "heisenberg.rank_table", None),
            (heisenberg, "cgm_check", "heisenberg.cgm", None),
            (heisenberg, "wild_abelian_isotropy_check", "heisenberg.wild", None),
            (heisenberg, "index_scaling_check", "heisenberg.scaling", None),
            (cli, "emit", "cli.emit", None),
        ]
        for cls, attr, span, after in methods:
            setattr(cls, attr, self.wrap(getattr(cls, attr), span, after))
        restrep = [m for n, m in sys.modules.items() if n == "restrep" or n.startswith("restrep.")]
        for module, attr, span, after in functions:
            original = getattr(module, attr)
            traced = self.wrap(original, span, after)
            for m in restrep:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, traced)

    # -- results -------------------------------------------------------------------------

    def fired(self):
        return {name for name, n in self.calls.items() if n}

    def metrics(self):
        """Every per-layer value, unset ones as 0."""
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        for name in MATMULS:
            gflop = self.counts.get(f"{name}.gflop", 0.0)
            self_s = self.self_s.get(name, 0.0)
            out[f"{name}.gflop"] = gflop
            out[f"{name}.gflop_per_s"] = gflop / self_s if self_s else 0.0
            out[f"{name}.gbyte"] = self.counts.get(f"{name}.gbyte", 0.0)
        for name in BUCKETED:
            for label in [b[1] for b in BUCKETS] + ["gt625"]:
                out[f"{name}.{label}"] = self.counts.get(f"{name}.{label}", 0)
        for name in COUNTERS:
            out[name] = self.counts.get(name, 0)
        trials = out["klein.certify.trials"]
        out["klein.certify.success_ratio"] = (out.pop("klein.certify.successes") / trials
                                              if trials else 0.0)
        return out


def units():
    """(metric, unit, better) for every per-layer metric, in report order."""
    out = []
    for name in SPANS:
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    for name in MATMULS:
        out += [(f"{name}.gflop", "Gflop-computed", "lower"),
                (f"{name}.gflop_per_s", "Gflop/s-computed", "higher"),
                (f"{name}.gbyte", "GB-computed", "lower")]
    for name in BUCKETED:
        out += [(f"{name}.{label}", "count", "lower")
                for label in [b[1] for b in BUCKETS] + ["gt625"]]
    out += [(n, "count", "lower") for n in COUNTERS if n != "klein.certify.successes"]
    out += [("klein.certify.success_ratio", "ratio", "higher"),
            ("trace.overhead_s", "s", "lower"), ("trace.unattributed_s", "s", "lower")]
    return out
