"""The benchmark workloads: set-up, items in closed-loop order, verdicts.

A workload object is created in a fresh interpreter (see ``worker.py``).
``setup(seed)`` builds what the items share; ``items()`` lists
``(key, call)`` pairs run one after another, each call returning the
report rows it produced.  ``verdict(key, rows)`` is true when every
verdict flag of those rows holds.  Items call the library through module
attributes (``modules.tensor``, not a name bound here), so the traced
run sees every call.
"""

import json
import random
from pathlib import Path

PINS = Path(__file__).resolve().parent / "pins.json"
DEFAULT_SEED = 0

WITT_P, WITT_R = 5, 2
WITT_SIZE = WITT_P ** WITT_R
WITT_STRUCTURES = ("lie_primitive", "witt_G2", "witt_Zp2")
WITT_SAMPLE = 41     # pairs per report, (25, 25) included; 3 items each


class KleinProducts:
    """The default ``restrep klein`` scenario: p = 2 over GF(4)."""

    name = "klein-products"

    def setup(self, seed):
        from restrep.klein import WANG_STRUCTURES, KleinContext
        self.structures = WANG_STRUCTURES
        self.ctx = KleinContext(ext_degree=2, seed=seed, trials=24)
        for name in WANG_STRUCTURES:
            self.ctx.structure(name)

    def items(self):
        ctx = self.ctx
        out = []
        for name in self.structures:
            for pt in ctx.family:
                for n in range(1, 5):
                    for m in range(1, 5):
                        out.append((f"{name}|{pt.label}|{n}|{m}",
                                    lambda a=(name, pt.coords, n, m):
                                    [ctx.check_basev_formula(*a)]))
        out.append(("pb_witness", self._witnesses))
        return out

    def _witnesses(self):
        from restrep import pipoints
        ctx = self.ctx
        rows = []
        for name in self.structures:
            for pt in ctx.family:
                if pipoints.nobility(ctx.structure(name), pt.coords, ctx.family) == "ignoble":
                    rep = ctx.check_pb_witness(name, pt.coords)
                    rows.append({"structure": name, "point": pt.label, "kind": "pb_witness",
                                 "match": rep["witness_found"],
                                 **{k: v for k, v in rep.items()
                                    if k.endswith("zero") or k.endswith("nonzero")}})
        return rows

    def verdict(self, key, rows):
        return bool(rows) and all(row["match"] is True for row in rows)


def witt_pairs(seed, order):
    """A seeded sample of (i, j) pairs that costs the same for every seed.

    ``order`` lists every pair by its measured time on the pinned code
    (``pins.json``, written by ``pin.py``).  Keeping the first of (i, j)
    and (j, i) leaves the unordered pairs in cost order.  The sample takes
    WITT_SAMPLE - 1 evenly spaced ones, each in the orientation the seed
    picks, plus (25, 25), the largest action.  Drawing different pairs
    per seed moved ``item_p50_ms`` by up to 35% on a shared 2-vCPU VM,
    whose timing noise is too large to rank pairs finely enough.
    """
    rng = random.Random(seed)
    top = (WITT_SIZE, WITT_SIZE)
    unordered = list(dict.fromkeys(tuple(sorted(p)) for p in order if p != top))
    step = len(unordered) / (WITT_SAMPLE - 1)
    out = []
    for k in range(WITT_SAMPLE - 1):
        i, j = unordered[int((k + 0.5) * step)]
        out.append((i, j) if rng.random() < 0.5 else (j, i))
    return out + [top]


class WittChains:
    """J_i ⊗ J_j over k[x]/x^25 (p = 5) under the three comultiplications.

    One item is one pair under one structure: the tensor product and the
    Jordan type of its action.  A pair's three Jordan types must agree.
    The three cost about the same, while neighbouring pairs of the sample
    differ by about 15%.  With 41 pairs (123 items) the median and the
    tail (10 items beyond) each fall on the middle item of one pair, not
    between two pairs.
    """

    name = "witt-chains"

    def setup(self, seed, order=None):
        from restrep import algebra, fields, hopf, modules
        F = fields.field(WITT_P)
        A = algebra.build_truncated_polynomial(F, [WITT_SIZE], names=("x",))
        self.deltas = [hopf.named_structure(A, n) for n in WITT_STRUCTURES]
        self.blocks = {i: modules.jordan_block_module(A, i) for i in range(1, WITT_SIZE + 1)}
        if order is None:
            pins = json.loads(PINS.read_text())[self.name]
            order = [tuple(map(int, key.split(","))) for key in pins["order"]]
        self.pairs = witt_pairs(seed, order)
        self.seed = seed
        self.types = {}

    def items(self):
        """Every pair under every structure, in an order shuffled by the seed.

        Run in cost order, the items near the median would all fall in one
        second or two of the report, and one slow spell of the machine
        would move the median; shuffled, they are spread over the report.
        """
        out = [(f"{i},{j}|{d.name}", lambda i=i, j=j, d=d: [self._item(i, j, d)])
               for i, j in self.pairs for d in self.deltas]
        random.Random(self.seed).shuffle(out)
        return out

    def _item(self, i, j, delta):
        from restrep import matrices, modules
        T = modules.tensor(self.blocks[i], self.blocks[j], delta)
        return {"p": WITT_P, "r": WITT_R, "i": i, "j": j, "structure": delta.name,
                "jordan_type": str(matrices.nilpotent_jordan_type(T.actions[0]))}

    def verdict(self, key, rows):
        """True while the pair's Jordan types agree across the structures run so far."""
        seen = self.types.setdefault(key.split("|")[0], set())
        seen.update(row["jordan_type"] for row in rows)
        return len(seen) == 1


HEIS_CHECKS = {
    "rank_table": ("rank_match", "rho_derived_match", "tau_derived_match"),
    "cgm": ("identity_fails", "twisted_matches_expected", "untwisted_matches_mackey",
            "isotropy_argument"),
    "twodim": ("isotropy_fixed_point", "tensor_square_untwisted_splits",
               "twisted_square_has_full_block", "sum_lacks_full_block",
               "hypothesis_met", "pa_violation_certified"),
    "scaling": ("match",),
}


class HeisenbergLab:
    """The odd-p laboratory at its top end: rank table, CGM, twodim, scaling."""

    name = "heisenberg-lab"

    def setup(self, seed):
        from restrep import fields
        fields.field(7)
        fields.field(5)

    def items(self):
        from restrep import heisenberg as h
        return [
            ("rank_table", lambda: h.rank_table(7, use_scenarios=True)),
            ("cgm", lambda: [h.cgm_check(7)]),
            ("twodim", lambda: [h.wild_abelian_isotropy_check("twodim", p=7)]),
            ("scaling", lambda: [h.index_scaling_check(5)]),
        ]

    def verdict(self, key, rows):
        return bool(rows) and all(row[k] is True for row in rows for k in HEIS_CHECKS[key])


WORKLOADS = {w.name: w for w in (KleinProducts, WittChains, HeisenbergLab)}
