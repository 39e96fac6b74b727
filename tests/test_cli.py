"""The command line runner: scenarios, formats, exit codes, determinism."""

import argparse
import hashlib
import json
import os
import subprocess
import sys

import pytest

from restrep.cli import FLAGS, SCENARIOS, build_parser, main


def run_cli(args, tmp_path=None):
    """Invoke main() in-process, capturing stdout and stderr; the exit
    status of a usage error (SystemExit) is returned like any other."""
    import io
    from contextlib import redirect_stdout, redirect_stderr
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_witt_scenarios_agree():
    for p, r in ((2, 1), (3, 1), (2, 2)):
        code, out, err = run_cli(["witt", "--p", str(p), "--r", str(r),
                                  "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["ok"] is True
        assert all(row["match"] == "True" or row["match"] is True
                   for row in data["rows"])


@pytest.mark.parametrize("p,r", [(3, 1), (3, 2), (5, 1)])
def test_witt_rows_equal_the_products_computed_directly(p, r):
    # the scenario computes the pairs i <= j and reads (j, i) off (i, j)
    from restrep.algebra import build_truncated_polynomial
    from restrep.fields import field
    from restrep.hopf import named_structure
    from restrep.matrices import nilpotent_jordan_type
    from restrep.modules import jordan_block_module, tensor
    code, out, _ = run_cli(["witt", "--p", str(p), "--r", str(r), "--format", "json"])
    assert code == 0
    A = build_truncated_polynomial(field(p), [p ** r], names=("x",))
    names = ["lie_primitive", "oorttate_Zp"] if r == 1 else \
        ["lie_primitive", "witt_G2", "witt_Zp2"]
    deltas = [named_structure(A, n) for n in names]
    J = {i: jordan_block_module(A, i) for i in range(1, p ** r + 1)}
    expect = []
    for i in J:
        for j in J:
            types = [str(nilpotent_jordan_type(tensor(J[i], J[j], d).actions[0])) for d in deltas]
            expect.append({"p": p, "r": r, "i": i, "j": j, **dict(zip(names, types)),
                           "match": len(set(types)) == 1})
    assert json.loads(out)["rows"] == expect


def test_witt_identity_blocks():
    code, out, _ = run_cli(["witt", "--p", "3", "--r", "1", "--format", "json"])
    data = json.loads(out)
    ones = [r for r in data["rows"] if r["i"] == 1]
    for row in ones:
        # J1 ⊗ J_j ≅ J_j under every structure
        assert row["lie_primitive"] == f"J{row['j']}"


def test_heisenberg_scenario_csv(tmp_path):
    out_file = tmp_path / "rank.csv"
    code, out, err = run_cli(["heisenberg", "--p", "3", "--format", "csv",
                              "--out", str(out_file)])
    assert code == 0
    text = out_file.read_text()
    lines = text.strip().splitlines()
    assert lines[0].startswith("p,r,dim,rank")
    assert len(lines) == 4
    # the r = 2 row carries rank 10, square rank 5, tau 3
    row2 = dict(zip(lines[0].split(","), lines[2].split(",")))
    assert row2["rank"] == "10" and row2["rank_sq"] == "5" and row2["tau"] == "3"


def test_cgm_scenario_json():
    code, out, _ = run_cli(["cgm", "--p", "3", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    cert = data["extra"]["certificate"]
    assert cert["identity_fails"] is True
    assert cert["left_one_blocks"] == 9
    assert cert["right_twice_tau_sum"] == 6


def test_cgm_scenario_beyond_the_published_primes():
    # the closed forms of 2 Σ τ(r) are published for p = 3, 5, 7 only
    code, out, err = run_cli(["cgm", "--p", "11", "--format", "json"])
    assert code == 0 and err == ""
    cert = json.loads(out)["extra"]["certificate"]
    assert cert["right_published"] is None and cert["right_matches_published"] is None
    assert cert["right_matches_derived"] and cert["identity_fails"]


def test_twodim_scenarios():
    code, out, _ = run_cli(["twodim", "--p", "3", "--format", "json"])
    assert code == 0
    assert json.loads(out)["ok"] is True
    code, out, _ = run_cli(["twodim", "--p", "2", "--format", "json"])
    assert code == 0   # precondition branch: reported, exit 0


def test_klein_scenario_small():
    code, out, _ = run_cli(["klein", "--n", "2", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    kinds = set(row.get("kind", "product") for row in data["rows"])
    assert "pb_witness" in kinds
    # byte-identical reruns
    code2, out2, _ = run_cli(["klein", "--n", "2", "--format", "json"])
    assert out2 == out


def test_klein_rejects_odd_p():
    # klein is the p = 2 scenario and has no --p flag
    code, out, err = run_cli(["klein", "--p", "3"])
    assert code == 2
    assert err == "klein: unrecognized arguments: --p 3\n"


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_scenario_takes_exactly_its_flags(name):
    fn, flags = SCENARIOS[name]
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)).choices[name]
    assert {s for a in sub._actions for s in a.option_strings} == \
        {"-h", "--help"} | {f"--{flag}" for flag in flags + ("out",)}
    base = [name] + (["--module", "m.json"] if "module" in flags else [])
    for flag in flags + ("out",):
        value = "json" if flag == "format" else "3"
        args = parser.parse_args(base + [f"--{flag}", value])
        assert args.func is fn
        assert str(getattr(args, flag.replace("-", "_"))) == value
    for flag in set(FLAGS) - set(flags) - {"out"}:
        code, out, err = run_cli(base + [f"--{flag}", "3"])
        assert code == 2 and out == ""
        assert err == f"{name}: unrecognized arguments: --{flag} 3\n"


def test_witt_rejects_r_above_2():
    import io
    from contextlib import redirect_stderr
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(["witt", "--r", "3"])
    assert exc.value.code == 2
    assert err.getvalue() == "witt: --r must be 1 or 2\n"


def test_abelian_wild_scenario():
    code, out, _ = run_cli(["abelian-wild", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert {row["case"] for row in data["rows"]} == {
        "twodim", "klein3gen", "mixed", "equal2power"}


def test_wang_table():
    code, out, _ = run_cli(["wang-table", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "structure,point,nobility"
    assert len(lines) == 1 + 4 * 5


def support_fixture(tmp_path):
    """(module file, algebra file) for V = A/Ay over GF(2)[x,y]/(x^2,y^2)."""
    from restrep.fields import field
    from restrep.algebra import build_truncated_polynomial
    from restrep.modules import induce_trivial
    A = build_truncated_polynomial(field(2), [2, 2])
    V = induce_trivial(A, A.generator("y"), label="V")
    mod_file = tmp_path / "module.json"
    alg_file = tmp_path / "algebra.json"
    data = V.to_json()
    alg = data.pop("algebra")
    mod_file.write_text(json.dumps(data | {"algebra": alg}))
    alg_file.write_text(json.dumps(alg))
    return mod_file, alg_file


def test_support_ingestion(tmp_path):
    mod_file, alg_file = support_fixture(tmp_path)
    code, out, _ = run_cli(["support", "--module", str(mod_file),
                            "--algebra", str(alg_file), "--field-ext", "2"])
    assert code == 0
    supp = json.loads(out)
    assert supp["points"] == ["[0:1]"]
    # missing file: usage-style failure
    code, out, err = run_cli(["support", "--module", str(tmp_path / "nope.json")])
    assert code == 2


# header values of the wrong JSON type: (path in the module record, value,
# the key the one-line error names); none may be truncated or traced back
BAD_HEADERS = {
    "p_str": (("algebra", "field", "p"), "x", "'p'"),
    "p_list": (("algebra", "field", "p"), [2], "'p'"),
    "p_float": (("algebra", "field", "p"), 2.9, "'p'"),
    "e_str": (("algebra", "field", "e"), "two", "'e'"),
    "e_float": (("algebra", "field", "e"), 1.5, "'e'"),
    "generators_str": (("algebra", "generators"), "xy", "'generators'"),
    "bound_float": (("algebra", "generators", 0, "bound"), 2.5, "'bound'"),
    "bound_str": (("algebra", "generators", 0, "bound"), "2", "'bound'"),
    "heisenberg_n_str": (("algebra",), {"kind": "heisenberg", "field": {"p": 3, "e": 1},
                                        "n": "1"}, "'n'"),
    "actions_int": (("actions",), 5, "'actions'"),
    "field_int": (("algebra", "field"), 5, "'field'"),
    "algebra_list": (("algebra",), [], "'algebra'"),
    "module_list": ((), [], "module record"),
    "name_int": (("algebra", "generators", 0, "name"), 7, "'name'"),
    "label_int": (("label",), 7, "'label'"),
    # the size is checked before primality and before p^e is formed
    "p_over_cap": (("algebra", "field"), {"p": 100000000000031, "e": 1}, "p = 100000000000031"),
    "e_over_cap": (("algebra", "field"), {"p": 3, "e": 100000000}, "e = 100000000"),
}


def bad_support_input(tmp_path, case):
    """Arguments for a support run on a module file that cannot be read."""
    mod_file, alg_file = support_fixture(tmp_path)
    data = json.loads(mod_file.read_text())
    if case == "no_algebra":
        del data["algebra"]
        mod_file.write_text(json.dumps(data))
        return ["support", "--module", str(mod_file)]
    if case in ("long_entry", "digit_out_of_range"):
        # over GF(2) an entry is one digit in [0, 2)
        data["actions"][0][0][1] = [1, 1] if case == "long_entry" else [2]
        mod_file.write_text(json.dumps(data))
        return ["support", "--module", str(mod_file)]
    if case == "huge_p":
        # json.dumps cannot write an int this long, so the digits go into the text
        text = json.dumps(data)
        assert '"p": 2' in text
        mod_file.write_text(text.replace('"p": 2', '"p": ' + "7" * 5000, 1))
        return ["support", "--module", str(mod_file)]
    if case in BAD_HEADERS:
        path, value, _ = BAD_HEADERS[case]
        if not path:
            data = value
        else:
            node = data
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        mod_file.write_text(json.dumps(data))
        return ["support", "--module", str(mod_file)]
    # x acts by a 3 x 3 Jordan block, so x^2 = 0 fails
    J3 = [[[0], [1], [0]], [[0], [0], [1]], [[0], [0], [0]]]
    zero = [[[0]] * 3 for _ in range(3)]
    mod_file.write_text(json.dumps(data | {"dim": 3, "actions": [J3, zero]}))
    return ["support", "--module", str(mod_file)]


@pytest.mark.parametrize("args", [
    ["heisenberg", "--p", "4"], ["twodim", "--p", "4"], ["cgm", "--p", "9"],
    ["scaling", "--p", "4"], ["heisenberg", "--p", "2"],
    # a flag the scenario does not read, or none it needs, is a usage error
    ["witt", "--seed", "1"], ["heisenberg", "--trials", "3"], ["klein", "--p", "2"],
    ["support", "--module", "M", "--format", "csv"], ["witt", "--bogus", "1"],
    ["support"],
    # an integer flag below 1 is refused, not read as a flag left out
    ["twodim", "--p", "0"], ["heisenberg", "--p", "0"], ["klein", "--n", "0"],
    ["abelian-wild", "--n", "0"], ["klein", "--n", "-1"], ["klein", "--trials", "0"],
    "support:no_algebra", "support:huge_p", "support:breaks_relation",
    "support:long_entry", "support:digit_out_of_range",
    *(f"support:{case}" for case in BAD_HEADERS),
], ids=lambda a: " ".join(a) if isinstance(a, list) else a)
def test_bad_input_exits_2_with_one_line(args, tmp_path):
    case = args.split(":")[1] if isinstance(args, str) else None
    if case:
        args = bad_support_input(tmp_path, case)
    code, out, err = run_cli(args)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(f"{args[0]}: ")
    assert "Traceback" not in err
    if case in ("long_entry", "digit_out_of_range"):
        assert "actions[0][0][1]" in err
    if case in BAD_HEADERS:
        assert BAD_HEADERS[case][2] in err
    if case == "huge_p":
        assert f"{args[2]}: " in err and "5000 digits" in err


def oversized_module(tmp_path, algebra, k):
    """A module file over ``algebra`` on which k generators act by 0 on a
    1-dimensional space."""
    path = tmp_path / "module.json"
    path.write_text(json.dumps({"algebra": algebra, "dim": 1, "label": "k",
                                "actions": [[[[0]]]] * k}))
    return str(path)


@pytest.mark.parametrize("case", ["20_generators", "heisenberg_n", "negative_n", "points"])
def test_support_refuses_oversized_input_before_building(case, tmp_path, monkeypatch):
    import restrep.cli
    import restrep.modules

    def refuse(*args, **kwargs):
        raise AssertionError("built past a cap")
    monkeypatch.setattr(restrep.cli, "PointFamily", refuse)
    gf2 = {"p": 2, "e": 1}
    if case == "20_generators":
        # dim 2^20; the family would be P^19(GF(4)), about 3.7e11 points
        monkeypatch.setattr(restrep.modules, "build_truncated_polynomial", refuse)
        algebra = {"kind": "truncated_poly", "field": gf2,
                   "generators": [{"name": f"g{i}", "bound": 2} for i in range(20)]}
        args, expect = [], "dimension 1048576 is over the cap of 4096"
    elif case in ("heisenberg_n", "negative_n"):
        # p^(2n+1), and a negative n used to end in a ValueError traceback
        monkeypatch.setattr(restrep.modules, "build_heisenberg", refuse)
        n = 10 ** 9 if case == "heisenberg_n" else -1
        algebra = {"kind": "heisenberg", "field": {"p": 3, "e": 1}, "n": n}
        args, expect = [], f"'n' = {n} is outside [0, 13)"
    else:
        # dim 64, but P^5(GF(2^12)) has about 1.2e18 points
        algebra = {"kind": "truncated_poly", "field": gf2,
                   "generators": [{"name": f"g{i}", "bound": 2} for i in range(6)]}
        args, expect = ["--field-ext", "12"], "P^5(GF(4096)) has"
    k = len(algebra.get("generators", "yzx"))
    code, out, err = run_cli(["support", "--module", oversized_module(tmp_path, algebra, k)] + args)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("support: ") and expect in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-scenario"])
    assert exc.value.code == 2


def test_scaling_scenario():
    code, out, _ = run_cli(["scaling", "--p", "3", "--format", "json"])
    assert code == 0


def test_table_format_footer():
    code, out, _ = run_cli(["witt", "--p", "2", "--r", "1"])
    assert code == 0
    assert out.strip().endswith("[witt] ok=True")


def test_installed_entry_point():
    proc = subprocess.run([sys.executable, "-m", "restrep.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0


# sha256 of each report: a change that moves one byte of a report fails
# here; update a digest only for a deliberate change of that report
GOLDEN = {
    ("klein", "--n", "2", "--format", "json"):
        "d03aabe6d53e5fa32a566ee5433e2b910030186bacef17d731a1e27d7a31dcd0",
    ("twodim", "--p", "3", "--format", "json"):
        "f9517a1636e6ad6ecbb109373b3c559ee960195f5fa9c574ac07fc3da3c350ab",
    ("heisenberg", "--p", "3", "--format", "json"):
        "25ab7ec05ab9e6abd1d50f00f774b1f8e3e5d869cfd17205f6b82a61d3f607ca",
    ("heisenberg", "--p", "5", "--format", "json"):
        "1f70461ac5f1ab6c1c5f2967451497ace0c51e8e498518bdba04903da15a5714",
    ("cgm", "--p", "3", "--format", "json"):
        "307008a5cb4beaa42963de9118ce146198e73a915d47104f25671034025d1734",
    ("cgm", "--p", "5", "--format", "json"):
        "b36bae02b96443eb297fedabfa402199aac10d0de43446784c51926c4f70f9bb",
    ("cgm", "--p", "7", "--format", "json"):
        "0b4b6193c7e16e9876840879202227d94e2c481c3fa395ea428ec22993480214",
    ("witt", "--p", "3", "--r", "1", "--format", "json"):
        "c53c6b2c71b58ae9615a4fecfde371e24409363b241bb49920c4982442f8d927",
    ("witt", "--p", "3", "--r", "2", "--format", "json"):
        "dff033d66fc0cd3895dbf6ea7a93ae343147c9ee5f93ec7a8cc4483d2514437e",
    ("wang-table", "--format", "json"):
        "fa075fb50f76223e17c36eca9d540ab64ddd27cc38860aedbe5a7ad923cdd4ef",
    ("abelian-wild", "--format", "json"):
        "4ef8003c3701ef27cb87c89493368e0e2e3b18029b3f93928e6696edf348c757",
    ("scaling", "--p", "3", "--format", "json"):
        "cf4b4f6b674f42b4125240977dabecec060d972144b86c39ea50864dc8e378f7",
    ("witt", "--p", "3", "--r", "1", "--format", "table"):
        "00c72f8183f21d916da50f02555319d215b1e1a1e6421f8c08aa154ee64313a2",
    ("witt", "--p", "3", "--r", "1", "--format", "csv"):
        "e1f690be78b0fad818c1382a794227607abf5a13c76541949c5ddb63ff8de998",
    ("abelian-wild", "--format", "table"):
        "f27caf683cd6bffc67c4a97df520a02e7ad537b154e6d8e91d15cd07d6710405",
    ("abelian-wild", "--format", "csv"):
        "02c319f4560dc6aed5a23c7767b3ec15abd74bdeec9d899f268c7cda18832496",
    ("twodim", "--p", "3", "--format", "table"):
        "65ffc970e159fefbe5f4627d6e3a809d3185416b14c8bbf4967c098aa20cff03",
    ("heisenberg", "--p", "3", "--format", "csv"):
        "c2fd361bc9d14b11135b32b4261f71ed0cd1eb5dd1765fb9ccdf58f6051c0e19",
    ("twodim", "--p", "5", "--format", "json"):
        "b043e3d88df6145f95831379c1d8362636b04a1f6041a7f5abef37a005ad034e",
    ("abelian-wild", "--p", "5", "--format", "json"):
        "f31cba99c8f729884a683089ab3ec1cd77573df866157e57b5db915adb0b374b",
    ("klein", "--format", "csv"):
        "b7351137f15a37d67c80e4737f1081bb4ad3714490594a26b5a501ba3e49b01f",
    ("wang-table", "--p", "2", "--field-ext", "4", "--format", "json"):
        "4e1922febfb85043279f62b4f4bcb97cd545e18b4d580b499817132da477e59e",
    ("wang-table", "--p", "3", "--field-ext", "2", "--format", "json"):
        "d69f5a10b5235ed4699e8a1b3aa53c870d246d0235913f6926fd58a0d501d481",
    ("wang-table", "--p", "5", "--format", "json"):
        "3e5613a61bf27272f6e3d8617c47b8a6b1615e9ead995efb261544c722c6bd81",
    ("wang-table", "--p", "7", "--format", "json"):
        "bf829c10a7d4e111379daf8557ff11df4cf5a8057e12956d0603be72171c55f9",
    ("klein", "--n", "1", "--field-ext", "4", "--format", "csv"):
        "ca2ef8dac9fb709de4f71d155f391e0919c4d0a12d393a1d052af994c9c0eb77",
}
GOLDEN_SUPPORT = "b2dfbc84ae6b045ecd6ce70c88b5bc23a9694520592256db98aa279a05b4f6db"


@pytest.mark.parametrize("args", list(GOLDEN), ids=" ".join)
def test_golden_report(args):
    code, out, _ = run_cli(list(args))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[args]


def test_golden_support(tmp_path):
    mod_file, alg_file = support_fixture(tmp_path)
    code, out, _ = run_cli(["support", "--module", str(mod_file),
                            "--algebra", str(alg_file), "--field-ext", "2"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SUPPORT
