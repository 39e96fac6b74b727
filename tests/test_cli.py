"""The command line runner: scenarios, formats, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from restrep.cli import main


def run_cli(args, tmp_path=None):
    """Invoke main() in-process, capturing stdout."""
    import io
    from contextlib import redirect_stdout, redirect_stderr
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
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
    with pytest.raises(SystemExit) as exc:
        run_cli(["klein", "--p", "3"])
    assert exc.value.code == 2


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
    # x acts by a 3 x 3 Jordan block, so x^2 = 0 fails
    J3 = [[[0], [1], [0]], [[0], [0], [1]], [[0], [0], [0]]]
    zero = [[[0]] * 3 for _ in range(3)]
    mod_file.write_text(json.dumps(data | {"dim": 3, "actions": [J3, zero]}))
    return ["support", "--module", str(mod_file)]


@pytest.mark.parametrize("args", [
    ["heisenberg", "--p", "4"], ["twodim", "--p", "4"], ["cgm", "--p", "9"],
    ["scaling", "--p", "4"], ["heisenberg", "--p", "2"],
    "support:no_algebra", "support:breaks_relation",
    "support:long_entry", "support:digit_out_of_range",
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
    ("cgm", "--p", "3", "--format", "json"):
        "307008a5cb4beaa42963de9118ce146198e73a915d47104f25671034025d1734",
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
