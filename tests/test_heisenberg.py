"""Explicit block matrices, rank tables, count certificates, wild cases."""

import numpy as np
import pytest

from restrep.algebra import AlgebraMorphism
from restrep.fields import FieldError, field
from restrep.heisenberg import (HeisenbergScenario, HypothesisNotMet,
                                block_F, block_L, block_M, block_O, cgm_check,
                                expected_L1_partition,
                                expected_mackey_partition, heis_support_scan,
                                index_scaling_check, rank_formula,
                                rank_table, rho_derived, rho_published,
                                tau_derived, tau_published,
                                wild_abelian_isotropy_check)
from restrep.matrices import nilpotent_jordan_type
from testkit import block_E


def test_block_shapes_and_entries():
    F = field(3)
    M = block_M(F)
    # block (0,1) = N, block (1,2) = 2N
    assert M.a[0, 4] == 1 and M.a[1, 5] == 1
    assert M.a[3, 7] == 2 and M.a[4, 8] == 2
    assert not M.a[:, :3].any()           # first block column empty
    assert not M.a[6:, :].any()           # last block row empty
    E = block_E(F)
    assert E.a[0, 2] == 1 and E.a.sum() == 1
    Fb = block_F(F)
    assert Fb.a[6, 2] == 1 and Fb.a.sum() == 1
    L2 = block_L(F, 2)
    assert np.array_equal(L2.a[:9, 9:], np.eye(9, dtype=np.int16))
    O2 = block_O(F, 2)
    assert np.array_equal(O2.a[:9, :9], Fb.a) and np.array_equal(O2.a[9:, 9:], Fb.a)


@pytest.mark.parametrize("p", [3, 5])
def test_scenario_cross_validation(p):
    # the constructor diffs generic induction against the explicit blocks
    for r in range(1, p + 1):
        sc = HeisenbergScenario(p, r)
        A = sc.algebra
        assert sc.V.dim == r * p * p
        assert sc.V.act(A.generator("x")) == sc.L
        assert sc.V.act(sc.yz_term) == sc.O


def test_scenario_rejects_bad_parameters():
    with pytest.raises(Exception):
        HeisenbergScenario(2, 1)
    with pytest.raises(Exception):
        HeisenbergScenario(3, 4)


def test_automorphism_inverse_shape():
    sc = HeisenbergScenario(3, 1)
    A = sc.algebra
    xi = A.gen_names.index("x")
    phi = AlgebraMorphism.from_gen_map(A, {"x": A.generator("x") + sc.yz_term})
    assert phi.invert().images[xi] == A.generator("x") - sc.yz_term


@pytest.mark.parametrize("p", [3, 5])
def test_rank_table_reads_the_same_ranks_on_both_paths(p):
    # rank(X²) from one product without the scenarios, from X's chain with them
    assert rank_table(p) == rank_table(p, use_scenarios=True)


def test_rank_table_p3_fully_published():
    rows = rank_table(3)
    for row in rows:
        assert row["rank_match"], row
        assert row["rho_published_match"], row
        assert row["tau_published_match"], row
        assert row["rho_derived_match"] and row["tau_derived_match"], row
    assert [row["rank"] for row in rows] == [5, 10, 18]
    assert [row["rank_sq"] for row in rows] == [1, 5, 9]
    assert [row["tau"] for row in rows] == [0, 3, 0]


@pytest.mark.parametrize("p", [5, 7])
def test_rank_table_rank_and_derived_square(p):
    rows = rank_table(p)
    for row in rows:
        r = row["r"]
        assert row["rank_match"], row
        assert row["nullity"] == row["nullity_expected"], row
        assert row["rho_derived_match"], row
        assert row["tau_derived_match"], row
        # the published square-rank table only holds at r in {1, 2, p}
        if r in (1, 2, p):
            assert row["rho_published_match"] and row["tau_published_match"], row
        else:
            assert not row["rho_published_match"], row


def test_rank_formula_values():
    assert rank_formula(3, 1) == 5          # (p-1)^2 + 1
    assert rank_formula(3, 2) == 10         # rp^2 - 2rp + r^2
    assert rho_published(3, 2) == 5
    assert rho_published(5, 3) == 42        # as published
    assert rho_derived(5, 3) == 35          # as computed
    assert tau_published(5, 3) == 9 and tau_derived(5, 3) == 2


def test_restriction_partitions():
    sc = HeisenbergScenario(3, 1)
    assert sc.twisted_restriction() == expected_L1_partition(3)
    assert sc.untwisted_restriction() == expected_mackey_partition(3)
    sc5 = HeisenbergScenario(5, 1)
    assert str(sc5.twisted_restriction()) == "J5+2J4+2J3+3J2"
    assert str(sc5.untwisted_restriction()) == "J5+2J4+2J3+2J2+2J1"


@pytest.mark.parametrize("p", [3, 5])
def test_cgm_certificate(p):
    rep = cgm_check(p)
    assert rep["identity_fails"]
    assert rep["left_one_blocks"] == 9 + 4 * (p - 3)
    assert rep["right_twice_tau_sum"] == 4 * p - 6
    assert rep["twisted_matches_expected"]
    assert rep["untwisted_matches_mackey"]
    assert rep["twisted_has_2_block"] and rep["twisted_not_free"]
    assert rep["isotropy_argument"]
    if p == 3:
        assert rep["direct_left_p3"] == rep["left_one_blocks"]
        assert rep["right_matches_published"]
    else:
        assert not rep["right_matches_published"]
    assert rep["right_matches_derived"]


def test_support_scan_x_line():
    scan = heis_support_scan(3)
    assert scan["support_is_x_line"]
    assert scan["z_direction_free"] and scan["y_direction_free"]
    assert scan["detected"] == ["[0:0:1]"]


def test_index_scaling_consistency():
    rep = index_scaling_check(3)
    assert rep["match"]
    assert rep["restriction"] == "9J3+18J2+18J1"


def test_wild_twodim():
    rep = wild_abelian_isotropy_check("twodim", p=3)
    assert rep["isotropy_fixed_point"]
    assert rep["max_part"] == 2 == rep["max_part_expected"]
    assert rep["tensor_square_untwisted_splits"]
    assert rep["twisted_square_has_full_block"] and rep["sum_lacks_full_block"]
    assert rep["pa_violation_certified"]
    rep2 = wild_abelian_isotropy_check("twodim", p=2)
    assert rep2["applicable"] is False


def test_wild_klein3gen():
    rep = wild_abelian_isotropy_check("klein3gen")
    assert rep["isotropy_fixed_point"] and rep["has_J2"]
    assert rep["restriction"] == "J2+2J1"


def test_wild_mixed():
    rep = wild_abelian_isotropy_check("mixed", p=3, n=2, m=2)
    assert rep["isotropy_fixed_point"] and rep["intermediate_part"]
    assert rep["restriction"] == "9J2+9J1"
    # x ↦ x + y² does not even define an automorphism for p odd, m > n
    with pytest.raises(HypothesisNotMet):
        wild_abelian_isotropy_check("mixed", p=3, n=1, m=2)
    # at p = 2 with adjacent bounds it defines one but the twist restricts freely
    with pytest.raises(HypothesisNotMet):
        wild_abelian_isotropy_check("mixed", p=2, n=1, m=2)


def test_wild_equal2power():
    rep = wild_abelian_isotropy_check("equal2power", n=2)
    assert rep["exactly_two_J2"] and rep["rest_are_J1"]
    assert rep["restriction"] == "2J2"
    rep3 = wild_abelian_isotropy_check("equal2power", n=3)
    assert rep3["exactly_two_J2"] and rep3["rest_are_J1"]
    assert rep3["restriction"] == "2J2+4J1"
    with pytest.raises(HypothesisNotMet):
        wild_abelian_isotropy_check("equal2power", n=1)


def test_wild_zero_is_an_error_not_a_default():
    with pytest.raises(HypothesisNotMet):
        wild_abelian_isotropy_check("equal2power", n=0)
    with pytest.raises(FieldError):
        wild_abelian_isotropy_check("twodim", p=0)
    with pytest.raises(FieldError):
        wild_abelian_isotropy_check("mixed", p=0, n=0, m=0)


def test_unknown_case():
    with pytest.raises(Exception):
        wild_abelian_isotropy_check("nonsense")


def test_z_direction_restricts_freely_on_all_induced_modules():
    # the central direction never supports V_r: its action is free
    for r in (1, 2, 3):
        sc = HeisenbergScenario(3, r)
        jt = nilpotent_jordan_type(sc.V.act(sc.algebra.generator("z")))
        assert jt.is_free(3), (r, str(jt))
