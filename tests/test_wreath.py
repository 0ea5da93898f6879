"""The wreath model, isomorphism screen, and section search."""

import pytest

from bfl.catalog import construct
from bfl.smallgroup import SmallGroup, normal_subgroups, quotient
from bfl.wreath import (build_wreath, iso_to_wreath, wreath_section_detect,
                        reconstruct_section, SectionVerdict)


def small(name):
    return SmallGroup.from_group(construct(name), name=name)


def test_model_orders_and_invariants():
    # the constructor itself asserts order, center, and derived subgroup
    assert build_wreath(2).order == 8
    assert build_wreath(3).order == 81
    assert build_wreath(5).order == 15625
    assert build_wreath(5) is build_wreath(5)  # built and checked once per p


def test_build_rejects_other_primes():
    with pytest.raises(ValueError):
        build_wreath(7)
    with pytest.raises(ValueError):
        build_wreath(4)


def test_model_two_is_dihedral():
    W = build_wreath(2).small()
    assert W.order_histogram() == {1: 1, 2: 5, 4: 2}


def test_iso_accepts_the_models():
    assert iso_to_wreath(build_wreath(2).group, 2)
    assert iso_to_wreath(build_wreath(3).group, 3)


def test_iso_accepts_the_model_p5():
    assert iso_to_wreath(build_wreath(5).group, 5)


def test_iso_accepts_dihedral_eight():
    assert iso_to_wreath(small("dihedral:8"), 2)


def test_iso_rejects_lookalikes():
    assert not iso_to_wreath(small("cyclic:8"), 2)
    assert not iso_to_wreath(small("q8"), 2)
    assert not iso_to_wreath(small("cyclic:9"), 3)


def test_iso_rejects_order81_nonmodels():
    from bfl.elements import Permutation

    def elem_abelian(k, copies):
        gens = [Permutation.from_cycles(3 * copies,
                                        [tuple(range(3 * i, 3 * i + 3))])
                for i in range(copies)]
        return SmallGroup.generate(gens, Permutation.identity(3 * copies))

    assert not iso_to_wreath(elem_abelian(3, 4), 3)  # exponent 3, abelian
    z9 = Permutation.from_cycles(18, [tuple(range(9))])
    z9b = Permutation.from_cycles(18, [tuple(range(9, 18))])
    zz = SmallGroup.generate([z9, z9b], Permutation.identity(18))
    assert zz.order == 81
    assert not iso_to_wreath(zz, 3)  # abelian of the right order and exponent


def test_detect_dihedral_quotient_tier():
    d8 = small("dihedral:8")
    v = wreath_section_detect(d8, 2)
    assert v.found and v.tier == "quotient"
    assert v.witness["normal"] == [0]
    assert reconstruct_section(d8, v.witness, 2)


def test_detect_dihedral_full_tier():
    d8 = small("dihedral:8")
    v = wreath_section_detect(d8, 2, tier="full")
    assert v.found and v.tier == "full"
    assert reconstruct_section(d8, v.witness, 2)


def test_detect_quaternion_none():
    q8 = small("q8")
    assert not wreath_section_detect(q8, 2).found
    v = wreath_section_detect(q8, 2, tier="full")
    assert not v.found and v.tier == "full"


def test_detect_model3_as_its_own_quotient():
    w3 = build_wreath(3).small()
    v = wreath_section_detect(w3, 3)
    assert v.found and v.tier == "quotient"
    assert v.witness["normal"] == [0]
    assert reconstruct_section(w3, v.witness, 3)


def test_detect_dihedral16_proper_quotient():
    d16 = small("dihedral:16")
    v = wreath_section_detect(d16, 2)
    assert v.found and v.tier == "quotient"
    assert len(v.witness["normal"]) == 2  # kill the center, keep a D8
    assert reconstruct_section(d16, v.witness, 2)
    assert wreath_section_detect(d16, 2, tier="full").found


def test_detect_cyclic_none_both_tiers():
    z16 = small("cyclic:16")
    assert not wreath_section_detect(z16, 2).found
    assert not wreath_section_detect(z16, 2, tier="full").found


def test_full_tier_witness_on_proper_subgroup():
    # D8 x Z2: the section sits inside a proper subgroup after one quotient
    from bfl.elements import Permutation
    r = Permutation.from_cycles(6, [(0, 1, 2, 3)])
    s = Permutation.from_cycles(6, [(0, 2)])
    z = Permutation.from_cycles(6, [(4, 5)])
    G = SmallGroup.generate([r, s, z], Permutation.identity(6))
    assert G.order == 16
    v = wreath_section_detect(G, 2, tier="full")
    assert v.found
    assert len(v.witness["subgroup"]) == 8  # found inside a proper subgroup
    assert reconstruct_section(G, v.witness, 2)


def test_caps_give_indeterminate():
    z5 = small("cyclic:5")
    v = wreath_section_detect(z5, 5, tier="full")
    assert v.tier == "indeterminate" and not v.found
    assert "p=2,3" in v.note


def test_quotient_cap_indeterminate():
    from bfl.elements import Permutation
    gens = [Permutation.from_cycles(24, [(2 * i, 2 * i + 1)])
            for i in range(12)]
    big = SmallGroup.generate(gens, Permutation.identity(24), cap=8192)
    assert big.order == 4096
    v = wreath_section_detect(big, 2)
    assert v.tier == "indeterminate"
    assert "exceeds the quotient-tier cap" in v.note


def test_full_tier_cap_indeterminate():
    from bfl.elements import Permutation
    gens = [Permutation.from_cycles(21, [(3 * i, 3 * i + 1, 3 * i + 2)])
            for i in range(7)]
    big = SmallGroup.generate(gens, Permutation.identity(21), cap=8192)
    assert big.order == 2187
    v = wreath_section_detect(big, 3, tier="full")
    assert v.tier == "indeterminate"
    assert "exceeds the full-tier cap" in v.note


def test_input_validation():
    with pytest.raises(ValueError):
        wreath_section_detect(small("dihedral:8"), 2, tier="middle")
    with pytest.raises(ValueError):
        wreath_section_detect(small("sym:3"), 2)  # not a 2-group
    with pytest.raises(ValueError):
        SectionVerdict(True, "quotient")  # found needs a witness
