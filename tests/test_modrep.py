"""Module actions: dimensions, irreducibility, and the generator checks."""

import pytest
from hypothesis import given, settings, strategies as st

from bfl import modrep
from bfl.battery import (standard_battery, _reflections, _rot_refl,
                         _quaternion, _heis, _wreath3, _block_diag, _d8_perm)
from bfl.elements import SquareMatrix, element_order, identity_like
from bfl.fields import GF
from bfl.groups import Group
from bfl.modrep import (ModuleAction, fixed_dim, commutator_dim, spin,
                        projective_points, is_irreducible, commutator_profile,
                        lemma21_check, cor22_check)
from bfl.smallgroup import SmallGroup
from bfl.wreath import wreath_section_detect

F3, F4, F5 = GF(3), GF(4), GF(5)


def test_action_validation():
    with pytest.raises(ValueError):
        ModuleAction([])
    with pytest.raises(ValueError):
        ModuleAction([SquareMatrix.identity(F3, 2), SquareMatrix.identity(F5, 2)])
    with pytest.raises(ValueError):
        ModuleAction([SquareMatrix(F3, [[1, 0], [2, 0]])])  # singular


def table_reference(P, action):
    """(relations hold, derived subgroup acts trivially, generator orders)
    from P's multiplication table, apart from the checks' own screens: a
    SmallGroup of P's image generators, a matrix per element walked along
    its breadth-first derivation tree (element g x, met from x, gets
    M_g rep(x)), and each element checked against right multiplication by
    every generator.  The derived subgroup is the normal closure of the
    generators' commutators; it is None when the relations fail."""
    S = SmallGroup.generate(P.image_gens, P.chain.identity)
    index = {x: i for i, x in enumerate(S.elements)}
    gens = [index[g] for g in P.image_gens]
    orders = [len(S.closure([g])) for g in gens]
    if len(gens) != len(action.mats):
        return False, None, orders
    pairs = list(zip(gens, action.mats))
    ident = SquareMatrix.identity(action.field, action.dim)
    rep = [ident] + [None] * (S.order - 1)
    for parent in range(S.order):
        for g, M in pairs:
            i = S.mul(g, parent)
            if rep[i] is None:
                rep[i] = M * rep[parent]
    if any(rep[S.mul(i, g)] != rep[i] * M
           for g, M in pairs for i in range(S.order)):
        return False, None, orders
    mul, inv = S.mul, S.inv
    derived = S.normal_closure({mul(mul(inv(a), inv(b)), mul(a, b))
                                for a in gens for b in gens})
    return True, all(rep[d] == ident for d in derived), orders


BREAKER = [SquareMatrix(F3, [[1, 1], [0, 1]]),  # order 3, not 2
           SquareMatrix(F3, [[0, 1], [1, 0]])]


def test_relations_accept_factor_maps():
    P = _d8_perm()
    act = ModuleAction([SquareMatrix(F3, [[2]]), SquareMatrix(F3, [[1]])])
    assert modrep._broken_relations(P, act) is None
    assert table_reference(P, act)[:2] == (True, True)


def test_relations_name_the_breaking_generator():
    P = _d8_perm()  # generated by two involutions
    v = lemma21_check(P, ModuleAction(BREAKER), 2)
    assert v.status == "skipped"
    assert v.notes == ["matrices do not satisfy the group's relations "
                       "(generator 0)"]


def test_relations_name_a_later_breaking_generator():
    # the swap alone is an involution, as the first generator is; the
    # order-3 matrix for the second breaks s2^2 = 1
    P = _d8_perm()
    act = ModuleAction(BREAKER[::-1])
    assert modrep._broken_relations(P, act) == (
        "matrices do not satisfy the group's relations (generator 1)")
    assert table_reference(P, act)[0] is False


def test_relations_reject_count_mismatch():
    v = cor22_check(_d8_perm(), ModuleAction([SquareMatrix(F3, [[2]])]), 2)
    assert v.status == "skipped"
    assert v.notes == ["action has 1 matrices but the group has 2 "
                       "generators"]


def test_screens_agree_with_a_table_reference():
    # on every battery case and both relation breakers: the diagonal-order
    # relations check, the commuting screen wherever the relations hold,
    # and the generator orders
    cases = [(c["group"], c["action"]) for c in standard_battery()]
    cases += [(_d8_perm(), ModuleAction(BREAKER)),
              (_d8_perm(), ModuleAction(BREAKER[::-1]))]
    seen = set()
    for P, act in cases:
        holds, trivial, orders = table_reference(P, act)
        assert (modrep._broken_relations(P, act) is None) == holds, P.name
        commute = all(a * b == b * a for a in act.mats for b in act.mats)
        assert not holds or commute == trivial, P.name
        assert orders == list(map(element_order, P.gens)), P.name
        seen.add((holds, trivial))
    assert seen == {(True, True), (True, False), (False, None)}


GL2_3 = [m for m in (SquareMatrix(F3, [[a, b], [c, d]])
                     for a in range(3) for b in range(3)
                     for c in range(3) for d in range(3)) if m.rank() == 2]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(GL2_3), st.sampled_from(GL2_3))
def test_relations_check_matches_the_table_on_any_pair(m0, m1):
    # any two matrices of GL(2,3) for D8's two involutions: the verdict is
    # the table reference's, and a failure names the first prefix of the
    # generators whose own reference fails
    P, act = _d8_perm(), ModuleAction([m0, m1])
    got = modrep._broken_relations(P, act)
    holds = table_reference(P, act)[0]
    assert (got is None) == holds
    if not holds:
        k = next(k for k in range(2)
                 if not table_reference(Group(P.gens[:k + 1]),
                                        ModuleAction(act.mats[:k + 1]))[0])
        assert got == ("matrices do not satisfy the group's relations "
                       "(generator %d)" % k)


def test_fixed_and_commutator_dims():
    refl = SquareMatrix.diagonal(F3, [1, 2])
    assert fixed_dim(refl) == 1 and commutator_dim(refl) == 1
    rot = SquareMatrix(F3, [[0, 2], [1, 0]])
    assert fixed_dim(rot) == 0 and commutator_dim(rot) == 2
    ident = SquareMatrix.identity(F5, 3)
    assert fixed_dim(ident) == 3 and commutator_dim(ident) == 0
    shift = _heis(F4)[1]
    assert fixed_dim(shift) == 1 and commutator_dim(shift) == 2


@given(st.sampled_from([2, 3, 4, 5]), st.integers(1, 4), st.data())
def test_rank_nullity_split(q, n, data):
    F = GF(q)
    rows = [[data.draw(st.integers(0, q - 1)) for _ in range(n)]
            for _ in range(n)]
    M = SquareMatrix(F, rows)
    assert fixed_dim(M) + commutator_dim(M) == n


def test_projective_point_count():
    pts = list(projective_points(F4, 3))
    assert len(pts) == (4 ** 3 - 1) // 3
    assert len(set(pts)) == len(pts)
    pts = list(projective_points(F3, 2))
    assert pts == [(0, 1), (1, 0), (1, 1), (1, 2)]


def test_spin_is_invariant():
    act = ModuleAction(_heis(F4))
    basis = spin(act, (1, 0, 0))
    assert len(basis) == 3
    act2 = ModuleAction([SquareMatrix.diagonal(F3, [1, 2]),
                         SquareMatrix.diagonal(F3, [2, 1])])
    line = spin(act2, (1, 0))
    assert len(line) == 1  # e1 spans an invariant line
    # membership: every image of the basis row reduces to nothing new
    from bfl.modrep import _insert
    for M in act2.mats:
        probe = dict(line)
        assert _insert(M.apply(line[0]), probe, F3) is None


def test_irreducibility_verdicts():
    assert is_irreducible(ModuleAction(_reflections(F3))) is True
    assert is_irreducible(ModuleAction(_heis(F4))) is True
    assert is_irreducible(ModuleAction(_wreath3(F4))) is True
    split = ModuleAction([SquareMatrix.diagonal(F3, [1, 2]),
                          SquareMatrix.diagonal(F3, [2, 1])])
    assert is_irreducible(split) is False
    doubled = ModuleAction(_block_diag(_reflections(F3), 2))
    assert is_irreducible(doubled) is False
    assert is_irreducible(ModuleAction([SquareMatrix(F3, [[2]])])) is True
    wide = ModuleAction([SquareMatrix.identity(GF(9), 7)])
    assert is_irreducible(wide) is None  # line count beyond the scan cap


def test_commutator_profile_values():
    dims, joint = commutator_profile(ModuleAction(_reflections(F3)))
    assert dims == [1, 1] and joint == 2
    dims, joint = commutator_profile(ModuleAction(_heis(F4)))
    assert dims == [2, 2] and joint == 3
    dims, joint = commutator_profile(ModuleAction(_wreath3(F4)))
    assert dims == [1, 2] and joint == 3


def test_battery_statuses_and_reasons():
    cases = standard_battery()
    assert len(cases) >= 20
    assert {c["p"] for c in cases} == {2, 3}
    assert any("heis-gf4" == c["name"] for c in cases)
    assert any("d8-gf3-reflections" == c["name"] for c in cases)
    for c in cases:
        lv = lemma21_check(c["group"], c["action"], c["p"], name=c["name"])
        cv = cor22_check(c["group"], c["action"], c["p"], name=c["name"])
        assert lv.status == c["lemma"], (c["name"], lv.status, lv.notes)
        assert cv.status == c["cor"], (c["name"], cv.status, cv.notes)
        assert lv.status != "fails" and cv.status != "fails"
        if c["lemma_note"]:
            assert c["lemma_note"] in " ".join(lv.notes), c["name"]
        if c["cor_note"]:
            assert c["cor_note"] in " ".join(cv.notes), c["name"]


def test_cor_cross_validation_concurs():
    # wherever the direct-sum condition holds, the section search agrees
    for mats, p in ((_reflections(F3), 2), (_wreath3(F4), 3)):
        P = Group(mats, name="x")
        v = cor22_check(P, ModuleAction(mats), p)
        assert v.status == "holds"
        assert wreath_section_detect(P, p, tier="full").found


def test_quaternion_never_splits_directly():
    mats = _quaternion(F3)
    P = SmallGroup.generate(mats, identity_like(mats[0]), name="q8")
    n = 2
    pairs = 0
    for i in range(1, P.order):
        for j in range(1, P.order):
            if len(P.closure([i, j])) != P.order:
                continue
            pairs += 1
            act = ModuleAction([P.elements[i], P.elements[j]])
            dims, joint = commutator_profile(act)
            assert not (sum(dims) == n and joint == n)
    assert pairs > 0


def test_lemma_exact_bound_on_reflections():
    v = lemma21_check(Group(_reflections(F3), name="d8"),
                      ModuleAction(_reflections(F3)), 2)
    assert v.status == "holds"
    assert "exact" in v.notes[0]


def test_lemma_inequality_only_with_rotation():
    v = lemma21_check(Group(_rot_refl(F3), name="d8"),
                      ModuleAction(_rot_refl(F3)), 2)
    assert v.status == "holds"
    assert "inequality" in v.notes[0]


def test_verdict_counters_present():
    v = lemma21_check(Group(_heis(F4), name="heis"),
                      ModuleAction(_heis(F4)), 3)
    assert v.counters["generators"] == 2
    assert v.counters["dim"] == 3
    assert v.seconds >= 0


def test_a_case_is_screened_once_per_check_pair(monkeypatch):
    """lemma21_check then cor22_check on one case run its relations check
    once, and every verdict body is the one of a fresh screen per check."""
    from collections import Counter

    calls = Counter()

    def counted(P, action):
        calls[id(action), run] += 1
        return real(P, action)

    def body(v):
        return {k: x for k, x in v.to_json().items() if k != "seconds"}

    real = modrep._broken_relations
    monkeypatch.setattr(modrep, "_broken_relations", counted)
    cases = standard_battery()
    bodies = {}
    for run in ("fresh", "paired"):
        bodies[run] = []
        modrep._hypotheses.cache_clear()
        for c in cases:
            for check in (lemma21_check, cor22_check):
                if run == "fresh":
                    modrep._hypotheses.cache_clear()
                bodies[run].append(body(check(c["group"], c["action"],
                                              c["p"], name=c["name"])))
    assert bodies["paired"] == bodies["fresh"]
    actions = [id(c["action"]) for c in cases]
    assert {calls[a, "paired"] for a in actions} == {0, 1}
    assert all(calls[a, "fresh"] == 2 * calls[a, "paired"] for a in actions)
