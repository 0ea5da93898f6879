"""Module actions: dimensions, irreducibility, and the generator checks."""

import pytest
from hypothesis import given, strategies as st

from bfl.battery import (standard_battery, _reflections, _rot_refl,
                         _quaternion, _heis, _wreath3, _block_diag,
                         _matrix_group, _d8_perm)
from bfl.elements import SquareMatrix
from bfl.fields import GF
from bfl.modrep import (ModuleAction, representation, generator_positions,
                        fixed_dim, commutator_dim, spin, projective_points,
                        is_irreducible, commutator_profile,
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


def test_representation_reproduces_matrix_elements():
    mats = _reflections(F3)
    P = _matrix_group(mats, "d8")
    rep = representation(P, ModuleAction(mats))
    assert rep == P.elements  # identity representation, element by element


def test_representation_accepts_factor_maps():
    P = _d8_perm()
    act = ModuleAction([SquareMatrix(F3, [[2]]), SquareMatrix(F3, [[1]])])
    rep = representation(P, act)
    assert sum(1 for m in rep if m.rows == ((2,),)) == 4  # half act as -1


def test_representation_rejects_relation_breakers():
    P = _d8_perm()  # generated by two involutions
    bad = ModuleAction([SquareMatrix(F3, [[1, 1], [0, 1]]),  # order 3, not 2
                        SquareMatrix(F3, [[0, 1], [1, 0]])])
    with pytest.raises(ValueError):
        representation(P, bad)


def test_representation_rejects_count_mismatch():
    P = _d8_perm()
    with pytest.raises(ValueError):
        representation(P, ModuleAction([SquareMatrix(F3, [[2]])]))


def test_generator_positions_need_derivations():
    P = _d8_perm()
    H = P.induced(P.closure([P.gens[0]]))
    with pytest.raises(ValueError):
        generator_positions(H)


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
        P = _matrix_group(mats, "x")
        v = cor22_check(P, ModuleAction(mats), p)
        assert v.status == "holds"
        assert wreath_section_detect(P, p, tier="full").found


def test_quaternion_never_splits_directly():
    mats = _quaternion(F3)
    P = _matrix_group(mats, "q8")
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
    v = lemma21_check(_matrix_group(_reflections(F3), "d8"),
                      ModuleAction(_reflections(F3)), 2)
    assert v.status == "holds"
    assert "exact" in v.notes[0]


def test_lemma_inequality_only_with_rotation():
    v = lemma21_check(_matrix_group(_rot_refl(F3), "d8"),
                      ModuleAction(_rot_refl(F3)), 2)
    assert v.status == "holds"
    assert "inequality" in v.notes[0]


def test_verdict_counters_present():
    v = lemma21_check(_matrix_group(_heis(F4), "heis"),
                      ModuleAction(_heis(F4)), 3)
    assert v.counters["generators"] == 2
    assert v.counters["dim"] == 3
    assert v.seconds >= 0


def test_a_case_is_screened_once_per_check_pair(monkeypatch):
    """lemma21_check then cor22_check on one case build its representation
    once, and every verdict body is the one of a fresh screen per check."""
    from collections import Counter
    from bfl import modrep

    calls = Counter()

    def counted(S, action):
        calls[id(action), run] += 1
        return real(S, action)

    def body(v):
        return {k: x for k, x in v.to_json().items() if k != "seconds"}

    real = modrep.representation
    monkeypatch.setattr(modrep, "representation", counted)
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
