"""A fixed battery of group/module pairs for the generator dimension checks.

Every case records the statuses the checks must reach, so the whole table
doubles as a regression oracle: holds cases must hold, skip cases must skip
for the stated reason, and nothing may fail.
"""

from .elements import Permutation, SquareMatrix
from .fields import GF
from .groups import Group
from .modrep import ModuleAction


def _reflections(F):
    """Two reflections of the square; their product rotates by a quarter."""
    return [SquareMatrix.diagonal(F, [1, F.neg(1)]),
            SquareMatrix(F, [[0, 1], [1, 0]])]


def _rot_refl(F):
    """Quarter rotation plus an axis reflection."""
    return [SquareMatrix(F, [[0, F.neg(1)], [1, 0]]),
            SquareMatrix.diagonal(F, [1, F.neg(1)])]


def _quaternion(F):
    """i as the rotation, j from a^2+b^2 = -1; they anticommute."""
    i = SquareMatrix(F, [[0, F.neg(1)], [1, 0]])
    for a in range(F.q):
        for b in range(F.q):
            if F.add(F.mul(a, a), F.mul(b, b)) == F.neg(1):
                return [i, SquareMatrix(F, [[a, b], [b, F.neg(a)]])]
    raise AssertionError("no solution of a^2+b^2 = -1 in GF(%d)" % F.q)


def _cube_root(F):
    if (F.q - 1) % 3:
        raise AssertionError("GF(%d) has no cube roots of unity" % F.q)
    return F.pow(F.primitive(), (F.q - 1) // 3)


_SHIFT3 = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]


def _heis(F, with_center=False):
    """Clock and shift: the extraspecial group of order 27, exponent 3."""
    w = _cube_root(F)
    mats = [SquareMatrix.diagonal(F, [1, w, F.mul(w, w)]),
            SquareMatrix(F, _SHIFT3)]
    if with_center:
        mats.append(SquareMatrix.diagonal(F, [w, w, w]))
    return mats


def _wreath3(F):
    """One coordinate scaled by a cube root, coordinates shifted cyclically."""
    w = _cube_root(F)
    return [SquareMatrix.diagonal(F, [w, 1, 1]), SquareMatrix(F, _SHIFT3)]


def _block_diag(mats, copies):
    F, n = mats[0].field, mats[0].n
    out = []
    for M in mats:
        rows = [[0] * (n * copies) for _ in range(n * copies)]
        for c in range(copies):
            for i in range(n):
                for j in range(n):
                    rows[c * n + i][c * n + j] = M.rows[i][j]
        out.append(SquareMatrix(F, rows))
    return out


def _d8_perm():
    s1 = Permutation.from_cycles(4, [(0, 2)])
    s2 = Permutation.from_cycles(4, [(0, 1), (2, 3)])
    return Group([s1, s2], name="d8-perm")


def standard_battery():
    """The case table: name, p, group, action, and expected statuses."""
    F2, F3, F4 = GF(2), GF(3), GF(4)
    F5, F7, F9 = GF(5), GF(7), GF(9)
    d8p = _d8_perm()
    heis4 = Group(_heis(F4), name="heis-27")
    w34 = Group(_wreath3(F4), name="w3-81")
    cases = []

    def add(name, p, mats, order, lemma, cor, group=None,
            lemma_note="", cor_note=""):
        act = ModuleAction(mats)
        grp = group if group is not None else Group(mats, name=name)
        if grp.order() != order:
            raise AssertionError("%s: group came out order %d, wanted %d"
                                 % (name, grp.order(), order))
        cases.append({"name": name, "p": p, "group": grp, "action": act,
                      "lemma": lemma, "cor": cor,
                      "lemma_note": lemma_note, "cor_note": cor_note})

    # dihedral of order 8: reflections give the exact dim/p case, and the
    # commutator images split the plane, so the section search must concur
    add("d8-gf3-reflections", 2, _reflections(F3), 8, "holds", "holds")
    add("d8-gf5-reflections", 2, _reflections(F5), 8, "holds", "holds")
    add("d8-gf9-reflections", 2, _reflections(F9), 8, "holds", "holds")
    # rotation generators have order 4, so only the inequality applies
    add("d8-gf3-rotation", 2, _rot_refl(F3), 8, "holds", "skipped",
        cor_note="order 4")
    add("d8-gf5-rotation", 2, _rot_refl(F5), 8, "holds", "skipped",
        cor_note="order 4")
    # quaternion: fixed spaces are zero, and no generating set has order 2
    add("q8-gf3", 2, _quaternion(F3), 8, "holds", "skipped",
        cor_note="order 4")
    add("q8-gf5", 2, _quaternion(F5), 8, "holds", "skipped",
        cor_note="order 4")
    add("q8-gf9", 2, _quaternion(F9), 8, "holds", "skipped",
        cor_note="order 4")
    # hypothesis-gap rows, each skipping for a different verified reason
    add("d8-gf3-split-lines", 2,
        [SquareMatrix.diagonal(F3, [1, 2]), SquareMatrix.diagonal(F3, [2, 1])],
        8, "skipped", "skipped", group=d8p,
        lemma_note="reducible", cor_note="reducible")
    add("d8-gf3-sign", 2,
        [SquareMatrix(F3, [[2]]), SquareMatrix(F3, [[1]])],
        8, "skipped", "skipped", group=d8p,
        lemma_note="derived", cor_note="derived")
    add("klein-gf3-sign", 2,
        [SquareMatrix(F3, [[2]]), SquareMatrix(F3, [[2]])],
        4, "skipped", "skipped",
        group=Group([Permutation.from_cycles(4, [(0, 1)]),
                     Permutation.from_cycles(4, [(2, 3)])], name="klein"),
        lemma_note="derived", cor_note="derived")
    add("s3-gf7", 2,
        [SquareMatrix(F7, [[0, 1], [1, 0]]), SquareMatrix(F7, [[1, 6], [0, 6]])],
        6, "skipped", "skipped",
        lemma_note="not a power of 2", cor_note="not a power of 2")
    add("d8-gf2", 2,
        [SquareMatrix(F2, [[0, 1], [1, 0]]), SquareMatrix(F2, [[0, 1], [1, 0]])],
        8, "skipped", "skipped", group=d8p,
        lemma_note="characteristic", cor_note="characteristic")
    add("d8-gf3-doubled", 2, _block_diag(_reflections(F3), 2), 8,
        "skipped", "skipped", group=Group(_reflections(F3), name="d8-mat"),
        lemma_note="reducible", cor_note="reducible")

    # extraspecial 27: the exact bound holds, but commutator images overlap,
    # so the direct-sum hypothesis is never met (order 81 would be needed)
    add("heis-gf4", 3, _heis(F4), 27, "holds", "skipped",
        cor_note="direct-sum")
    add("heis-gf7", 3, _heis(F7), 27, "holds", "skipped",
        cor_note="direct-sum")
    add("heis-gf4-3gens", 3, _heis(F4, with_center=True), 27,
        "holds", "skipped", cor_note="direct-sum")
    # the wreath group itself: direct sum holds and the section is itself
    add("w3-gf4", 3, _wreath3(F4), 81, "holds", "holds")
    add("w3-gf7", 3, _wreath3(F7), 81, "holds", "holds")
    # p = 3 hypothesis gaps
    add("z3-gf4", 3, [SquareMatrix(F4, [[_cube_root(F4)]])], 3,
        "skipped", "skipped", lemma_note="derived", cor_note="derived")
    add("z9-gf7", 3, [SquareMatrix(F7, [[2]])], 9,
        "skipped", "skipped",
        group=Group([Permutation.from_cycles(9, [tuple(range(9))])], name="z9"),
        lemma_note="derived", cor_note="derived")
    add("heis-gf4-abelianized", 3,
        [SquareMatrix.diagonal(F4, [1, _cube_root(F4)]),
         SquareMatrix.diagonal(F4, [_cube_root(F4), 1])],
        27, "skipped", "skipped", group=heis4,
        lemma_note="reducible", cor_note="reducible")
    add("w3-gf4-doubled", 3, _block_diag(_wreath3(F4), 2), 81,
        "skipped", "skipped", group=w34,
        lemma_note="reducible", cor_note="reducible")
    add("a4-gf5", 3,
        [SquareMatrix(F5, [[1]]), SquareMatrix(F5, [[1]])],
        12, "skipped", "skipped",
        group=Group([Permutation.from_cycles(4, [(0, 1, 2)]),
                     Permutation.from_cycles(4, [(0, 1), (2, 3)])], name="a4"),
        lemma_note="not a power of 3", cor_note="not a power of 3")
    return cases
