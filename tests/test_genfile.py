"""Generator file parsing: perm and matrix headers, errors with positions."""

import pytest

from bfl.fields import GF
from bfl.elements import Permutation, SquareMatrix, SemilinearElement
from bfl.genfile import ParseError, parse_generator_text, parse_generator_file
from bfl.catalog import construct


ALT5 = """\
# alternating group on five points
group a5 perm 5
a = (1,2,3,4,5)
b = (3,4,5)
"""


def test_perm_file_alt5():
    pg = parse_generator_text(ALT5)
    G = pg.group
    assert G.name == "a5" and G.kind == "Permutation"
    assert G.identity.degree == 5
    assert pg.group.order() == 60
    assert pg.elements["b"] == Permutation.from_cycles(5, [(2, 3, 4)])


def test_empty_generator_list_is_trivial_group():
    pg = parse_generator_text("group nothing perm 4\n")
    assert pg.group.order() == 1
    assert pg.elements == {}


def test_multi_cycle_line():
    pg = parse_generator_text("group k perm 4\nx = (1,2)(3,4)\n")
    assert pg.elements["x"].cycles() == [(0, 1), (2, 3)]


def test_identity_line():
    pg = parse_generator_text("group t perm 3\ne = ()\n")
    assert pg.elements["e"].is_identity()


def test_malformed_cycle_position():
    with pytest.raises(ParseError) as exc:
        parse_generator_text("group g perm 5\na = (1,2\n")
    assert exc.value.line == 2
    assert exc.value.col >= 5


def test_point_out_of_range():
    with pytest.raises(ParseError):
        parse_generator_text("group g perm 3\na = (1,4)\n")


def test_overlapping_cycles():
    with pytest.raises(ParseError):
        parse_generator_text("group g perm 4\na = (1,2)(2,3)\n")


def test_bad_header():
    with pytest.raises(ParseError):
        parse_generator_text("grp g perm 3\n")
    with pytest.raises(ParseError):
        parse_generator_text("")
    with pytest.raises(ParseError):
        parse_generator_text("group g mat 2 over GF(6)\n")


def test_duplicate_name():
    with pytest.raises(ParseError):
        parse_generator_text("group g perm 3\na = (1,2)\na = (2,3)\n")


def test_matrix_file():
    pg = parse_generator_text(
        "group m mat 2 over GF(3)\n"
        "t = [[1,1],[0,1]]\n"
        "s = [[0,1],[-1,0]]\n")
    assert pg.group.kind == "SquareMatrix" and pg.group.identity.field is GF(3)
    assert pg.group.order() == 24
    assert pg.elements["s"] == SquareMatrix(GF(3), [[0, 1], [2, 0]])


def test_matrix_entries_with_z():
    pg = parse_generator_text(
        "group m mat 2 over GF(9)\n"
        "d = [[z,0],[0,1]]\n")
    F = GF(9)
    assert pg.elements["d"].rows[0][0] == F.r  # the residue z has code r


def test_polynomial_entries():
    pg = parse_generator_text(
        "group m mat 1 over GF(27)\n"
        "a = [[2z^2+ z + 1]]\n"
        "b = [[2*z^2+z+1]]\n")
    F = GF(27)
    want = F.encode((1, 1, 2))
    assert pg.elements["a"].rows[0][0] == want
    assert pg.elements["b"].rows[0][0] == want


def test_singular_matrix_rejected():
    with pytest.raises(ParseError):
        parse_generator_text("group m mat 2 over GF(3)\nx = [[1,2],[2,1]]\n")


def test_wrong_shape_rejected():
    with pytest.raises(ParseError):
        parse_generator_text("group m mat 2 over GF(3)\nx = [[1,0,0],[0,1,0]]\n")


def test_fieldauto_semilinear():
    pg = parse_generator_text(
        "group s mat 2 over GF(9) fieldauto\n"
        "f = [[1,0],[0,1]] @ frob\n"
        "g = [[z,0],[0,1]] @ frob^2\n"
        "h = [[1,1],[0,1]]\n")
    f = pg.elements["f"]
    assert isinstance(f, SemilinearElement) and f.e == 1
    assert pg.elements["g"].e == 0  # frob^2 = id over GF(9)
    assert pg.elements["h"].e == 0
    assert pg.group.order() % 2 == 0


def test_frob_without_fieldauto_rejected():
    with pytest.raises(ParseError):
        parse_generator_text(
            "group s mat 2 over GF(9)\nf = [[1,0],[0,1]] @ frob\n")


def test_file_roundtrip_and_blueprint(tmp_path):
    p = tmp_path / "gens.txt"
    p.write_text(ALT5)
    pg = parse_generator_file(str(p))
    assert pg.group.order() == 60
    G = construct("file:%s" % p)
    assert G.order() == 60


def test_whitespace_inside_cycles_and_rows():
    pg = parse_generator_text("group k perm 4\na = (1, 2) (3,4)\n"
                              "b = ( 2 , 3 )\n")
    assert pg.elements["a"].cycles() == [(0, 1), (2, 3)]
    assert pg.elements["b"].cycles() == [(1, 2)]
    F = GF(9)
    pg = parse_generator_text("group m mat 2 over GF(9)\n"
                              "b = [ [1, z+1] , [0 , 1] ]\n")
    z1 = F.add(F.r, 1)
    assert pg.elements["b"] == SquareMatrix(F, [[1, z1], [0, 1]])
