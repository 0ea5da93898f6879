"""Parser for generator files.

Format (UTF-8 text, # comments):
    group <name> perm <degree>
    a = (1,2,3)(4,5)          # 1-based cycles; () is the identity
or
    group <name> mat <dim> over GF(<q>) [fieldauto]
    a = [[1,0],[z,1]]         # entries are integers or polynomials in z
    b = [[1,1],[0,1]] @ frob^2  # only with fieldauto in the header
"""

import re

from .fields import GF
from .elements import Permutation, SquareMatrix, SemilinearElement
from .groups import Group


class ParseError(ValueError):
    def __init__(self, msg, line, col):
        super().__init__("line %d, col %d: %s" % (line, col, msg))
        self.line = line
        self.col = col


class ParsedGroup:
    """The Group and the name -> element map."""

    __slots__ = ("group", "elements")

    def __init__(self, group, elements):
        self.group = group
        self.elements = elements

    @property
    def name(self):
        """The header's group name, which the Group carries."""
        return self.group.name


_HEADER_PERM = re.compile(r"group\s+(\S+)\s+perm\s+(\d+)\s*$")
_HEADER_MAT = re.compile(
    r"group\s+(\S+)\s+mat\s+(\d+)\s+over\s+GF\((\d+)\)(\s+fieldauto)?\s*$")
_NAME_EQ = re.compile(r"\s*([A-Za-z_]\w*)\s*=\s*")


def _strip_comment(line):
    i = line.find("#")
    return line if i < 0 else line[:i]


def parse_generator_file(path):
    """Read a generator file; returns a ParsedGroup."""
    with open(path, encoding="utf-8") as fh:
        raw = fh.read()
    return parse_generator_text(raw)


def parse_generator_text(text):
    lines = text.splitlines()
    header = None
    header_no = 0
    for no, line in enumerate(lines, 1):
        body = _strip_comment(line).strip()
        if body:
            header = body
            header_no = no
            break
    if header is None:
        raise ParseError("missing header line", 1, 1)
    m = _HEADER_PERM.match(header)
    if m:
        name, degree = m.group(1), int(m.group(2))
        kind, field, fieldauto = "perm", None, False
        if degree < 1:
            raise ParseError("degree must be >= 1", header_no, 1)
    else:
        m = _HEADER_MAT.match(header)
        if not m:
            raise ParseError("bad header %r" % header, header_no, 1)
        name, degree = m.group(1), int(m.group(2))
        kind, fieldauto = "mat", bool(m.group(4))
        q = int(m.group(3))
        try:
            field = GF(q)
        except ValueError as exc:
            raise ParseError(str(exc), header_no, 1)
        if degree < 1:
            raise ParseError("dimension must be >= 1", header_no, 1)

    elements = {}
    for no, line in enumerate(lines, 1):
        if no <= header_no:
            continue
        body = _strip_comment(line)
        if not body.strip():
            continue
        m = _NAME_EQ.match(body)
        if not m:
            raise ParseError("expected 'name = ...'", no, 1)
        gname = m.group(1)
        if gname in elements:
            raise ParseError("duplicate generator name %r" % gname, no, 1)
        rest = body[m.end():]
        col0 = m.end() + 1
        if kind == "perm":
            el = _parse_perm(rest, degree, no, col0)
        else:
            el = _parse_matrix(rest, degree, field, fieldauto, no, col0)
        elements[gname] = el

    if kind == "perm":
        identity = Permutation.identity(degree)
    elif fieldauto:
        identity = SemilinearElement.identity(field, degree)
    else:
        identity = SquareMatrix.identity(field, degree)
    G = Group(list(elements.values()), name=name, identity=identity)
    return ParsedGroup(G, elements)


def _parse_perm(text, degree, no, col0):
    """Cycles like (1,2,3)(4,5), 1-based; () or empty-ish is the identity."""
    cycles = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch != "(":
            raise ParseError("expected '(' in cycle list", no, col0 + i)
        j = text.find(")", i)
        if j < 0:
            raise ParseError("unclosed cycle", no, col0 + i)
        inner = text[i + 1:j].strip()
        if inner:
            pts = []
            for tok in inner.split(","):
                tok = tok.strip()
                if not tok.isdigit():
                    raise ParseError("bad cycle entry %r" % tok, no, col0 + i)
                pts.append(int(tok))
            for p in pts:
                if not 1 <= p <= degree:
                    raise ParseError("point %d outside 1..%d" % (p, degree),
                                     no, col0 + i)
            cycles.append(tuple(pts))
        i = j + 1
    try:
        return Permutation.from_cycles(degree, cycles, base=1)
    except ValueError as exc:
        raise ParseError(str(exc), no, col0)


_FROB_SUFFIX = re.compile(r"@\s*frob(?:\^(\d+))?\s*$")


def _parse_matrix(text, dim, field, fieldauto, no, col0):
    frob_e = None
    m = _FROB_SUFFIX.search(text)
    if m:
        frob_e = int(m.group(1)) if m.group(1) else 1
        if not fieldauto:
            raise ParseError("frob twist needs 'fieldauto' in the header",
                             no, col0 + m.start())
        text = text[:m.start()]
    rows, end = _parse_rows(text, field, no, col0)
    if text[end:].strip():
        raise ParseError("trailing junk after matrix", no, col0 + end)
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise ParseError("matrix is not %dx%d" % (dim, dim), no, col0)
    mat = SquareMatrix(field, rows)
    if mat.det() == 0:
        raise ParseError("matrix is singular", no, col0)
    if fieldauto:
        return SemilinearElement(mat, frob_e or 0)
    return mat


def _parse_rows(text, field, no, col0):
    i = _skip_ws(text, 0)
    if i >= len(text) or text[i] != "[":
        raise ParseError("expected '[[' to open a matrix", no, col0 + i)
    i += 1
    rows = []
    while True:
        i = _skip_ws(text, i)
        if i >= len(text) or text[i] != "[":
            raise ParseError("expected '[' to open a row", no, col0 + i)
        row, i = _parse_row(text, i + 1, field, no, col0)
        rows.append(row)
        i = _skip_ws(text, i)
        if i < len(text) and text[i] == ",":
            i += 1
            continue
        if i < len(text) and text[i] == "]":
            return rows, i + 1
        raise ParseError("expected ',' or ']' after a row", no, col0 + i)


def _parse_row(text, i, field, no, col0):
    row = []
    while True:
        i = _skip_ws(text, i)
        j = i
        while j < len(text) and text[j] not in ",]":
            j += 1
        tok = text[i:j].strip()
        if not tok:
            raise ParseError("empty matrix entry", no, col0 + i)
        row.append(_parse_entry(tok, field, no, col0 + i))
        i = _skip_ws(text, j)
        if i < len(text) and text[i] == ",":
            i += 1
            continue
        if i < len(text) and text[i] == "]":
            return row, i + 1
        raise ParseError("expected ',' or ']' in a row", no, col0 + i)


def _skip_ws(text, i):
    while i < len(text) and text[i].isspace():
        i += 1
    return i


_TERM = re.compile(r"""\s*(?P<sign>[+-])?\s*
    (?: (?P<coef>\d+) \s* \*? \s* )?
    (?: (?P<z>z) (?: \^ (?P<exp>\d+) )? )?
    \s*""", re.VERBOSE)


def _parse_entry(tok, field, no, col):
    """An integer, or a polynomial in z like '2z^2+z+1' / '2*z^2 + 1'."""
    if field.k == 1 or tok.lstrip("+-").isdigit():
        try:
            return int(tok) % field.r if field.k == 1 else field.encode_int(int(tok))
        except ValueError:
            raise ParseError("bad field entry %r" % tok, no, col)
    val = 0
    i = 0
    zcode = field.r  # the residue of z
    while i < len(tok):
        m = _TERM.match(tok, i)
        if not m or m.end() == i or (m.group("coef") is None and m.group("z") is None):
            raise ParseError("bad field entry %r" % tok, no, col)
        coef = int(m.group("coef")) if m.group("coef") else 1
        if m.group("sign") == "-":
            coef = -coef
        term = field.encode_int(coef)
        if m.group("z"):
            e = int(m.group("exp")) if m.group("exp") else 1
            term = field.mul(term, field.pow(zcode, e))
        val = field.add(val, term)
        i = m.end()
    return val
