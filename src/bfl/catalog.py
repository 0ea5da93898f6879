"""Constructors for the concrete groups the verifiers run on.

Blueprint strings: family[:n][:q][:ext], e.g. "sym:6", "sl:4:3", "go_odd:3:9",
"psl2:9:diagfrob", "file:/path/to/gens".  Forms are fixed: Sp uses the
antidiagonal alternating Gram matrix, GO uses hyperbolic planes plus a small
anisotropic block, GU uses the identity Hermitian form over GF(q^2).
"""

import itertools
import math
from math import factorial, prod

from .fields import GF, FIELD_SIZES, projective_points
from .elements import Permutation, SquareMatrix
from .groups import Group

PERM_FAMILIES = ("sym", "alt", "cyclic", "dihedral", "psl2", "wreath")
MATRIX_FAMILIES = ("gl", "sl", "sp", "gu", "su", "go_plus", "go_minus", "go_odd")
FAMILIES = PERM_FAMILIES + MATRIX_FAMILIES + ("q8", "file")

MAX_PERM_N = 12
MAX_MATRIX_DIM = 8
MAX_Q = 27


class GroupBlueprint:
    """Family tag plus parameters; str() gives the canonical blueprint string."""

    __slots__ = ("family", "n", "q", "ext", "path")

    def __init__(self, family, n=None, q=None, ext=None, path=None):
        if family not in FAMILIES:
            raise ValueError("unknown family %r (known: %s)"
                             % (family, ", ".join(FAMILIES)))
        self.family = family
        self.n = n
        self.q = q
        self.ext = ext
        self.path = path
        _check_ranges(self)

    def __str__(self):
        if self.family == "file":
            return "file:%s" % self.path
        parts = [self.family]
        if self.family == "psl2":
            parts.append(str(self.q))
        else:
            if self.n is not None:
                parts.append(str(self.n))
            if self.q is not None:
                parts.append(str(self.q))
        if self.ext:
            parts.append(self.ext)
        return ":".join(parts)

    __repr__ = __str__

    def __eq__(self, other):
        return isinstance(other, GroupBlueprint) and str(self) == str(other)

    def __hash__(self):
        return hash(str(self))


def _check_ranges(bp):
    f, n, q = bp.family, bp.n, bp.q
    if f in ("sym", "alt"):
        if not 1 <= n <= MAX_PERM_N:
            raise ValueError("%s degree %r out of range 1..%d" % (f, n, MAX_PERM_N))
        if f == "alt" and n < 3:
            raise ValueError("alt needs degree >= 3")
    elif f == "cyclic":
        if not 1 <= n <= 10000:
            raise ValueError("cyclic order %r out of range" % (n,))
    elif f == "dihedral":
        if not 4 <= n <= 20000 or n % 2:
            raise ValueError("dihedral takes an even group order in 4..20000")
    elif f == "wreath":
        if n not in (2, 3, 5):
            raise ValueError("wreath supports p in {2, 3, 5}")
    elif f == "psl2":
        if q not in FIELD_SIZES or q > MAX_Q:
            raise ValueError("psl2 needs a shipped field size <= %d" % MAX_Q)
        if bp.ext is not None:
            if bp.ext not in ("diag", "frob", "diagfrob"):
                raise ValueError("unknown psl2 extension %r" % (bp.ext,))
            if bp.ext == "diag" and q % 2 == 0:
                raise ValueError("diag extension is trivial for even q")
            if bp.ext in ("frob", "diagfrob") and GF(q).k == 1:
                raise ValueError("frob extension needs a non-prime field")
    elif f in MATRIX_FAMILIES:
        if not 2 <= n <= MAX_MATRIX_DIM:
            raise ValueError("%s dimension %r out of range 2..%d"
                             % (f, n, MAX_MATRIX_DIM))
        if f in ("gu", "su"):
            if q is None or q * q not in FIELD_SIZES:
                raise ValueError("%s needs q with GF(q^2) shipped "
                                 "(q in 2,3,4,5,7,9)" % f)
        elif q not in FIELD_SIZES or q > MAX_Q:
            raise ValueError("%s needs a shipped field size <= %d" % (f, MAX_Q))
        if f.startswith("go"):
            if q % 2 == 0:
                raise ValueError("orthogonal constructors need odd q")
            if f == "go_odd" and n % 2 == 0:
                raise ValueError("go_odd needs odd dimension")
            if f in ("go_plus", "go_minus") and n % 2:
                raise ValueError("%s needs even dimension" % f)
        if f == "sp" and n % 2:
            raise ValueError("sp needs even dimension")


def parse_blueprint(text):
    """Parse "family:n[:q][:ext]" / "file:<path>" into a GroupBlueprint."""
    text = text.strip()
    if text.startswith("file:"):
        return GroupBlueprint("file", path=text[5:])
    parts = text.split(":")
    family = parts[0]
    if family == "q8":
        if len(parts) != 1:
            raise ValueError("q8 takes no parameters")
        return GroupBlueprint("q8")
    if family == "psl2":
        if len(parts) not in (2, 3):
            raise ValueError("psl2 takes q and an optional extension")
        ext = parts[2] if len(parts) == 3 else None
        return GroupBlueprint("psl2", n=2, q=int(parts[1]), ext=ext)
    if family in PERM_FAMILIES:
        if len(parts) != 2:
            raise ValueError("%s takes one parameter" % family)
        return GroupBlueprint(family, n=int(parts[1]))
    if family in MATRIX_FAMILIES:
        if len(parts) != 3:
            raise ValueError("%s takes dimension and field size" % family)
        return GroupBlueprint(family, n=int(parts[1]), q=int(parts[2]))
    raise ValueError("cannot parse blueprint %r" % text)


# ---- order formulas --------------------------------------------------------

def order_formula(bp):
    """Exact order of construct(bp), or None for file blueprints."""
    f, n, q = bp.family, bp.n, bp.q
    if f == "sym":
        return factorial(n)
    if f == "alt":
        return factorial(n) // 2 if n >= 2 else 1
    if f == "cyclic":
        return n
    if f == "dihedral":
        return n
    if f == "q8":
        return 8
    if f == "wreath":
        return n ** (n + 1)
    if f == "psl2":
        base = q * (q * q - 1) // (2 if q % 2 else 1)
        if bp.ext is None:
            return base
        if bp.ext == "frob":
            return base * GF(q).k
        return base * 2
    if f == "sl":
        return q ** (n * (n - 1) // 2) * prod(q ** i - 1 for i in range(2, n + 1))
    if f == "gl":
        return q ** (n * (n - 1) // 2) * prod(q ** i - 1 for i in range(1, n + 1))
    if f == "sp":
        m = n // 2
        return q ** (m * m) * prod(q ** (2 * i) - 1 for i in range(1, m + 1))
    if f == "gu":
        return q ** (n * (n - 1) // 2) * prod(q ** i - (-1) ** i
                                              for i in range(1, n + 1))
    if f == "su":
        return order_formula(GroupBlueprint("gu", n=n, q=q)) // (q + 1)
    if f == "go_odd":
        m = (n - 1) // 2
        return 2 * q ** (m * m) * prod(q ** (2 * i) - 1 for i in range(1, m + 1))
    if f in ("go_plus", "go_minus"):
        m = n // 2
        sign = -1 if f == "go_plus" else 1
        return (2 * q ** (m * (m - 1)) * (q ** m + sign)
                * prod(q ** (2 * i) - 1 for i in range(1, m - 1 + 1)))
    return None


# ---- forms -----------------------------------------------------------------

def gram_matrix(bp):
    """The fixed Gram matrix for sp/go families (None for others)."""
    f, n, q = bp.family, bp.n, bp.q
    if f == "sp":
        F = GF(q)
        rows = [[0] * n for _ in range(n)]
        for i in range(n // 2):
            rows[i][n - 1 - i] = 1
        for i in range(n // 2, n):
            rows[i][n - 1 - i] = F.neg(1)
        return SquareMatrix(F, rows)
    if f.startswith("go"):
        F = GF(q)
        rows = [[0] * n for _ in range(n)]
        for i in range(n // 2 - (f == "go_minus")):  # hyperbolic planes
            rows[2 * i][2 * i + 1] = 1
            rows[2 * i + 1][2 * i] = 1
        if f == "go_odd":
            rows[n - 1][n - 1] = 1
        elif f == "go_minus":
            rows[n - 2][n - 2] = 1
            rows[n - 1][n - 1] = F.neg(_nonsquare(F))
        return SquareMatrix(F, rows)
    return None


def _nonsquare(F):
    squares = {F.mul(a, a) for a in F.elements()}
    return min(a for a in F.elements() if a not in squares)


def bilinear(F, gram, x, y):
    """x^T * gram * y over F."""
    acc = 0
    for i, xi in enumerate(x):
        if not xi:
            continue
        row = gram.rows[i]
        for j, yj in enumerate(y):
            if yj and row[j]:
                acc = F.add(acc, F.mul(xi, F.mul(row[j], yj)))
    return acc


def preserves_bilinear(A, gram):
    back = A.transpose() * gram * A
    return back == gram


def _hermitian(F, bar_e, x, y):
    acc = 0
    for xi, yi in zip(x, y):
        if xi and yi:
            acc = F.add(acc, F.mul(xi, F.frobenius(yi, bar_e)))
    return acc


def _unit(n, *idx):
    """The vector of length n with 1 at the positions idx, 0 elsewhere."""
    return tuple(int(k in idx) for k in range(n))


def _rank_one(F, v, coef):
    """The matrix of x |-> x + coef(x) v; coef is linear, read on the basis."""
    n = len(v)
    cs = [coef(_unit(n, j)) for j in range(n)]
    return SquareMatrix(F, [[F.add(int(i == j), F.mul(c, v[i]))
                             for j, c in enumerate(cs)] for i in range(n)])


def reflection_matrix(F, gram, v):
    """x |-> x - 2 B(x,v)/B(v,v) * v; v must be non-isotropic."""
    nv = bilinear(F, gram, v, v)
    if nv == 0:
        raise ValueError("reflection vector %r is isotropic" % (v,))
    c = F.neg(F.div(F.add(1, 1), nv))  # -2 / B(v,v)
    return _rank_one(F, v, lambda e: F.mul(c, bilinear(F, gram, e, v)))


def _grow_to_order(pool, target, name):
    """Add the pool generators not yet in the group until its order hits target.

    Membership sifts through the chain already built and reads a candidate
    only at the base points and the basis, so a redundant candidate costs
    no chain; the image is faithful, so the accepted generators are exactly
    the order-raising ones.  The pool lies in the group, so target is each
    candidate's order hint (`Chain.build`): one below it is verified in full
    and stays exact.  The groups share one memo of vector images
    (`Group._memo`), so each generator is evaluated once per vector.
    """
    gens, memo = [], {}
    G = None
    for cand in pool:
        if G is not None and G.contains(cand):
            continue  # redundant generator; keep the set small
        gens.append(cand)
        G = Group(gens, name=name, order=target)
        G._memo = memo
        got = G.order()
        if got == target:
            del G._memo  # later membership tests keep nothing
            return G
        if got > target:
            raise RuntimeError("%s overshot order %d > %d" % (name, got, target))
    raise RuntimeError("%s generator pool exhausted below order %d" % (name, target))


# ---- constructors ----------------------------------------------------------

def construct(bp):
    """Build the group a blueprint names; generators are fixed and documented."""
    if isinstance(bp, str):
        bp = parse_blueprint(bp)
    f = bp.family
    builder = {
        "sym": _build_sym, "alt": _build_alt, "cyclic": _build_cyclic,
        "dihedral": _build_dihedral, "q8": _build_q8, "wreath": _build_wreath_perm,
        "psl2": _build_psl2, "sl": _build_sl, "gl": _build_gl, "sp": _build_sp,
        "gu": _build_gu, "su": _build_su, "go_plus": _build_go,
        "go_minus": _build_go, "go_odd": _build_go, "file": _build_file,
    }[f]
    return builder(bp)


def _build_sym(bp):
    n = bp.n
    if n == 1:
        return Group([], identity=Permutation.identity(1), name=str(bp))
    gens = [Permutation.from_cycles(n, [(0, 1)])]
    if n > 2:
        gens.append(Permutation.from_cycles(n, [tuple(range(n))]))
    return Group(gens, name=str(bp))


def _build_alt(bp):
    n = bp.n
    gens = [Permutation.from_cycles(n, [(0, 1, 2)])]
    if n > 3:
        if n % 2:
            gens.append(Permutation.from_cycles(n, [tuple(range(n))]))
        else:
            gens.append(Permutation.from_cycles(n, [tuple(range(1, n))]))
    return Group(gens, name=str(bp))


def _build_cyclic(bp):
    n = bp.n
    if n == 1:
        return Group([], identity=Permutation.identity(1), name=str(bp))
    return Group([Permutation.from_cycles(n, [tuple(range(n))])], name=str(bp))


def _build_dihedral(bp):
    m = bp.n
    if m == 4:
        gens = [Permutation.from_cycles(4, [(0, 1)]),
                Permutation.from_cycles(4, [(2, 3)])]
        return Group(gens, name=str(bp))
    h = m // 2
    r = Permutation.from_cycles(h, [tuple(range(h))])
    s = Permutation([h - 1 - i for i in range(h)])
    return Group([r, s], name=str(bp))


def _build_q8(bp):
    F = GF(3)
    i = SquareMatrix(F, [[0, 1], [2, 0]])
    j = SquareMatrix(F, [[1, 1], [1, 2]])
    return Group([i, j], name=str(bp))


def _build_wreath_perm(bp):
    p = bp.n
    base = Permutation.from_cycles(p * p, [tuple(range(p))])
    top = Permutation([(i + p) % (p * p) for i in range(p * p)])
    return Group([base, top], name=str(bp))


def _build_psl2(bp):
    q = bp.q
    F = GF(q)
    w = F.primitive()
    infinity = q  # point indices: 0..q-1 are field codes, q is the infinite point

    def moebius(fn):
        """Permutation of the projective line; fn maps codes, None is infinity."""
        images = [0] * (q + 1)
        for z in range(q):
            y = fn(z)
            images[z] = infinity if y is None else y
        y = fn(None)
        images[infinity] = infinity if y is None else y
        return Permutation(images)

    def translate(z):
        return F.add(z, 1) if z is not None else None

    w2 = F.mul(w, w)

    def scale_sq(z):
        return F.mul(w2, z) if z is not None else None

    def inv_neg(z):
        if z is None:
            return 0
        if z == 0:
            return None
        return F.neg(F.inv(z))

    gens = [moebius(translate), moebius(scale_sq), moebius(inv_neg)]
    if bp.ext in ("diag", "diagfrob"):
        def scale(z):
            return F.mul(w, z) if z is not None else None
    if bp.ext in ("frob", "diagfrob"):
        def frob(z):
            return F.frobenius(z, 1) if z is not None else None
    if bp.ext == "diag":
        gens.append(moebius(scale))
    elif bp.ext == "frob":
        gens.append(moebius(frob))
    elif bp.ext == "diagfrob":
        gens.append(moebius(lambda z: scale(frob(z))))
    return Group(gens, name=str(bp))


def _sl_gens(F, n):
    coeffs = [1, F.primitive()] if F.k > 1 else [1]
    gens = [_rank_one(F, _unit(n, 0), lambda e: F.mul(c, e[1])) for c in coeffs]
    cyc = [[0] * n for _ in range(n)]
    for j in range(n - 1):
        cyc[j + 1][j] = 1
    cyc[0][n - 1] = 1 if n % 2 else F.neg(1)
    gens.append(SquareMatrix(F, cyc))
    return gens


def _build_sl(bp):
    return Group(_sl_gens(GF(bp.q), bp.n), name=str(bp),
                 order=order_formula(bp))


def _build_gl(bp):
    F = GF(bp.q)
    gens = _sl_gens(F, bp.n)
    if F.q > 2:
        gens.append(SquareMatrix.diagonal(
            F, [F.primitive()] + [1] * (bp.n - 1)))
    return Group(gens, name=str(bp), order=order_formula(bp))


def _transvection_pool_sp(F, n, gram):
    """Symplectic transvections x -> x + c B(x,v) v over a deterministic pool."""
    vecs = [_unit(n, i) for i in range(n)]
    vecs += [_unit(n, i, j) for i in range(n) for j in range(i + 1, n)]
    coeffs = [1, F.primitive()] if F.k > 1 else [1]
    for v in vecs:
        for c in coeffs:
            T = _rank_one(F, v, lambda e: F.mul(c, bilinear(F, gram, e, v)))
            if not T.is_identity():
                assert preserves_bilinear(T, gram)
                yield T


def _build_sp(bp):
    pool = _transvection_pool_sp(GF(bp.q), bp.n, gram_matrix(bp))
    return _grow_to_order(pool, order_formula(bp), str(bp))


def _reflection_pool(F, n, gram):
    for v in projective_points(F, n):
        if bilinear(F, gram, v, v) != 0:
            yield reflection_matrix(F, gram, v)


def _build_go(bp):
    pool = _reflection_pool(GF(bp.q), bp.n, gram_matrix(bp))
    return _grow_to_order(pool, order_formula(bp), str(bp))


def _unitary_reflections(F, bar, n):
    """Pseudo-reflections fixing v-perp, scaling v by a norm-one alpha."""
    q = math.isqrt(F.q)
    alpha = F.pow(F.primitive(), q - 1)  # generates the norm-one subgroup
    for v in projective_points(F, n):
        nv = _hermitian(F, bar, v, v)
        if nv == 0:
            continue
        c = F.div(F.sub(alpha, 1), nv)
        yield _rank_one(F, v, lambda e: F.mul(c, _hermitian(F, bar, e, v)))


def _perm_matrices(F, n):
    """Adjacent-swap permutation matrices; unitary for the identity Gram."""
    for t in range(n - 1):
        rows = [[1 if j == (i if i not in (t, t + 1) else (t + 1 + t - i)) else 0
                 for j in range(n)] for i in range(n)]
        yield SquareMatrix(F, rows)


def _build_gu(bp):
    q, n = bp.q, bp.n
    F = GF(q * q)
    bar = F.k // 2

    # Reflections alone can miss small char-2 cases (e.g. q=2, n=2, where all
    # mixed vectors are isotropic), so fall back to swap matrices after them.
    pool = itertools.chain(_unitary_reflections(F, bar, n), _perm_matrices(F, n))
    return _grow_to_order(pool, order_formula(bp), str(bp))


def _build_su(bp):
    q, n = bp.q, bp.n
    F = GF(q * q)
    bar = F.k // 2
    trace_zero = [c for c in F.elements() if c and F.add(F.frobenius(c, bar), c) == 0]

    def transvections():
        # unitary transvections need isotropic v
        for v in projective_points(F, n):
            if _hermitian(F, bar, v, v) != 0:
                continue
            for c in trace_zero:
                T = _rank_one(F, v, lambda e: F.mul(c, _hermitian(F, bar, e, v)))
                if not T.is_identity():
                    yield T

    def reflection_pairs():
        # determinant-one products of two pseudo-reflections, for the cases
        # (notably q=2, n=3) where transvections generate a proper subgroup
        refs = list(_unitary_reflections(F, bar, n))
        for a in refs:
            for b in refs:
                if a is not b:
                    yield a * ~b

    pool = itertools.chain(transvections(), reflection_pairs())
    return _grow_to_order(pool, order_formula(bp), str(bp))


def _build_file(bp):
    from .genfile import parse_generator_file
    return parse_generator_file(bp.path).group


# ---- distinguished elements ------------------------------------------------

def special_element(bp, kind):
    """A named element of construct(bp): "pm_i_element", blockwise
    [[0, 1], [-1, 0]] in sl/gl of even dimension (its square is -1), or
    "reflection", the reflection of gl (q odd) in e_0 for the identity form."""
    if isinstance(bp, str):
        bp = parse_blueprint(bp)
    f, n = bp.family, bp.n
    if kind == "pm_i_element":
        if f not in ("sl", "gl") or n % 2:
            raise ValueError("pm_i_element needs sl/gl of even dimension")
        F = GF(bp.q)
        rows = [[0] * n for _ in range(n)]
        for b in range(n // 2):
            rows[2 * b][2 * b + 1] = 1
            rows[2 * b + 1][2 * b] = F.neg(1)
        return SquareMatrix(F, rows)
    if kind == "reflection":
        if f != "gl" or bp.q % 2 == 0:  # in characteristic 2 it is the identity
            raise ValueError("reflection lives in gl over an odd field")
        F = GF(bp.q)
        return reflection_matrix(F, SquareMatrix.identity(F, n), _unit(n, 0))
    raise ValueError("unknown special element kind %r" % kind)
