"""Group element types: permutations, matrices over GF(q), semilinear maps.

Convention, fixed once for the whole package: elements act on the left and
compose(a, b) is the map v -> a(b(v)), i.e. b is applied first.  Conjugation
is conjugate(x, g) = g^-1 x g and the commutator is [x, y] = x^-1 y^-1 x y.
Class-level results do not depend on this choice; element-level traces of a
computation do, so it is asserted by tests against the action on points.
"""

from math import lcm
from operator import itemgetter

ORDER_CAP = 10 ** 6


class Overflow(Exception):
    """A cap was exceeded (element order, closure size, orbit size...)."""


class Permutation:
    """Permutation of {0..n-1}, stored as the tuple of images."""

    __slots__ = ("images", "_hash")

    def __init__(self, images):
        self.images = tuple(images)
        self._hash = None

    @classmethod
    def identity(cls, n):
        return cls(range(n))

    @classmethod
    def from_cycles(cls, n, cycles, base=0):
        """Build from disjoint cycles; base=1 accepts 1-based points."""
        images = list(range(n))
        for cyc in cycles:
            pts = [p - base for p in cyc]
            for p in pts:
                if not 0 <= p < n:
                    raise ValueError("point %d out of range for degree %d" % (p + base, n))
            for i, p in enumerate(pts):
                if images[p] != p:
                    raise ValueError("cycles are not disjoint at point %d" % (p + base))
                images[p] = pts[(i + 1) % len(pts)]
        return cls(images)

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, point):
        return self.images[point]

    def __mul__(self, other):
        # (self*other)(v) = self(other(v))
        s, im = self.images, other.images
        if len(s) != len(im):
            raise TypeError("degree mismatch %d / %d" % (len(s), len(im)))
        if len(im) < 2:  # the identity; itemgetter needs two indices for a tuple
            return Permutation(im)
        return Permutation(itemgetter(*im)(s))

    def __invert__(self):
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(inv)

    def is_identity(self):
        return self.images == tuple(range(len(self.images)))

    def cycles(self):
        """Nontrivial cycles, each starting at its smallest point."""
        seen = [False] * len(self.images)
        out = []
        for i in range(len(self.images)):
            if seen[i]:
                continue
            cyc = [i]
            seen[i] = True
            j = self.images[i]
            while j != i:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def order(self):
        return lcm(1, *(len(c) for c in self.cycles()))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.images)
        return self._hash

    def __repr__(self):
        cycs = self.cycles()
        if not cycs:
            return "Permutation(id, n=%d)" % len(self.images)
        return "".join("(%s)" % " ".join(map(str, c)) for c in cycs)

    def serialize(self):
        return {"kind": "perm", "images": list(self.images)}


class SquareMatrix:
    """Invertible n x n matrix over a FieldSpec; rows of int codes."""

    __slots__ = ("field", "rows", "_hash")

    def __init__(self, field, rows):
        self.field = field
        self.rows = tuple(tuple(r) for r in rows)
        n = len(self.rows)
        for r in self.rows:
            if len(r) != n:
                raise ValueError("matrix is not square")
        self._hash = None

    @classmethod
    def identity(cls, field, n):
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, field, entries):
        n = len(entries)
        return cls(field, [[entries[i] if i == j else 0 for j in range(n)]
                           for i in range(n)])

    @property
    def n(self):
        return len(self.rows)

    def __mul__(self, other):
        F = self.field
        if not (isinstance(other, SquareMatrix) and other.field == F):
            return NotImplemented
        mul, add = F.mul, F.add
        bT = list(zip(*other.rows))
        out = []
        for arow in self.rows:
            orow = []
            for bcol in bT:
                acc = 0
                for x, y in zip(arow, bcol):
                    if x and y:
                        acc = add(acc, mul(x, y))
                orow.append(acc)
            out.append(orow)
        return SquareMatrix(F, out)

    def apply(self, vec):
        """Matrix * column vector (tuple of codes)."""
        F = self.field
        mul, add = F.mul, F.add
        out = []
        for arow in self.rows:
            acc = 0
            for x, y in zip(arow, vec):
                if x and y:
                    acc = add(acc, mul(x, y))
            out.append(acc)
        return tuple(out)

    def _elimination(self):
        """Row reduce a copy alongside the identity; return (rank, det, inverse-or-None)."""
        F = self.field
        n = self.n
        a = [list(r) for r in self.rows]
        b = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        det = 1
        rank = 0
        for col in range(n):
            piv = None
            for row in range(rank, n):
                if a[row][col]:
                    piv = row
                    break
            if piv is None:
                continue
            if piv != rank:
                a[piv], a[rank] = a[rank], a[piv]
                b[piv], b[rank] = b[rank], b[piv]
                det = F.neg(det)
            c = a[rank][col]
            det = F.mul(det, c)
            ci = F.inv(c)
            a[rank] = [F.mul(ci, x) for x in a[rank]]
            b[rank] = [F.mul(ci, x) for x in b[rank]]
            for row in range(n):
                if row != rank and a[row][col]:
                    f = a[row][col]
                    a[row] = [F.sub(x, F.mul(f, y)) for x, y in zip(a[row], a[rank])]
                    b[row] = [F.sub(x, F.mul(f, y)) for x, y in zip(b[row], b[rank])]
            rank += 1
        if rank < n:
            return rank, 0, None
        return rank, det, b

    def det(self):
        return self._elimination()[1]

    def rank(self):
        return self._elimination()[0]

    def __invert__(self):
        rank, _, inv = self._elimination()
        if inv is None:
            raise ValueError("matrix is singular (rank %d < %d)" % (rank, self.n))
        return SquareMatrix(self.field, inv)

    def trace(self):
        t = 0
        for i in range(self.n):
            t = self.field.add(t, self.rows[i][i])
        return t

    def transpose(self):
        return SquareMatrix(self.field, zip(*self.rows))

    def frobenius(self, e=1):
        F = self.field
        return SquareMatrix(F, [[F.frobenius(x, e) for x in row] for row in self.rows])

    def scale(self, c):
        F = self.field
        return SquareMatrix(F, [[F.mul(c, x) for x in row] for row in self.rows])

    def add(self, other):
        F = self.field
        return SquareMatrix(F, [[F.add(x, y) for x, y in zip(r1, r2)]
                                for r1, r2 in zip(self.rows, other.rows)])

    def is_identity(self):
        return all(x == (1 if i == j else 0)
                   for i, row in enumerate(self.rows) for j, x in enumerate(row))

    def __eq__(self, other):
        return (isinstance(other, SquareMatrix)
                and self.field == other.field and self.rows == other.rows)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field.q, self.rows))
        return self._hash

    def __repr__(self):
        return "SquareMatrix(GF(%d), %s)" % (self.field.q, [list(r) for r in self.rows])

    def serialize(self):
        return {"kind": "mat", "q": self.field.q, "rows": [list(r) for r in self.rows]}


class SemilinearElement:
    """Pair (A, e) acting as v -> A * frob^e(v); composition twists the right factor."""

    __slots__ = ("mat", "e", "_hash")

    def __init__(self, mat, e):
        self.mat = mat
        self.e = e % mat.field.k
        self._hash = None

    @property
    def field(self):
        return self.mat.field

    @property
    def n(self):
        return self.mat.n

    @classmethod
    def identity(cls, field, n):
        return cls(SquareMatrix.identity(field, n), 0)

    def __mul__(self, other):
        if not isinstance(other, SemilinearElement):
            return NotImplemented
        # (A,e)(B,f) acts by v -> A sig^e(B sig^f v) = (A sig^e(B)) sig^(e+f) v
        return SemilinearElement(self.mat * other.mat.frobenius(self.e),
                                 self.e + other.e)

    def __invert__(self):
        k = self.field.k
        e_inv = (-self.e) % k
        return SemilinearElement((~self.mat).frobenius(e_inv), e_inv)

    def apply(self, vec):
        F = self.field
        return self.mat.apply(tuple(F.frobenius(x, self.e) for x in vec))

    def is_identity(self):
        return self.e == 0 and self.mat.is_identity()

    def __eq__(self, other):
        return (isinstance(other, SemilinearElement)
                and self.e == other.e and self.mat == other.mat)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.e, self.mat))
        return self._hash

    def __repr__(self):
        return "SemilinearElement(%r, frob^%d)" % (self.mat, self.e)

    def serialize(self):
        d = self.mat.serialize()
        d["kind"] = "semilinear"
        d["frob"] = self.e
        return d


# ---- generic operations ---------------------------------------------------

def _check_compatible(a, b):
    if type(a) is not type(b):
        raise TypeError("incompatible element kinds %s / %s"
                        % (type(a).__name__, type(b).__name__))
    if isinstance(a, Permutation):
        if a.degree != b.degree:
            raise TypeError("degree mismatch %d / %d" % (a.degree, b.degree))
    else:
        if a.field != b.field or a.n != b.n:
            raise TypeError("ambient mismatch")


def compose(a, b):
    """Product with b applied first: compose(a, b)(v) = a(b(v))."""
    _check_compatible(a, b)
    return a * b


def inverse(a):
    return ~a


def conjugate(x, g):
    """g^-1 x g."""
    _check_compatible(x, g)
    return (~g) * x * g


def commutator(x, y):
    """[x, y] = x^-1 y^-1 x y."""
    _check_compatible(x, y)
    return (~x) * (~y) * x * y


def identity_like(x):
    if isinstance(x, Permutation):
        return Permutation.identity(x.degree)
    if isinstance(x, SquareMatrix):
        return SquareMatrix.identity(x.field, x.n)
    if isinstance(x, SemilinearElement):
        return SemilinearElement.identity(x.field, x.n)
    raise ValueError("unsupported element %r" % (x,))


def element_order(x):
    """Least m >= 1 with x^m = identity; Overflow past ORDER_CAP."""
    if isinstance(x, Permutation):
        m = x.order()
        if m > ORDER_CAP:
            raise Overflow("order %d exceeds cap %d" % (m, ORDER_CAP))
        return m
    acc = x
    m = 1
    while not acc.is_identity():
        acc = acc * x
        m += 1
        if m > ORDER_CAP:
            raise Overflow("element order exceeds cap %d" % ORDER_CAP)
    return m


def serialize_element(x):
    return x.serialize()


def deserialize_element(d):
    """Rebuild an element from its serialized dict (see each .serialize)."""
    from .fields import GF
    kind = d["kind"]
    if kind == "perm":
        return Permutation(d["images"])
    mat = SquareMatrix(GF(d["q"]), d["rows"])
    if kind == "mat":
        return mat
    if kind == "semilinear":
        return SemilinearElement(mat, d["frob"])
    raise ValueError("unknown element kind %r" % kind)
