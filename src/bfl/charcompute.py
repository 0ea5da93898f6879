"""Brute-force character tables for small fully-enumerable groups.

Structure constants are counted from explicit class-sum products on the
permutation image, once per class triple: the number of solutions of
xyz = 1 with x, y, z in three given classes is symmetric in the classes,
so the pairs within two halves of the classes are counted over the smaller
class and the pairs across them are derived exactly.  The irreducible
characters are the common eigenvectors of the class matrices (Dixon 1967;
Schneider 1990), computed exactly over a prime field F_ell with
ell = 1 (mod exponent) and ell above 2|G| and 2r^3 (over 40000 for alt:8)
as the eigenvectors of one generic combination of them, whose roots
Cantor-Zassenhaus splits off by polynomial gcds; they are lifted to
cyclotomic integers by Fourier inversion on the eigenvalue multiplicities
of each power class.  The prime, a root of unity mod it and the polynomial
arithmetic over F_ell come from fields.
"""

import math
from operator import mul

from .classes import enumerate_classes
from .chartab import CharacterTable, class_constants
from .cyclotomic import Cyclotomic
from .fields import (factorize, poly_divmod, poly_gcd, poly_powmod, poly_sub,
                     poly_trim, root_of_unity, working_prime)

# shipped table name -> catalog blueprint
SHIPPED_TABLES = (
    ("a5", "alt:5"),
    ("s5", "sym:5"),
    ("a6", "alt:6"),
    ("s6", "sym:6"),
    ("pgl2_9", "psl2:9:diag"),
    ("m10", "psl2:9:diagfrob"),
    ("l2_7", "psl2:7"),
    ("l2_8", "psl2:8"),
    ("l2_11", "psl2:11"),
)


def structure_constants(G):
    """(classes, loc, a) with a[i][j][k] = #{(c,d) in C_i x C_j : cd = e_k}.

    e_k is any fixed element of C_k; only one representative c per C_i is
    scanned, since conjugating d by the element carrying rep to c is a
    bijection of the solution set.  The triple count #{xyz = 1 : x in C_i,
    y in C_j, z in C_k} is |C_k| a[i][j][k*], k* the class of the inverses of
    C_k, and is symmetric in i, j and k (class sums commute).  So the classes
    are split into two halves, alternately in size order, and each class
    triple is counted once: a pair within a half, diagonal included, is
    counted as the larger class's representative against the members of
    the smaller, and a pair across the halves is read off the counted pair
    of k* with whichever of i, j shares its half, as
    a[i][j][k] = |C_j| a[i][k*][j*] / |C_k| = |C_i| a[j][k*][i*] / |C_k|.
    a[i][j] and a[j][i] are separate lists.  Products run on raw images
    (`Group.raw`, composed by `Chain.kernel`), keys of loc: no member
    becomes a permutation.
    """
    cls = enumerate_classes(G)
    loc = {x: k for k, C in enumerate(cls) for x in C.raw}
    r = len(cls)
    sizes = [C.size for C in cls]
    reps = [G.chain.kernel[1](G.raw(C.representative, C.label)) for C in cls]
    star = [loc[G.raw(~C.representative, C.label)] for C in cls]
    half = [0] * r
    for n, k in enumerate(sorted(range(r), key=sizes.__getitem__)):
        half[k] = n % 2
    a = [[None] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            if half[i] != half[j]:
                continue
            big, small = (i, j) if sizes[i] >= sizes[j] else (j, i)
            rep = reps[big]
            hits = [0] * r
            for x in map(rep, cls[small].raw):
                hits[loc[x]] += 1
            row = []
            for k in range(r):
                total = sizes[big] * hits[k]
                if total % sizes[k]:
                    raise AssertionError(
                        "(%d,%d,%d): %d hits times class size %d is not "
                        "divisible by class size %d"
                        % (big, small, k, hits[k], sizes[big], sizes[k]))
                row.append(total // sizes[k])
            a[i][j], a[j][i] = row, row[:]
    for i in range(r):
        for j in range(r):
            if a[i][j] is not None:
                continue
            row = []
            for k in range(r):
                s, t = (i, j) if half[star[k]] == half[i] else (j, i)
                total = sizes[t] * a[s][star[k]][star[t]]
                if total % sizes[k]:
                    raise AssertionError(
                        "(%d,%d,%d): %d triples are not divisible by class "
                        "size %d" % (i, j, k, total, sizes[k]))
                row.append(total // sizes[k])
            a[i][j] = row
    return cls, loc, a


# -- modular linear algebra -------------------------------------------------

def _charpoly(M, ell):
    """Coefficients c_0..c_r of det(xI - M) mod ell (Faddeev-LeVerrier)."""
    r = len(M)
    coeffs = [0] * (r + 1)
    coeffs[r] = 1
    A = [row[:] for row in M]
    for k in range(1, r + 1):
        tr = sum(A[t][t] for t in range(r)) % ell
        c = (-tr * pow(k, -1, ell)) % ell
        coeffs[r - k] = c
        if k == r:
            break
        for t in range(r):
            A[t][t] = (A[t][t] + c) % ell
        cols = list(zip(*A))
        A = [[sum(map(mul, row, col)) % ell for col in cols] for row in M]
    return coeffs


def _poly_roots(coeffs, ell):
    """The distinct roots in F_ell (ell an odd prime) of a nonzero sum c_k x^k,
    sorted.

    Cantor-Zassenhaus: gcd(f, x^ell - x) is the product of x - r over the
    roots r.  A factor g of degree > 1 is cut into g / h and
    h = gcd(g, (x + a)^((ell-1)/2) - 1), whose roots are the r with r + a a
    nonzero square, for a = 1, 2, ... in turn; a cut that is not proper
    passes g on to the next a.
    """
    f = poly_trim([c % ell for c in coeffs])
    todo = [poly_gcd(f, poly_sub(poly_powmod([0, 1], ell, f, ell), [0, 1], ell),
                     ell)]
    roots, a = [], 1
    while todo:
        g = todo.pop()
        if len(g) == 2:
            roots.append(-g[0] * pow(g[1], -1, ell) % ell)
        elif len(g) > 2:
            h = poly_powmod([a, 1], (ell - 1) // 2, g, ell)
            h = poly_gcd(g, poly_sub(h, [1], ell), ell)
            todo += [h, poly_divmod(g, h, ell)[0]]
            a += 1
    return sorted(roots)


def _null_vector(rows, ell):
    """A nonzero u with sum_t rows[s][t] u_t = 0 for every s, over F_ell:
    Gauss-Jordan until the first free column f, then u_f = 1 (later pivots
    leave column f alone); None if there is no free column."""
    A = [row[:] for row in rows]
    pivots = []
    for col in range(len(A[0])):
        row = len(pivots)
        piv = next((s for s in range(row, len(A)) if A[s][col]), None)
        if piv is None:
            u = [0] * len(A[0])
            u[col] = 1
            for s, c in enumerate(pivots):
                u[c] = -A[s][col] % ell
            return u
        A[row], A[piv] = A[piv], A[row]
        inv = pow(A[row][col], -1, ell)
        A[row] = [v * inv % ell for v in A[row]]
        for s in range(len(A)):
            if s != row and A[s][col]:
                f = A[s][col]
                A[s] = [(x - f * y) % ell for x, y in zip(A[s], A[row])]
        pivots.append(col)
    return None


def _eigenvectors(class_mats, ell):
    """Common eigenvectors (up to scale) of commuting r x r matrices M_i:
    the eigenvectors of the first M_t = sum_i t^i M_i, t >= 2, with r distinct
    roots mod ell.  (t = 1 is the whole group's class sum; distinct central
    characters agree at < r values of t mod ell, so < r^3 / 2 values of t
    fail, and for ell > r^3 + 1 some t in [2, r^3 + 1] succeeds.)"""
    r = len(class_mats[0])
    for t in range(2, 2 + r ** 3):
        ts = [pow(t, i, ell) for i in range(len(class_mats))]
        Mt = [[sum(c * M[j][k] for c, M in zip(ts, class_mats)) % ell
               for k in range(r)] for j in range(r)]
        roots = _poly_roots(_charpoly(Mt, ell), ell)
        if len(roots) == r:
            return [_null_vector([[(v - lam * (j == k)) % ell
                                   for k, v in enumerate(row)]
                                  for j, row in enumerate(Mt)], ell)
                    for lam in roots]
    raise AssertionError("no M_t for t in [2, %d] has %d distinct roots mod %d"
                         % (1 + r ** 3, r, ell))


# -- table assembly ---------------------------------------------------------

def build_table(G, name):
    """Compute the full character table of an enumerable group, cross-checked
    against the counted structure constants."""
    cls, loc, a = structure_constants(G)
    r = len(cls)
    sizes = [C.size for C in cls]
    orders = [C.order for C in cls]
    exponent = math.lcm(*orders)
    grp_order = sum(sizes)
    # ell > 2 r^3 keeps the r^3 values of t in _eigenvectors apart mod ell
    ell = working_prime(max(grp_order, r ** 3), exponent)
    z_exp = root_of_unity(ell, exponent)

    # powers of each representative, as class indices
    powcls = []
    times = G.chain.kernel[1]
    for C in cls:
        rep = times(G.raw(C.representative, C.label))
        idx, y = [], cls[0].raw[0]  # class 0 is the identity's
        for _ in range(C.order):
            idx.append(loc[y])
            y = rep(y)
        powcls.append(idx)
    inv_idx = [powcls[k][-1] if cls[k].order > 1 else 0 for k in range(r)]
    # per class, the o powers of z^-1, z = z_exp^(exponent/o) of order o
    zinv = []
    for o in orders:
        zi = pow(z_exp, exponent - exponent // o, ell)
        zinv.append([pow(zi, j, ell) for j in range(o)])

    rows = []
    for w in _eigenvectors(a, ell):
        if w[0] == 0:
            raise AssertionError("central character vanishes on the identity")
        scale = pow(w[0], -1, ell)
        w = [(v * scale) % ell for v in w]
        s = sum(w[k] * w[inv_idx[k]] * pow(sizes[k], -1, ell)
                for k in range(r)) % ell
        d2 = (grp_order * pow(s, -1, ell)) % ell
        d = math.isqrt(d2)
        if d * d != d2:
            raise AssertionError("degree squared %d is not a square" % d2)
        chi = [(d * w[k] * pow(sizes[k], -1, ell)) % ell for k in range(r)]
        values = []
        for k in range(r):
            o, zk = orders[k], zinv[k]
            inv_o = pow(o, -1, ell)
            mu = []
            for t in range(o):
                m = sum(chi[powcls[k][s_]] * zk[s_ * t % o]
                        for s_ in range(o)) * inv_o % ell
                if m > d:
                    raise AssertionError("eigenvalue multiplicity %d out of "
                                         "range for degree %d" % (m, d))
                mu.append(m)
            if sum(mu) != d:
                raise AssertionError("multiplicities do not sum to the degree")
            values.append(Cyclotomic(o, mu).normalized())
        rows.append(values)
    rows.sort(key=lambda row: (row[0].as_int(), [v.key() for v in row]))

    classes = []
    primes = sorted(factorize(grp_order))
    for k, C in enumerate(cls):
        pm = {p: powcls[k][p % C.order] for p in primes}
        classes.append({"size": C.size, "element_order": C.order,
                        "powermap": pm})

    T = CharacterTable(name, grp_order, classes, rows)
    _cross_check(T, a)
    return T


def _cross_check(T, a):
    """Every structure constant from the table must match the counted one."""
    for i in range(T.n_classes):
        for j in range(T.n_classes):
            got = class_constants(T, i, j)
            for k, (n, want) in enumerate(zip(got, a[i][j])):
                if n != want:
                    raise AssertionError(
                        "%s: table gives %d for (%d,%d,%d), counting gives %d"
                        % (T.name, n, i, j, k, want))
