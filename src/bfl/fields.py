"""Finite field arithmetic GF(q), q = r^k, and polynomials over F_p.

Field elements are plain ints in range(q).  For extension fields the int
packs the coefficient vector of the residue polynomial in base r, least
significant coefficient first, so the residue class of x itself has code r.
Fields of up to _TABLE_CAP elements run off q x q lookup tables (every
shipped size, q <= 81); larger ones reduce each product by the modulus.
The module is the one home of prime-field arithmetic: coefficient-list
polynomials over F_p, Ben-Or's irreducibility test for a modulus,
primality, factorization, and the working prime ell = 1 (mod m) with a
primitive m-th root of unity mod ell.
"""

from functools import lru_cache
from itertools import count, product, zip_longest

# monic irreducible moduli, coefficients low degree first, constant term first
DEFAULT_MODULI = {
    4: (1, 1, 1),         # x^2 + x + 1
    8: (1, 1, 0, 1),      # x^3 + x + 1
    9: (1, 0, 1),         # x^2 + 1
    16: (1, 1, 0, 0, 1),  # x^4 + x + 1
    25: (2, 0, 1),        # x^2 + 2
    27: (1, 2, 0, 1),     # x^3 + 2x + 1
    49: (1, 0, 1),        # x^2 + 1
    81: (2, 1, 0, 0, 1),  # x^4 + x + 2
}

FIELD_SIZES = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 49, 81)

_TABLE_CAP = 2048  # build full q x q tables up to this size


def is_p_power(n, p):
    """True iff n = p^a for some a >= 0; ValueError for n < 1 or p < 2."""
    if n < 1 or p < 2:
        raise ValueError("is_p_power needs n >= 1 and p >= 2, got n=%r, p=%r"
                         % (n, p))
    while n % p == 0:
        n //= p
    return n == 1


def factorize(n):
    """Prime factorization as a dict prime -> exponent (trial division)."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n):
    """Miller-Rabin to the prime bases up to 41: exact for n below
    3.3e24 (Sorenson and Webster 2015), a strong probable-prime test above."""
    if n < 2 or any(n % p == 0 for p in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # 2^s exactly divides n - 1
    d = (n - 1) >> s
    return all(pow(a, d, n) == 1 or any(pow(a, d << j, n) == n - 1
                                        for j in range(s))
               for a in _MR_BASES)


def working_prime(order, exponent):
    """Smallest prime ell = 1 (mod exponent) with ell > 2*order."""
    k = (2 * order) // exponent + 1
    while not is_prime(k * exponent + 1):
        k += 1
    return k * exponent + 1


def _least_generator(n, power):
    """The least a >= 1 of order n in a cyclic group of order n, given its
    powering: power(a, n // p) != 1 for every prime p dividing n."""
    fac = factorize(n)
    return next(a for a in count(1)
                if all(power(a, n // p) != 1 for p in fac))


def root_of_unity(ell, m):
    """A primitive m-th root of unity mod the prime ell = 1 (mod m): the
    (ell-1)/m-th power of the least a for which that power has order m.
    Only m is factored, so a large ell costs nothing extra."""
    e = (ell - 1) // m
    return pow(_least_generator(m, lambda a, n: pow(a, e * n, ell)), e, ell)


# polynomials over F_p are coefficient lists c_0..c_d with c_d != 0

def poly_trim(a):
    """Drop a's trailing zero coefficients, in place; return a."""
    while a and not a[-1]:
        a.pop()
    return a


def poly_sub(a, b, p):
    return poly_trim([(x - y) % p for x, y in zip_longest(a, b, fillvalue=0)])


def poly_divmod(a, m, p):
    """Quotient and remainder of a by a nonzero m."""
    a, d, inv = list(a), len(m) - 1, pow(m[-1], -1, p)
    q = [0] * max(len(a) - d, 0)
    for k in reversed(range(len(q))):
        c = q[k] = a[k + d] * inv % p
        a[k:k + d + 1] = [(x - c * y) % p for x, y in zip(a[k:], m)]
    return q, poly_trim(a[:d])


def poly_gcd(a, b, p):
    """A gcd (up to a unit) of a nonzero a and any b."""
    while b:
        a, b = b, poly_divmod(a, b, p)[1]
    return a


def poly_mulmod(a, b, m, p):
    """a * b mod m."""
    prod = [0] * (len(a) + len(b))
    for s, x in enumerate(a):
        for t, y in enumerate(b):
            prod[s + t] += x * y
    return poly_divmod([c % p for c in prod], m, p)[1]


def poly_powmod(base, e, m, p):
    """base^e mod m, by squaring."""
    out, base = [1], poly_divmod(base, m, p)[1]
    while e:
        if e & 1:
            out = poly_mulmod(out, base, m, p)
        base, e = poly_mulmod(base, base, m, p), e >> 1
    return out


class FieldSpec:
    """GF(q) with q = r^k: arithmetic tables plus the element codec."""

    def __init__(self, r, k=1, modulus=None):
        if not is_prime(r):
            raise ValueError("characteristic %r is not prime" % (r,))
        if k < 1:
            raise ValueError("degree must be >= 1")
        q = r ** k
        if q > 2 ** 20:
            raise ValueError("field size %d exceeds cap 2^20" % q)
        if k == 1:
            if modulus is not None:
                raise ValueError("GF(%d) is a prime field and takes no "
                                 "modulus, got %r" % (r, modulus))
            modulus = (0, 1)
        else:
            if modulus is None:
                if q not in DEFAULT_MODULI:
                    raise ValueError("no shipped modulus for GF(%d); pass one" % q)
                modulus = DEFAULT_MODULI[q]
            modulus = tuple(m % r for m in modulus)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree %d" % k)
            self._check_irreducible(modulus, r, k)
        self.r = r
        self.k = k
        self.q = q
        self.modulus = modulus
        self._prim = None
        if q <= _TABLE_CAP:
            self._build_tables()
        else:
            self.ADD = self.MUL = self.FROB = None

    @staticmethod
    def _check_irreducible(modulus, r, k):
        """Ben-Or: a degree-k f over F_r is irreducible iff
        gcd(f, x^(r^i) - x) = 1 for 1 <= i <= k/2."""
        f, h = list(modulus), [0, 1]
        for i in range(1, k // 2 + 1):
            h = poly_powmod(h, r, f, r)
            if len(poly_gcd(f, poly_sub(h, [0, 1], r), r)) > 1:
                raise ValueError("modulus %r is reducible mod %d: a factor "
                                 "has degree dividing %d" % (modulus, r, i))

    # ---- codec -------------------------------------------------------

    def coeffs(self, a):
        """Coefficient tuple of element code a, low degree first."""
        out = []
        for _ in range(self.k):
            out.append(a % self.r)
            a //= self.r
        return tuple(out)

    def encode(self, coeffs):
        a = 0
        for c in reversed(coeffs):
            a = a * self.r + (c % self.r)
        return a

    def encode_int(self, n):
        """The image of the integer n (lands in the prime subfield)."""
        return n % self.r

    # ---- raw arithmetic (builds the tables; serves fields above the cap)

    def _mul_raw(self, a, b):
        if self.k == 1:
            return (a * b) % self.r
        return self.encode(poly_mulmod(self.coeffs(a), self.coeffs(b),
                                       self.modulus, self.r))

    def _add_raw(self, a, b):
        r, k = self.r, self.k
        if k == 1:
            return (a + b) % r
        ca, cb = self.coeffs(a), self.coeffs(b)
        return self.encode([(x + y) % r for x, y in zip(ca, cb)])

    def _build_tables(self):
        """MUL, INV and FROB from the powers of the primitive element: a
        nonzero a is g^log(a), so a product is a sum of logarithms.  ADD is
        built one base-r digit at a time: codes below r^(m+1) are s r^m + a'
        with a' below r^m, and digits add apart."""
        q, r, n = self.q, self.r, self.q - 1
        g = self.primitive()
        exp = [1]
        for _ in range(n - 1):
            exp.append(self._mul_raw(exp[-1], g))
        log = [0] * q
        for e, x in enumerate(exp):
            log[x] = e
        exp2 = exp * 2
        self.MUL = [[0] * q] + [[0] + [exp2[log[a] + log[b]]
                                       for b in range(1, q)]
                                for a in range(1, q)]
        self.INV = [0] + [exp[-log[a] % n] for a in range(1, q)]
        self.FROB = [[0] + [exp[log[a] * r ** e % n] for a in range(1, q)]
                     for e in range(self.k)]
        add, size = [[0]], 1
        for _ in range(self.k):
            add = [[x + size * ((s + t) % r) for t in range(r) for x in row]
                   for s in range(r) for row in add]
            size *= r
        self.ADD = add
        self.NEG = [row.index(0) for row in add]

    # ---- public ops --------------------------------------------------

    def add(self, a, b):
        return self.ADD[a][b] if self.ADD else self._add_raw(a, b)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        if self.ADD:
            return self.NEG[a]
        return self.encode([(-c) % self.r for c in self.coeffs(a)])

    def mul(self, a, b):
        return self.MUL[a][b] if self.MUL else self._mul_raw(a, b)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(%d)" % self.q)
        if self.ADD:
            return self.INV[a]
        return self.pow(a, self.q - 2)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, n):
        if n < 0:
            a, n = self.inv(a), -n
        out, base = 1, a
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def frobenius(self, a, e=1):
        """a ^ (r^e), the field automorphism applied e times."""
        if self.FROB:
            return self.FROB[e % self.k][a]
        out = a
        for _ in range(e % self.k):
            out = self.pow(out, self.r)
        return out

    def elements(self):
        return range(self.q)

    def primitive(self):
        """A fixed generator of the multiplicative group (smallest code),
        found on raw arithmetic, so the tables can be built from it."""
        if self._prim is None:
            self._prim = _least_generator(self.q - 1, lambda a, e: self.encode(
                poly_powmod(self.coeffs(a), e, self.modulus, self.r)))
        return self._prim

    # ---- identity ----------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, FieldSpec)
                and self.q == other.q and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.q, self.modulus))

    def __repr__(self):
        return "GF(%d)" % self.q


@lru_cache(maxsize=None)
def GF(q):
    """The cached field of size q with the shipped modulus."""
    fac = factorize(q)
    if len(fac) != 1:
        raise ValueError("%d is not a prime power" % q)
    [(r, k)] = fac.items()
    return FieldSpec(r, k)


def projective_points(F, n):
    """One vector per line of F^n, its first nonzero coordinate 1, in
    lexicographic order of the code tuples."""
    for lead in reversed(range(n)):
        for tail in product(range(F.q), repeat=n - 1 - lead):
            yield (0,) * lead + (1,) + tail
