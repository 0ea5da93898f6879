"""Exact cyclotomic integers: Z-linear combinations of m-th roots of unity,
read through their residues mod a prime (a ring map), never as floats."""


class Cyclotomic:
    """Sum c_k * zeta_m^k with integer coefficients c_0..c_{m-1}."""

    __slots__ = ("m", "c")

    def __init__(self, m, c):
        m = int(m)
        if m < 1:
            raise ValueError("conductor must be >= 1")
        c = tuple(int(x) for x in c)
        if len(c) != m:
            raise ValueError("need exactly m coefficients, got %d for m=%d"
                             % (len(c), m))
        self.m = m
        self.c = c

    @classmethod
    def integer(cls, n):
        return cls(1, (n,))

    def residue(self, w, ell):
        """The image mod ell when zeta_m maps to w, an m-th root of unity."""
        return sum(ck * pow(w, k, ell) for k, ck in enumerate(self.c)) % ell

    def normalized(self):
        """Tidy the coefficients without changing the value.

        Even m: fold zeta^(t+m/2) = -zeta^t into the lower half.  Odd m > 1:
        subtract a multiple of 1 + zeta + ... + zeta^(m-1) = 0 so the smallest
        coefficient becomes zero.  Plain integers come out as conductor 1.
        """
        m = self.m
        c = list(self.c)
        if m % 2 == 0:
            h = m // 2
            for t in range(h):
                c[t] -= c[t + h]
                c[t + h] = 0
        elif m > 1:
            low = min(c)
            c = [x - low for x in c]
        if all(x == 0 for x in c[1:]):
            return Cyclotomic(1, (c[0],))
        return Cyclotomic(m, c)

    def is_rational_integer(self):
        return all(ck == 0 for ck in self.c[1:])

    def as_int(self):
        if not self.is_rational_integer():
            raise ValueError("not a rational integer: %r" % (self,))
        return self.c[0]

    def to_json(self):
        """Integer when possible, else {"m": conductor, "c": coefficients}."""
        if self.is_rational_integer():
            return self.c[0]
        return {"m": self.m, "c": list(self.c)}

    @classmethod
    def from_json(cls, obj):
        if isinstance(obj, bool):
            raise ValueError("bad cyclotomic value: %r" % (obj,))
        if isinstance(obj, int):
            return cls.integer(obj)
        if isinstance(obj, dict) and set(obj) == {"m", "c"}:
            return cls(obj["m"], obj["c"])
        raise ValueError("bad cyclotomic value: %r" % (obj,))

    def key(self):
        """Deterministic sort/compare key."""
        return (self.m, self.c)

    def __eq__(self, other):
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        if self.is_rational_integer():
            return "Cyclotomic.integer(%d)" % self.c[0]
        return "Cyclotomic(%d, %r)" % (self.m, self.c)
