"""Character tables and class-multiplication structure constants, in one
exact arithmetic: every value is reduced once into F_ell (CharacterTable),
and a structure constant, an integer below ell / 2, is its own residue.

A table is read-only once validated: class_constants keeps each class
pair's row on the table the first time it is read."""

import json
import math
import os
from operator import mul

from .cyclotomic import Cyclotomic
from .fields import is_p_power, is_prime, root_of_unity, working_prime
from .report import Verdict, HOLDS, FAILS, timed

_PACKAGED_DIR = os.path.join(os.path.dirname(__file__), "tables")


class TableError(ValueError):
    """A character-table file that fails parsing or validation."""


class CharacterTable:
    """Validated table: per-class data plus the matrix of irreducible values.

    classes: list of dicts {"size", "element_order", "powermap": {p: index}};
    irreducibles: rows of Cyclotomic values, one row per character, columns
    in class order with class 0 the identity.
    ell = 1 (mod M), M the lcm of the conductors, and ell > 2|G|; chi: the
    rows' residues mod ell at zeta_M -> z, a primitive M-th root of unity;
    weights: the residues of conj(chi) / (chi(1) |G|), conj(chi) taken at
    zeta_M -> 1/z.
    """

    def __init__(self, name, order, classes, irreducibles):
        self.name = str(name)
        self.order = int(order)
        self.classes = classes
        self.irreducibles = irreducibles
        self.degrees = self._validate()
        M = math.lcm(*(v.m for row in irreducibles for v in row))
        ell = self.ell = working_prime(self.order, M)
        z = root_of_unity(ell, M)
        self.chi, conj = ([[v.residue(pow(w, M // v.m, ell), ell)
                            for v in row] for row in irreducibles]
                          for w in (z, pow(z, -1, ell)))
        self.weights = [[x * pow(d * self.order, -1, ell) % ell for x in row]
                        for row, d in zip(conj, self.degrees)]
        self._check_orthogonality()
        self._rows = {}  # (i, j) -> every a_ijk, filled by class_constants

    # -- basic shape -------------------------------------------------------

    @property
    def n_classes(self):
        return len(self.classes)

    def size(self, k):
        return self.classes[k]["size"]

    def element_order(self, k):
        return self.classes[k]["element_order"]

    def _validate(self):
        """TableError on a malformed table; else the degrees, as a tuple."""
        r = len(self.classes)
        if self.order < 1 or r < 1:
            raise TableError("%s: empty table" % self.name)
        if len(self.irreducibles) != r:
            raise TableError("%s: size mismatch: %d characters vs %d classes"
                             % (self.name, len(self.irreducibles), r))
        for row in self.irreducibles:
            if len(row) != r:
                raise TableError("%s: size mismatch: ragged character row"
                                 % self.name)
        if self.classes[0]["size"] != 1 or self.classes[0]["element_order"] != 1:
            raise TableError("%s: class 0 must be the identity class" % self.name)
        if sum(c["size"] for c in self.classes) != self.order:
            raise TableError("%s: class sizes sum to %d, order is %d"
                             % (self.name, sum(c["size"] for c in self.classes),
                                self.order))
        for c in self.classes:
            if c["size"] < 1 or c["element_order"] < 1:
                raise TableError("%s: bad class data %r" % (self.name, c))
            for p, img in c["powermap"].items():
                if p < 2 or self.order % p or not is_prime(p):
                    raise TableError("%s: powermap key %r is not a prime "
                                     "dividing the order %d"
                                     % (self.name, p, self.order))
                if not 0 <= img < r:
                    raise TableError("%s: bad powermap entry %r -> %r"
                                     % (self.name, p, img))
        degs = []
        for row in self.irreducibles:
            v = row[0]
            if not v.is_rational_integer() or v.as_int() < 1:
                raise TableError("%s: degree column has a non-positive or "
                                 "irrational entry %r" % (self.name, v))
            degs.append(v.as_int())
        if sum(d * d for d in degs) != self.order:
            raise TableError("%s: sum of squared degrees %d != order %d"
                             % (self.name, sum(d * d for d in degs), self.order))
        return tuple(degs)

    def _check_orthogonality(self):
        """sum_k |C_k| chi_a(k) weights_b(k) = 1/chi_b(1) if a = b, else 0,
        at the one embedding zeta_M -> z: a screen, not a proof over
        Q(zeta_M)."""
        sizes = [c["size"] for c in self.classes]
        for a, row in enumerate(self.chi):
            sized = list(map(mul, sizes, row))
            for b, (w, d) in enumerate(zip(self.weights, self.degrees)):
                got = sum(map(mul, sized, w)) % self.ell
                if got != (pow(d, -1, self.ell) if a == b else 0):
                    raise TableError(
                        "%s: row orthogonality violated for characters "
                        "(%d, %d): got %d mod %d"
                        % (self.name, a, b, got, self.ell))

    # -- serialization -----------------------------------------------------

    def to_json(self):
        return {
            "name": self.name,
            "order": self.order,
            "classes": [{"size": c["size"],
                         "element_order": c["element_order"],
                         "powermap": {str(p): i
                                      for p, i in sorted(c["powermap"].items())}}
                        for c in self.classes],
            "irreducibles": [[v.to_json() for v in row]
                             for row in self.irreducibles],
        }

    @classmethod
    def from_json(cls, obj):
        try:
            name = obj["name"]
            order = obj["order"]
            classes = [{"size": int(c["size"]),
                        "element_order": int(c["element_order"]),
                        "powermap": {int(p): int(i)
                                     for p, i in c["powermap"].items()}}
                       for c in obj["classes"]]
            irreducibles = [[Cyclotomic.from_json(v) for v in row]
                            for row in obj["irreducibles"]]
        except (KeyError, TypeError, ValueError) as e:
            raise TableError("malformed table object: %s" % e) from e
        return cls(name, order, classes, irreducibles)


def parse_table(path):
    """Read and validate a character-table file; hard failure otherwise."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as e:
        raise TableError("cannot read %s: %s" % (path, e)) from e
    except json.JSONDecodeError as e:
        raise TableError("cannot parse %s: %s" % (path, e)) from e
    if not isinstance(obj, dict):
        raise TableError("%s: top level must be an object" % path)
    return CharacterTable.from_json(obj)


def table_search_path():
    """Directories searched for tables by name; BFL_TABLE_DIR goes first."""
    env = os.environ.get("BFL_TABLE_DIR")
    return (env.split(os.pathsep) if env else []) + [_PACKAGED_DIR]

def load_table(name_or_path):
    """Load a table by file path, or by name from the search path."""
    if os.sep in name_or_path or name_or_path.endswith(".json"):
        return parse_table(name_or_path)
    for d in table_search_path():
        cand = os.path.join(d, name_or_path + ".json")
        if os.path.exists(cand):
            return parse_table(cand)
    raise TableError("no table named %r on the search path %r"
                     % (name_or_path, table_search_path()))


# -- class algebra ---------------------------------------------------------

def _counts(T, i, j, ks, columns):
    """a_ijk for each k in ks, from the matching column of the weights, by
    the classical column formula: |C_i||C_j|/|G| * sum over characters of
    chi(c_i) chi(c_j) conj(chi(e)) / chi(1), evaluated mod ell.  A count
    lies in [0, min(|C_i|, |C_j|)] and ell > 2|G|, so the residue is the
    count; a residue outside that range means the table is bad."""
    s = T.size(i) * T.size(j)
    u = [row[i] * row[j] * s % T.ell for row in T.chi]
    counts = [sum(map(mul, u, w)) % T.ell for w in columns]
    cap = min(T.size(i), T.size(j))
    if max(counts) > cap:
        k, n = next((k, n) for k, n in zip(ks, counts) if n > cap)
        raise TableError("%s: structure constant (%d,%d,%d) is %d mod %d, "
                         "not a count" % (T.name, i, j, k, n, T.ell))
    return counts


def class_mult_count(T, i, j, e_class):
    """Number of pairs (c, d) in C_i x C_j with c*d = e, for one fixed e."""
    return _counts(T, i, j, [e_class], [[w[e_class] for w in T.weights]])[0]


def class_constants(T, i, j):
    """Every a_ijk = #{(c, d) in C_i x C_j : cd = e_k} of one class pair, k in
    class order, e_k a fixed element of C_k, as a fresh list; the row is
    evaluated on its first read and kept on the table."""
    row = T._rows.get((i, j))
    if row is None:
        row = T._rows[i, j] = tuple(_counts(T, i, j, range(T.n_classes),
                                            zip(*T.weights)))
    return list(row)


def product_support(T, i, j):
    """Class indices hit by C_i * C_j, with their per-element pair counts."""
    return {k: n for k, n in enumerate(class_constants(T, i, j)) if n}


@timed
def bf_pair_table(T, i, j, p):
    """Class-level test: everything in the support of C_i*C_j is a p-element.

    Necessary-only: p-power product orders do not by themselves force every
    generated subgroup to be a p-group.  The one clean exception is p = 2 with
    both classes involutions, where two involutions generate a dihedral group
    whose order is read off the product order, making the test equivalent.
    """
    support = product_support(T, i, j)
    offenders = [{"class": k, "element_order": T.element_order(k),
                  "count": n} for k, n in sorted(support.items())
                 if not is_p_power(T.element_order(k), p)]
    notes = ["necessary-only class-level test"]
    if p == 2 and T.element_order(i) == 2 and T.element_order(j) == 2:
        notes = ["both classes are involutions: product-order test is "
                 "equivalent to the pair test"]
    return Verdict(
        scenario="bf-pair-table:%s[%d,%d],p=%d" % (T.name, i, j, p),
        status=FAILS if offenders else HOLDS,
        witnesses=offenders,
        counters={"support_classes": len(support),
                  "offending_classes": len(offenders)},
        notes=notes)
