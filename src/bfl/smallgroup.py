"""Indexed small groups: full element tables, subgroups, quotients."""

import operator
from functools import partial

from .elements import element_order
from .fields import is_p_power
from .groups import orbit

TABLE_LIMIT = 256   # groups up to this order get a full multiplication table
_MEMO_CAP = 500_000


class SmallGroup:
    """A finite group as an indexed element list; index 0 is the identity.

    Multiplication runs off a full table for small orders, otherwise off the
    underlying elements with memoization; classes and normal closures run
    on each generator's conjugation as an index tuple.  Built by
    generate() (breadth-first closure, recording how each element arose from
    the generators), induced() (subgroup of an existing SmallGroup) or
    quotient().
    """

    def __init__(self, elements, gens, table=None, name="",
                 derivations=None):
        self.elements = list(elements)
        self.gens = list(gens)
        self.table = table
        self.name = name
        self.derivations = derivations  # per element: None or (gen_pos, parent)
        self._index = None
        self._memo = {}
        self._inv = None
        self._orders = None
        self._classes = None
        self._conj = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def generate(cls, gens, identity, name="", cap=8192):
        """The orbit of the identity under left multiplication by the
        generators, in breadth-first order: the identity gets index 0, and
        element i arose as gens[gen_pos] * element[parent] for its
        derivation (gen_pos, parent), parent < i."""
        tree = orbit([identity], [partial(operator.mul, g) for g in gens], cap,
                     "group closure")
        elements = list(tree)
        index = {x: k for k, x in enumerate(elements)}
        derivations = [d and (d[0], index[d[1]]) for d in tree.values()]
        gen_idx = [i for i in dict.fromkeys(map(index.__getitem__, gens)) if i]
        S = cls(elements, gen_idx or [0], name=name, derivations=derivations)
        S._index = index
        if len(elements) <= TABLE_LIMIT:
            S._build_table(gens)
        return S

    @classmethod
    def from_group(cls, G, name="", cap=8192):
        """G indexed on its faithful permutation image: the breadth-first
        indices are those of G's own elements."""
        return cls.generate(G.image_gens, G.chain.identity,
                            name=name or G.name, cap=cap)

    def _build_table(self, raw_gens):
        """Rows by composition along the derivation tree: one underlying
        product per (generator, element) pair, then tuple indexing."""
        n = len(self.elements)
        idx = self._index
        rows = [None] * n
        rows[0] = tuple(range(n))
        # generator left-translation rows, one underlying product per entry
        gen_rows = {}
        for gi in sorted({d[0] for d in self.derivations if d}):
            g = raw_gens[gi]
            gen_rows[gi] = tuple(idx[g * x] for x in self.elements)
        for i in range(1, n):
            gi, parent = self.derivations[i]
            base = rows[parent]
            grow = gen_rows[gi]
            rows[i] = tuple(grow[j] for j in base)
        self.table = rows

    def induced(self, indices):
        """The subgroup on a closed set of indices (else ValueError), as its
        own SmallGroup: member k is sorted(indices)[k] of this group."""
        sub = sorted(indices)
        if sub[0] != 0:
            raise ValueError("subgroup must contain the identity")
        remap = {q: s for s, q in enumerate(sub)}
        try:
            table = [tuple(remap[self.mul(a, b)] for b in sub) for a in sub]
        except KeyError as e:
            raise ValueError("indices are not closed: the product %d of two "
                             "of them is missing" % e.args[0]) from None
        return SmallGroup([self.elements[q] for q in sub],
                          _minimal_gens_for_table(table), table=table,
                          name="%s|%d" % (self.name, len(sub)))

    # -- arithmetic --------------------------------------------------------

    @property
    def order(self):
        return len(self.elements)

    def mul(self, i, j):
        if self.table is not None:
            return self.table[i][j]
        key = (i, j)
        t = self._memo.get(key)
        if t is None:
            t = self._index[self.elements[i] * self.elements[j]]
            if len(self._memo) < _MEMO_CAP:
                self._memo[key] = t
        return t

    def inv(self, i):
        if self._inv is None:
            self._inv = [None] * self.order
        if self._inv[i] is None:
            if self.table is not None:
                self._inv[i] = self.table[i].index(0)
            else:
                self._inv[i] = self._index[~self.elements[i]]
        return self._inv[i]

    def _conj_row(self, g):
        """x -> g^-1 x g as an index tuple, built once: x g read at g^-1 x,
        with g x and x g off the table or one underlying product each."""
        row = self._conj.get(g)
        if row is None:
            if self.table is not None:
                left, right = self.table[g], [r[g] for r in self.table]
            else:
                y, idx = self.elements[g], self._index
                left = [idx[y * x] for x in self.elements]
                right = [idx[x * y] for x in self.elements]
            inv_left = [0] * self.order
            for x, gx in enumerate(left):
                inv_left[gx] = x
            row = self._conj[g] = tuple(map(right.__getitem__, inv_left))
        return row

    def left(self, g):
        """x -> g x on indices: a lookup in g's table row, else `mul`."""
        return (self.table[g].__getitem__ if self.table is not None
                else partial(self.mul, g))

    def conj(self, g):
        """x -> g^-1 x g on indices, off g's conjugation row."""
        return self._conj_row(g).__getitem__

    def element_order(self, i):
        """Order of element i: read off the element itself when the group has
        no table, else the size of the cyclic subgroup it generates."""
        if self._orders is None:
            self._orders = [None] * self.order
        if self._orders[i] is None:
            self._orders[i] = (element_order(self.elements[i])
                               if self.table is None
                               else len(self.closure([i])))
        return self._orders[i]

    # -- structure ---------------------------------------------------------

    def closure(self, seed):
        """Indices of the subgroup generated by the seed indices."""
        return frozenset(orbit([0], [self.left(g) for g in seed if g]))

    def normal_closure(self, seed):
        """Smallest normal subgroup containing the seed indices: the orbit of
        the identity under left multiplication by the seeds and conjugation by
        the generators (closed under the seeds' conjugates, so a subgroup)."""
        maps = [self.left(s) for s in set(seed) if s]
        return frozenset(orbit([0], maps + list(map(self.conj, self.gens))))

    def derived_indices(self):
        """The commutator subgroup: normal closure of generator commutators."""
        mul, inv = self.mul, self.inv
        return self.normal_closure({mul(mul(inv(a), inv(b)), mul(a, b))
                                    for a in self.gens for b in self.gens})

    def class_partition(self):
        """Conjugacy classes as frozensets of indices, ordered by least index:
        orbits under the generators' conjugation tuples."""
        if self._classes is not None:
            return self._classes
        maps = list(map(self.conj, self.gens))
        seen = [False] * self.order
        out = []
        for i in range(self.order):
            if seen[i]:
                continue
            cls = frozenset(orbit([i], maps))
            for x in cls:
                seen[x] = True
            out.append(cls)
        self._classes = out
        return out

    def __repr__(self):
        return "SmallGroup(%s, order %d)" % (self.name or "?", self.order)


def _minimal_gens_for_table(table):
    """Greedy generating set for a table-backed group."""
    gens, got = [], {0}
    for i in range(1, len(table)):
        if i not in got:
            gens.append(i)
            got = orbit([0], [table[g].__getitem__ for g in gens])
    return gens or [0]


def group_order(H):
    """The order of a Group (a method) or a SmallGroup (an attribute)."""
    return H.order() if callable(H.order) else H.order


def is_p_group(H, p):
    """Order is a power of p; H may be a Group or a SmallGroup."""
    return is_p_power(group_order(H), p)


# -- subgroup lattices --------------------------------------------------------

def _by_order(A):
    return len(A), sorted(A)


def two_generated(S):
    """Every subgroup generated by at most two elements, as a dict from its
    index-frozenset to a generating pair, in (order, members) order: the
    closure of each pair of cyclic subgroups, each cyclic subgroup named by
    its least generator, keyed to the first pair that closes to it."""
    cyclic = {}
    for i in range(S.order):
        cyclic.setdefault(S.closure([i]), i)
    gens, pairs = list(cyclic.values()), {}
    for k, x in enumerate(gens):
        for y in gens[k:]:
            pairs.setdefault(S.closure([x, y]), (x, y))
    return {H: pairs[H] for H in sorted(pairs, key=_by_order)}


def normal_subgroups(S):
    """All normal subgroups, sorted by (order, members): the orbit of the
    trivial subgroup under the join with the normal closure of each
    non-identity class.  For A normal and x a class representative outside
    A, that join is the orbit of A under left multiplication by x and
    conjugation by the generators."""
    conj = list(map(S.conj, S.gens))

    def join(x, A):
        return A if x in A else frozenset(orbit(A, [S.left(x)] + conj))

    maps = [partial(join, min(c)) for c in S.class_partition() if 0 not in c]
    return sorted(orbit([frozenset([0])], maps), key=_by_order)


def quotient(S, N):
    """Coset group of a normal index-set N; identity coset gets index 0."""
    N = frozenset(N)
    if 0 not in N:
        raise ValueError("N must contain the identity")
    if not all(N.issuperset(map(S.left(a), N)) for a in N):
        raise ValueError("N is not closed under multiplication")
    if not all(N.issuperset(map(S.conj(g), N)) for g in S.gens):
        raise ValueError("N is not normal: conjugation escapes")
    coset_id, reps, cosets = {}, [], []
    for x in range(S.order):
        if x not in coset_id:
            cosets.append(frozenset(map(S.left(x), N)))
            coset_id.update(dict.fromkeys(cosets[-1], len(reps)))
            reps.append(x)
    n = len(reps)
    table = [tuple(coset_id[S.mul(reps[a], reps[b])] for b in range(n))
             for a in range(n)]
    gens = [c for c in dict.fromkeys(map(coset_id.__getitem__, S.gens)) if c]
    return SmallGroup(cosets, gens or [0], table=table,
                      name="%s/%d" % (S.name, len(N)))
