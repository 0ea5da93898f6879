"""Indexed small groups: full element tables, subgroups, quotients."""

import operator
from functools import partial

from .elements import Overflow
from .groups import orbit

ORDER_CAP = 3 ** 7  # the largest order indexed, the quotient tier's cap


class SmallGroup:
    """A finite group as an indexed element list with its multiplication
    table; index 0 is the identity and table[i][j] indexes the product of
    elements i and j.

    Classes and normal closures run on each generator's conjugation as an
    index tuple.  Built by generate() (breadth-first closure of at most
    ORDER_CAP elements), induced() (subgroup of an existing SmallGroup) or
    quotient().
    """

    def __init__(self, elements, gens, table, name=""):
        self.elements = list(elements)
        self.gens = list(gens)
        self.table = table
        self.name = name
        self._inv = None
        self._classes = None
        self._conj = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def generate(cls, gens, identity, name=""):
        """The orbit of the identity under left multiplication by the
        generators, in breadth-first order: the identity gets index 0, and
        element i arose as gens[gen_pos] * element[parent] for its
        derivation (gen_pos, parent), parent < i."""
        tree = orbit([identity], [partial(operator.mul, g) for g in gens],
                     ORDER_CAP, "group closure")
        elements = list(tree)
        index = {x: k for k, x in enumerate(elements)}
        derivations = [d and (d[0], index[d[1]]) for d in tree.values()]
        gen_idx = [i for i in dict.fromkeys(map(index.__getitem__, gens)) if i]
        return cls(elements, gen_idx or [0],
                   _table(gens, elements, index, derivations), name=name)

    @classmethod
    def from_group(cls, G, name=""):
        """G indexed on its faithful permutation image: the breadth-first
        indices are those of G's own elements."""
        return cls.generate(G.image_gens, G.chain.identity,
                            name=name or G.name)

    def induced(self, indices):
        """The subgroup on a closed set of indices (else ValueError), as its
        own SmallGroup: member k is sorted(indices)[k] of this group."""
        sub = sorted(indices)
        if not sub or sub[0] != 0:
            raise ValueError("subgroup must contain the identity")
        if sub[-1] >= self.order:
            raise ValueError("index %d is out of range for order %d"
                             % (sub[-1], self.order))
        remap = {q: s for s, q in enumerate(sub)}
        try:
            table = [tuple(remap[self.table[a][b]] for b in sub) for a in sub]
        except KeyError as e:
            raise ValueError("indices are not closed: the product %d of two "
                             "of them is missing" % e.args[0]) from None
        return SmallGroup([self.elements[q] for q in sub],
                          _minimal_gens_for_table(table), table,
                          name="%s|%d" % (self.name, len(sub)))

    # -- arithmetic --------------------------------------------------------

    @property
    def order(self):
        return len(self.elements)

    def mul(self, i, j):
        return self.table[i][j]

    def inv(self, i):
        if self._inv is None:
            self._inv = [None] * self.order
        if self._inv[i] is None:
            self._inv[i] = self.table[i].index(0)
        return self._inv[i]

    def _conj_row(self, g):
        """x -> g^-1 x g as an index tuple, built once: the column of g
        read at g^-1 x, the row of g^-1."""
        row = self._conj.get(g)
        if row is None:
            right = [r[g] for r in self.table]
            row = self._conj[g] = tuple(map(right.__getitem__,
                                            self.table[self.inv(g)]))
        return row

    def left(self, g):
        """x -> g x on indices: a lookup in g's table row."""
        return self.table[g].__getitem__

    def conj(self, g):
        """x -> g^-1 x g on indices, off g's conjugation row."""
        return self._conj_row(g).__getitem__

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


def _table(gens, elements, index, derivations):
    """Rows by composition along the derivation tree: one underlying product
    per (generator, element) pair gives each generator's left-translation
    row, and row i is the parent's row read through its generator's row."""
    gen_rows = {gi: tuple(index[gens[gi] * x] for x in elements)
                for gi in {d[0] for d in derivations if d}}
    rows = [tuple(range(len(elements)))]
    for gi, parent in derivations[1:]:
        rows.append(tuple(map(gen_rows[gi].__getitem__, rows[parent])))
    return rows


def _minimal_gens_for_table(table):
    """Greedy generating set read off a multiplication table."""
    gens, got = [], {0}
    for i in range(1, len(table)):
        if i not in got:
            gens.append(i)
            got = orbit([0], [table[g].__getitem__ for g in gens])
    return gens or [0]


def group_order(H):
    """The order of a Group (a method) or a SmallGroup (an attribute)."""
    return H.order() if callable(H.order) else H.order


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


def normal_subgroups(S, order=None):
    """All normal subgroups, or those of at most the given order, sorted by
    (order, members): the orbit of the trivial subgroup under the join with
    the normal closure of each non-identity class.  For A normal and x a
    class representative outside A, that join is the orbit of A under left
    multiplication by x and conjugation by the generators.  A join past the
    order is dropped: a normal N is the join of the normal closures of its
    classes, and every partial join lies in N, so each N of at most that
    order is still reached."""
    conj = list(map(S.conj, S.gens))

    def join(x, A):
        if x in A:
            return A
        try:
            return frozenset(orbit(A, [S.left(x)] + conj, order))
        except Overflow:
            return A

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
    return SmallGroup(cosets, gens or [0], table,
                      name="%s/%d" % (S.name, len(N)))
