"""Group-level algorithms: orbits, stabilizer chains, closure, matrix-to-permutation actions.

Every closure in the package is one breadth-first walk: `orbit`, with its
Schreier tree (chain transversals, product closure, the indexed closures of
`smallgroup`, the Frattini orbits of `wreath`); `orbit_points`, the same
walk with no tree, for the walks that read only the points (the vector
orbit behind `matrix_action`, the pair closures and the orbits of d' under
conjugation by c of `verify`, a drawn pair's first basic orbit); and a
conjugacy class, walked members only (`Group.class_orbit`).

The stabilizer chain is a deterministic Schreier-Sims: the generators are
registered at their depths, then the levels are verified bottom up, and a
level is rescanned from its first point after every registration (see
`Chain`); a tree edge's Schreier generator is the identity by construction
and is not sifted.  A level keeps its orbit as a set, grown at each
registration, and rebuilds its orbit tree the first time the tree is read
after one (`_Level.tree`).  The order is the product of the orbit-set
sizes, and a build stops once it reaches a known upper bound (an order
formula, |G| for a pair drawn from G); a coset representative is built
from its level's orbit tree the first time its point is read
(`_Level.rep`), not a level at a time.
Chains are built, sifted and sampled on plain permutations only.  Matrix
and semilinear groups get a permutation image from `matrix_action` (the orbit
of the standard basis vectors; the groups of one `catalog._grow_to_order`
share each generator's images, `Group._memo`).  An element meets its raw
image only on `Group`: `Group.raw` on the way in (sifted once, so a
non-member is refused), `Group.from_perm` on the way out, from an image
permutation or a raw image (random elements, class representatives,
witnesses), and `Group.image_key`, the one rank of raw images; membership
reads a matrix only at the base points and the basis (`Group.contains`).
Every image is faithful, so order, membership, the element stream and the
classes all come from the one chain.  The chain sifts without inverting a
representative, and the stream, random draws, class orbits and pair
closures compose raw images with the codec of `image_kernel`, which only
`Chain` builds (`Chain.kernel`): bytes up to 256 points, tuples composed
by `operator.itemgetter` past that, as in `Permutation.__mul__`.  A random
conjugate g^-1 x g is taken one level at a time, by each drawn
representative's conjugation map from the kernel, built the first time its
point is drawn and kept beside it (`Chain._raw_picks`).  A class is an
orbit of raw images under conjugation by the generating pair: two chain
elements, drawn from a privately seeded stream, whose own chain reaches the
group's order (`Group.generating_pair`; a draw that provably generates
less, by parity or by its orbit of the first base point, gets no chain),
and its least member under `Group.image_key` is found by C-level maps
(`Group.least`).  Class enumeration seeds each new class from the unplaced
powers of the last seed taken from the element stream, and from the
stream only when none is left (`classes.enumerate_classes`); that saves
most of the stream on groups with few classes against their order, and is
exact, since any unplaced element seeds its own class and a class's label
and representative depend on its members alone.  `matrix_action` numbers
the basis first, so a matrix is read off its image at points 0..n-1, the
images of the basis vectors, which are its columns, and ranked by them
without being built.  A semilinear map A frob^e also sends w*e1,
for w primitive, to w^(r^e) * A e1, so the action orbits w*e1 too; that
point pins down e (`Group.from_perm`), and it makes the image faithful,
since on the basis alone the field automorphism acts trivially.
"""

import random
from collections import deque
from functools import partial
from itertools import chain, compress, repeat
from math import prod
from operator import getitem, itemgetter, methodcaller, mul

from .elements import (Permutation, SquareMatrix, SemilinearElement, Overflow,
                       identity_like)

CLOSURE_CAP = 2_000_000
ORBIT_CAP = 200_000
PAIR_SEED = 0xBF
PAIR_DRAWS = 16


def orbit(seeds, maps, cap=None, what="orbit"):
    """Breadth-first orbit of the seeds under the maps, with its Schreier tree.

    Returns a dict in the order points are met (first in, first out): a seed
    maps to None, any other point y to (i, x) with maps[i](x) == y, x met
    before y.  Duplicate seeds are kept once, and seeds always enter; a
    further point that would make the orbit larger than cap raises
    Overflow("<what> exceeds cap <cap>").
    """
    tree = dict.fromkeys(seeds)
    queue = deque(tree)
    while queue:
        x = queue.popleft()
        for i, f in enumerate(maps):
            y = f(x)
            if y not in tree:
                if cap is not None and len(tree) >= cap:
                    raise Overflow("%s exceeds cap %d" % (what, cap))
                tree[y] = (i, x)
                queue.append(y)
    return tree


def orbit_points(seeds, maps, cap=None, what="orbit"):
    """The points of `orbit(seeds, maps, cap, what)`, in the same order and
    with the same Overflow, as a list, with no tree built."""
    points = list(dict.fromkeys(seeds))
    seen = set(points)
    for x in points:
        for f in maps:
            y = f(x)
            if y not in seen:
                if cap is not None and len(points) >= cap:
                    raise Overflow("%s exceeds cap %d" % (what, cap))
                seen.add(y)
                points.append(y)
    return points


def image_kernel(degree):
    """(encode, times, conj) on raw images of permutations of {0..degree-1}:
    bytes composed by `bytes.translate` up to 256 points, tuples composed by
    `operator.itemgetter` past that.  encode(images) is a raw image, times(g)
    maps x to g x, conj(g) maps y to g^-1 y g, and conj(g, h) to the pair
    (g^-1 y g, h^-1 y h) from one table of y (y padded, or y's itemgetter);
    raw images order like images tuples, Permutation(x) decodes.  Every
    inverse table gi of conj is sorted from the kernel's one tuple of points,
    so tuple tables share its int objects."""
    points = tuple(range(degree))
    if degree > 256:
        def times(g):
            return lambda x: itemgetter(*x)(g)

        def conj(g, h=None):
            gi = tuple(sorted(points, key=g.__getitem__))
            pick = itemgetter(*g)
            if h is None:
                return lambda y: pick(itemgetter(*y)(gi))
            hi = tuple(sorted(points, key=h.__getitem__))
            pick_h = itemgetter(*h)
            return lambda y: (pick((t := itemgetter(*y))(gi)), pick_h(t(hi)))
        return tuple, times, conj
    pad = bytes(256 - degree)

    def times(g):
        return methodcaller("translate", g + pad)

    def conj(g, h=None):
        gi = bytes(sorted(points, key=g.__getitem__)) + pad
        if h is None:
            return lambda y: g.translate(y + pad).translate(gi)
        hi = bytes(sorted(points, key=h.__getitem__)) + pad
        return lambda y: (g.translate(t := y + pad).translate(gi),
                          h.translate(t).translate(hi))
    return bytes, times, conj


class _Level:
    """Base point, strong generators, their orbit as a set and their orbit
    tree.  The set grows on each new generator (`add`); the tree is rebuilt
    from all the generators the first time it is read after one (`tree`).
    Each representative t_y = gens[i] * t_x (tree edge (i, x)) is built the
    first time it is read (`rep`), and the sorted orbit points and the raw
    t_y of a random draw, beside its conjugation y -> t_y^-1 y t_y
    (`Chain._raw_picks`), likewise."""
    __slots__ = ("point", "gens", "orbit", "_tree", "identity", "_reps",
                 "_points", "_raw")

    def __init__(self, point, identity):
        self.point = point
        self.gens = []
        self.orbit = {point}
        self._tree = {point: None}
        self.identity = identity
        self._reps = {point: identity}
        self._points = None
        self._raw = {}

    def add(self, w):
        """Append strong generator w: the orbit set is closed under w, then
        its new points under every generator; the tree and the memos go."""
        self.gens.append(w)
        seen, images = self.orbit, [g.images for g in self.gens]
        new = list(set(map(w.images.__getitem__, seen)) - seen)
        seen.update(new)
        for x in new:
            for g in images:
                y = g[x]
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        self._tree = None
        self._reps = {self.point: self.identity}
        self._points = None
        self._raw = {}

    @property
    def tree(self):
        """The orbit tree (`orbit`) under the generators in order."""
        if self._tree is None:
            self._tree = orbit([self.point],
                               [g.images.__getitem__ for g in self.gens])
        return self._tree

    def rep(self, y):
        """t_y for an orbit point y: y's tree path is walked up to the
        nearest representative already built, then each one down the path
        is built and kept."""
        tree, reps = self.tree, self._reps
        t = reps.get(y)
        if t is None:
            path = []
            while t is None:
                i, x = tree[y]
                path.append((y, i))
                y = x
                t = reps.get(y)
            gens = self.gens
            for z, i in reversed(path):
                t = reps[z] = gens[i] * t
        return t

    @property
    def transversal(self):
        """Every representative, keyed by the orbit points in tree order."""
        return {y: self.rep(y) for y in self.tree}


class Chain:
    """Stabilizer chain over plain permutations of {0..degree-1}.

    Strong generators are stored nested: a generator that fixes the first d
    base points sits in the generating list of every level <= d.  Building is
    the classic bottom-up verification: scan Schreier generators at the
    deepest unverified level, register any non-trivial sift residue at its
    exact depth (which strictly grows that level's group), and resume
    verification there.  Levels deeper than a registration are untouched by
    it, so the sweep terminates with every level clean.

    A registration grows the orbit sets of the levels it joins and drops
    their trees, so level i is scanned again from its first point.  A
    level's tree is rebuilt from all its generators the first time it is
    read after that (`_Level.tree`); the order, the stop test below and a
    sift's orbit test read the orbit sets, so a level joined by several
    registrations before a scan reaches it is rebuilt once.  A
    representative is built from the new tree the first time its point is
    read, down its tree path from the nearest one already built
    (`_Level.rep`): a scan cut short by a registration, a sift and a random
    draw build only what they read.  The scan skips each pair (p, g_k)
    that is a tree edge, tree[g_k(p)] == (k, p): then t_q = g_k * t_p, its
    Schreier generator is the identity and would register nothing.

    `build` stops at a known upper bound on |<perms>|: with H_i the group of
    level i's strong generators, H_(i+1) <= Stab_(H_i)(b_i), so |<perms>| =
    |H_0| >= the product of the orbit sizes, with equality only when each
    H_(i+1) is that stabilizer.  At the bound the chain is complete, every
    Schreier generator sifts to the identity, and nothing differs from the
    fully verified chain.

    A sift never inverts a representative: it keeps
    the product left = t_a * t_b * ... of the representatives stripped so
    far, so the residue is left^-1 * w, its image of a base point b is
    left.index(w(b)), and it is the identity exactly when left == w.  A
    Schreier generator s = t_q^-1 * g * t_p (q = g(p)) is sifted as g * t_p
    from left = t_q, and an inverse is built only for a residue that is
    registered or returned as not the identity.

    A random draw picks one orbit point per level (`rng.choice` of the
    sorted points) and composes the representatives as raw images
    (`raw_random`); `random` decodes that draw, and `raw_random_conjugate`
    conjugates by it one level at a time, each level's map y -> t^-1 y t
    (the kernel's conj) kept beside its raw representative t the first time
    its point is drawn.  Level orbits are taken under the strong generators'
    image tuples, so the trees hold the same (i, x) entries as under the
    permutations.
    """

    def __init__(self, degree):
        self.degree = degree
        self.identity = Permutation.identity(degree)
        self.kernel = image_kernel(degree)
        self.levels = []

    def order(self):
        return prod(len(L.orbit) for L in self.levels)

    def build(self, perms, order=None):
        """Register perms and verify bottom up, in full unless the order
        reaches order, which must then be an upper bound on |<perms>|."""
        for w in perms:
            self._register(w)
        i = len(self.levels) - 1
        while i >= 0 and self.order() != order:
            d = self._verify(i)
            i = i - 1 if d is None else d

    def sift(self, w, start=0):
        """Strip w through the chain; return (residue, level it got stuck at)."""
        left, lev = self._descend(self.identity.images, w.images, start)
        return self._residue(left, w.images), lev

    def _descend(self, left, w, start):
        """Strip left^-1 * w from level start on, left and w given by their
        images; return the grown left and the level it got stuck at."""
        for lev in range(start, len(self.levels)):
            L = self.levels[lev]
            pt = left.index(w[L.point])
            if pt != L.point:
                if pt not in L.orbit:
                    return left, lev
                left = itemgetter(*L.rep(pt).images)(left)
        return left, len(self.levels)

    def _residue(self, left, w):
        """left^-1 * w, through an inverse of left built over the identity's
        own int objects; the identity itself when left == w."""
        if left == w:
            return self.identity
        inv = sorted(self.identity.images, key=left.__getitem__)
        return Permutation(itemgetter(*w)(inv))

    def _register(self, w):
        """Install w as a strong generator at its depth; return that depth."""
        if w.is_identity():
            return None
        depth = None
        for idx, L in enumerate(self.levels):
            if w(L.point) != L.point:
                depth = idx
                break
        if depth is None:
            moved = min(i for i, j in enumerate(w.images) if i != j)
            self.levels.append(_Level(moved, self.identity))
            depth = len(self.levels) - 1
        for L in self.levels[:depth + 1]:
            L.add(w)
        return depth

    def _verify(self, i):
        """Scan level i's Schreier generators; register the first dirty residue
        and return its depth, or None when the level is clean."""
        L = self.levels[i]
        tree = L.tree
        for pt in tree:
            times_u = None
            for k, g in enumerate(L.gens):
                q = g.images[pt]
                if tree[q] == (k, pt):
                    continue  # a tree edge: t_q = g * t_p
                if times_u is None:
                    times_u = itemgetter(*L.rep(pt).images)
                gu = times_u(g.images)  # g * t_p
                left, _ = self._descend(L.rep(q).images, gu, i + 1)
                if left != gu:
                    return self._register(self._residue(left, gu))
        return None

    def random(self, rng):
        """Uniformly random element (product of transversal reps)."""
        return Permutation(self.raw_random(rng))

    def raw_random(self, rng):
        """`random` as a raw image (`image_kernel`): the same picks,
        t_0 * t_1 * ... * t_k composed from the right."""
        encode, times, _ = self.kernel
        w = encode(self.identity.images)
        for t, _ in reversed(self._raw_picks(rng)):
            w = times(t)(w)
        return w

    def raw_random_conjugate(self, x, rng):
        """g^-1 x g on raw images, g the element `raw_random` would draw:
        x is conjugated by t_0, then t_1, ..., t_k, by the conjugation map
        cached beside each representative, so g^-1 is never built."""
        for _, by_t in self._raw_picks(rng):
            x = by_t(x)
        return x

    def _raw_picks(self, rng):
        """Each level's `rng.choice` of an orbit point, in level order, as
        its representative's raw t and its conjugation y -> t^-1 y t
        (`Chain.kernel`'s conj, whose inverse table is built once), both
        kept the first time the point is drawn."""
        encode, _, conj = self.kernel
        picks = []
        for L in self.levels:
            if L._points is None:
                L._points = sorted(L.orbit)
            y = rng.choice(L._points)
            raw = L._raw.get(y)
            if raw is None:
                t = encode(L.rep(y).images)
                raw = L._raw[y] = (t, conj(t))
            picks.append(raw)
        return picks

    def raw_elements(self, cap=None):
        """Every element once, lazily, as the raw images (`image_kernel`) of
        the products t_0 * t_1 * ... * t_k of transversal representatives,
        no permutation built: each level's prefixes times its
        representatives, by C-level maps.  Overflow first if the order >
        cap."""
        if cap is not None and self.order() > cap:
            raise Overflow("closure exceeds cap %d" % cap)
        encode, times, _ = self.kernel
        stream = iter([encode(self.identity.images)])
        for L in self.levels:
            reps = [encode(t.images) for t in L.transversal.values()]
            stream = chain.from_iterable(map(map, map(times, stream),
                                             repeat(reps)))
        return stream


class ActionRecord:
    """Permutation image of a matrix/semilinear generator list on a vector orbit."""

    __slots__ = ("points", "index", "perms")

    def __init__(self, points, index, perms):
        self.points = points
        self.index = index
        self.perms = perms

    @property
    def degree(self):
        return len(self.points)


def matrix_action(gens, cap=ORBIT_CAP, _memo=None):
    """Orbit the standard basis under the generators; return the faithful
    permutation image.

    Semilinear generators also orbit w*e1 (w primitive) when it is not
    already a point, after the basis orbit, so the basis points keep their
    numbers; its image is what tells the field automorphism apart.
    Overflow past cap.  With _memo (`Group._memo`), each generator's
    images are read there, evaluated only the first time.
    """
    if not gens:
        raise ValueError("matrix_action needs at least one generator")
    F = gens[0].field
    n = gens[0].n
    index = {v: k for k, v in enumerate(_basis(n))}
    images = [[] for _ in gens]  # per generator, the numbers of the images
    maps = [partial(_numbered, _evaluator(g, _memo), index, out.append)
            for g, out in zip(gens, images)]
    size = len(orbit_points(_basis(n), maps, cap))
    if isinstance(gens[0], SemilinearElement):
        we1 = _scaled_e1(F, n)
        if we1 not in index:
            if size >= cap:  # orbit_points() always admits its seed
                raise Overflow("orbit exceeds cap %d" % cap)
            index[we1] = len(index)
            try:
                orbit_points([we1], maps, cap - size)
            except Overflow:
                raise Overflow("orbit exceeds cap %d" % cap) from None
    return ActionRecord(tuple(index), index, list(map(Permutation, images)))


def _numbered(apply, index, put, v):
    """apply(v), its point number handed to put: the orbit numbers points in
    the order it meets them, so a point not yet in index gets the next."""
    w = apply(v)
    put(index.setdefault(w, len(index)))
    return w


def _evaluator(x, memo):
    """v -> x(v): x.apply, or with a memo a read of x's images there, each
    evaluated once and kept as memo[None]'s one tuple for that vector."""
    if memo is None:
        return x.apply
    images, canon = memo.setdefault(x, {}), memo.setdefault(None, {})

    def image(v):
        w = images.get(v)
        if w is None:
            w = x.apply(v)
            w = images[v] = canon.setdefault(w, w)
        return w
    return image


def _odd(p):
    """True for an odd permutation."""
    return sum(len(c) - 1 for c in p.cycles()) % 2 == 1


def _basis(n):
    return [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]


def _scaled_e1(F, n):
    return (F.primitive(),) + (0,) * (n - 1)


def closure_enumerate(gens, cap=CLOSURE_CAP):
    """The full set <gens> by breadth-first product closure; Overflow past cap.

    Nothing in the package calls it: the element stream is
    `Chain.raw_elements`.
    It is the independent reference the tests check the chain against.
    """
    if not gens:
        raise ValueError("closure of an empty generator list has no ambient")
    maps = [partial(mul, g) for g in gens if not g.is_identity()]
    return set(orbit([identity_like(gens[0])], maps, cap, "closure"))


class Group:
    """Generators plus lazily built stabilizer-chain data; order, when given,
    must be an upper bound on the group's order, at which the chain build
    stops verifying (`Chain.build`)."""

    _memo = None  # images of vectors shared by groups (`_evaluator`)

    def __init__(self, gens, name=None, identity=None, order=None):
        self.gens = list(gens)
        self.name = name
        if self.gens:
            self._identity = identity_like(self.gens[0])
        elif identity is not None:
            self._identity = identity
        else:
            raise ValueError("empty generator list needs an explicit identity")
        self._order_hint = order
        self._chain = None
        self._action = None
        self._rank = None
        self._frob = None
        self._pair = None
        self._orbit_maps = None

    @property
    def kind(self):
        return type(self._identity).__name__

    @property
    def identity(self):
        return self._identity

    @property
    def action(self):
        """Permutation action record (identity map for permutation groups)."""
        if self._action is None and not isinstance(self._identity, Permutation):
            self._action = matrix_action(self.gens or [self._identity],
                                         _memo=self._memo)
        return self._action

    @property
    def image_gens(self):
        """The generators' images in the chain's permutation representation."""
        if isinstance(self._identity, Permutation):
            return self.gens
        return self.action.perms

    @property
    def chain(self):
        if self._chain is None:
            self._chain = Chain(self._identity.degree
                                if isinstance(self._identity, Permutation)
                                else self.action.degree)
            self._chain.build(self.image_gens, self._order_hint)
        return self._chain

    def order(self):
        return self.chain.order()

    def to_perm(self, x):
        """Image of x in the chain's permutation representation (None if it
        escapes, or if a permutation's degree is not the image's)."""
        if isinstance(x, Permutation):
            return x if x.degree == self.chain.degree else None
        act = self.action
        images = list(map(act.index.get, map(x.apply, act.points)))
        return None if None in images else Permutation(images)

    def raw(self, x, name):
        """x's image in the chain's permutation representation as a raw
        image (`image_kernel`), after one sift: ValueError "<name> does not
        act on the group's points" when x escapes them (`to_perm`), and
        "<name> is not an element of the group" when the sift leaves a
        residue."""
        p = self.to_perm(x)
        if p is None:
            raise ValueError("%s does not act on the group's points" % name)
        if not self.chain.sift(p)[0].is_identity():
            raise ValueError("%s is not an element of the group" % name)
        return self.chain.kernel[0](p.images)

    def image_key(self):
        """An integer rank of image permutations or raw images that orders
        them like the serial_key of their elements, with no element built
        (cached); for a permutation group, the images themselves.

        Codes lie in range(q), and `matrix_action` numbers the basis first,
        so p[j] is the point e_j goes to, column j of the matrix, and the
        row-major entries of an n x n matrix read as the base-q integer
        sum_j weights[j][p[j]], weights[j][c] = sum_i points[c][i] *
        q^(n*n-1-(i*n+j)).  A semilinear map's rank is that integer times k
        plus its e (`_frobenius`).
        """
        ident = self._identity
        if isinstance(ident, Permutation):
            return lambda p: getattr(p, "images", p)
        if self._rank is None:
            act, F, n = self.action, ident.field, ident.n
            scale = F.k if isinstance(ident, SemilinearElement) else 1
            weights = [[sum(c * F.q ** (n * n - 1 - (i * n + j))
                            for i, c in enumerate(v)) * scale
                        for v in act.points] for j in range(n)]
            if scale == 1:
                self._rank = lambda p: sum(map(getitem, weights,
                                               getattr(p, "images", p)))
            else:
                we1, table = self._frobenius()

                def rank(p):
                    images = getattr(p, "images", p)
                    return (sum(map(getitem, weights, images))
                            + table[images[0], images[we1]])
                self._rank = rank
        return self._rank

    def _frobenius(self):
        """(we1, table) for a semilinear group, with e = table[p[0], p[we1]]
        for the map A frob^e with image p, since it sends e1 (point 0) to
        v = A e1 and w*e1 (point we1) to w^(r^e) * v (cached)."""
        if self._frob is None:
            act, F = self.action, self._identity.field
            powers = [F.frobenius(F.primitive(), e) for e in range(F.k)]
            table = {}
            for i, v in enumerate(act.points):
                for e, s in enumerate(powers):
                    j = act.index.get(tuple([F.mul(s, x) for x in v]))
                    if j is not None:
                        table[i, j] = e
            self._frob = act.index[_scaled_e1(F, self._identity.n)], table
        return self._frob

    def from_perm(self, p):
        """The element whose image permutation or raw image is p, read off
        the images of the basis vectors (its columns, points 0..n-1) and, for
        a semilinear map, of w*e1."""
        ident = self._identity
        if isinstance(ident, Permutation):
            return p if isinstance(p, Permutation) else Permutation(p)
        points, images = self.action.points, getattr(p, "images", p)
        mat = SquareMatrix(ident.field, list(zip(*[points[images[k]]
                                                   for k in range(ident.n)])))
        if isinstance(ident, SquareMatrix):
            return mat
        we1, table = self._frobenius()
        return SemilinearElement(mat, table[images[0], images[we1]])

    def contains(self, x):
        """Membership by one sift.  A matrix or semilinear x is read only at
        the base points, which steer the sift (`Chain._descend`), and then
        at the points `from_perm` reads, the basis and, for a semilinear
        map, w*e1: it is the sift's product exactly when it agrees with it
        there.  No full image of x is built."""
        chain = self.chain
        if isinstance(x, Permutation):
            p = self.to_perm(x)
            return p is not None and chain.sift(p)[0].is_identity()
        act, n = self.action, self._identity.n
        apply = _evaluator(x, self._memo)

        def image(k):  # x's point number at point k, None off the orbit
            return act.index.get(apply(act.points[k]))
        base = {L.point: image(L.point) for L in chain.levels}
        if None in base.values():
            return False
        left, lev = chain._descend(chain.identity.images, base, 0)
        read = list(range(n))  # matrix_action numbers the basis first
        if isinstance(self._identity, SemilinearElement):
            read.append(act.index[_scaled_e1(self._identity.field, n)])
        return (lev == len(chain.levels)
                and all(image(k) == left[k] for k in read))

    def random_element(self, rng):
        """Uniformly random element, in the generators' own representation."""
        return self.from_perm(self.chain.random(rng))

    def generating_pair(self):
        """Image permutations that generate the group, two when a pair is
        found (cached).

        When the faithful image has more than two generators, pairs are drawn
        by `Chain.random` from a private generator seeded with PAIR_SEED, so
        no caller's stream moves, and the first pair whose own chain reaches
        the group's order is kept.  A pair is refused with no chain when it
        provably generates less: both even while a generator is odd, or its
        orbit of the first base point smaller than the group's.  After
        PAIR_DRAWS draws with no pair kept, as for a group that is not
        2-generated, the image's own generators are kept.
        """
        if self._pair is None:
            perms = self.image_gens
            if len(perms) > 2:
                chain, rng = self.chain, random.Random(PAIR_SEED)
                order, odd = self.order(), any(map(_odd, perms))
                top = chain.levels[:1]  # none for the trivial group
                for _ in range(PAIR_DRAWS):
                    pair = [chain.random(rng), chain.random(rng)]
                    if odd and not any(map(_odd, pair)):
                        continue  # <pair> lies in the even part
                    maps = [g.images.__getitem__ for g in pair]
                    if any(len(orbit_points([L.point], maps)) < len(L.orbit)
                           for L in top):
                        continue  # <pair> has a smaller first basic orbit
                    sub = Chain(chain.degree)
                    sub.build(pair, order)
                    if sub.order() == order:
                        perms = pair
                        break
            self._pair = list(perms)
        return self._pair

    def class_orbit(self, x, seen, cap):
        """Raw image x's class, breadth first under conjugation by the
        generating pair (an odd count pairs the last generator with itself),
        each member added to seen, which held none; Overflow past cap."""
        if self._orbit_maps is None:
            encode, _, conj = self.chain.kernel
            gens = [encode(g.images) for g in self.generating_pair()]
            self._orbit_maps = [conj(g, h) for g, h in
                                zip(gens[::2], gens[1::2] + gens[-1:])]
        maps, members, add = self._orbit_maps, [x], seen.add
        add(x)
        for y in members:
            for f in maps:
                a, b = f(y)
                if a not in seen:
                    add(a)
                    members.append(a)
                if b not in seen:
                    add(b)
                    members.append(b)
            if len(members) > cap:
                raise Overflow("class exceeds cap %d" % cap)
        return tuple(members)

    def least(self, raws):
        """The raw image of least `image_key` in raws, with no Python call per
        member: min itself for permutations; on bytes images with codes below
        256, the least first matrix row (one translate of p[:n], the columns'
        points), image_key breaking ties; else min by image_key."""
        ident, key = self._identity, self.image_key()
        if isinstance(ident, Permutation):
            return min(raws)
        if self.chain.degree > 256 or ident.field.q > 256:
            return min(raws, key=key)
        first = bytes(v[0] for v in self.action.points).ljust(256, b"\0")
        rows = list(map(bytes.translate, map(itemgetter(slice(ident.n)), raws),
                        repeat(first)))
        return min(compress(raws, map(min(rows).__eq__, rows)), key=key)

    def __repr__(self):
        return "Group(%s, %d gens)" % (self.name or self.kind, len(self.gens))
