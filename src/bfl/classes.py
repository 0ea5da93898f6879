"""Conjugacy classes, normal sets, and deterministic class labels.

Labels are "<order><letter>": classes sharing an element order are lettered
a, b, c, ... in (class size, minimal serialized representative) order, so the
labeling is stable across runs and machines.
"""

from collections import Counter
from itertools import filterfalse
from math import factorial

from .elements import Permutation, element_order
from .groups import CLOSURE_CAP


class SelectorError(ValueError):
    """A class selector that does not resolve to exactly one class."""


def serial_key(x):
    """Total order on elements of one group, via their serialized form."""
    d = x.serialize()
    if d["kind"] == "perm":
        return (tuple(d["images"]),)
    rows = tuple(tuple(r) for r in d["rows"])
    return (rows, d.get("frob", 0))


class ConjClass:
    """One conjugacy class: representative, size, order, optional members.

    An enumerated class keeps its members once, as `raw`: their raw images
    in the order its orbit met them (`Group.class_orbit`), and builds
    `.elements` from those through `group.from_perm` on first read.  A class
    known only by its size has no members.
    """

    __slots__ = ("group", "representative", "size", "order", "label", "raw",
                 "_elements")

    def __init__(self, group, representative, size, order, label=None,
                 raw=None):
        self.group = group
        self.representative = representative
        self.size = size
        self.order = order
        self.label = label
        self.raw = raw
        self._elements = None

    @property
    def elements(self):
        if self._elements is None and self.raw is not None:
            self._elements = frozenset(map(self.group.from_perm, self.raw))
        return self._elements

    def __repr__(self):
        return "ConjClass(%s, size=%d, order=%d)" % (
            self.label or "?", self.size, self.order)

    def __eq__(self, other):
        if not isinstance(other, ConjClass):
            return NotImplemented
        if self.group is not other.group:
            return False
        if self.raw is not None and other.raw is not None:
            # the classes of a group partition it: one shared member decides
            return self.raw[0] in other.raw
        return self.representative == other.representative

    def __hash__(self):
        # equal classes may hold different representatives
        return hash((self.size, self.order))


class NormalSet:
    """A union of conjugacy classes (closed under conjugation by construction)."""

    __slots__ = ("classes",)

    def __init__(self, classes):
        self.classes = tuple(dict.fromkeys(classes))  # each class once

    @classmethod
    def of(cls, S):
        """S itself, or the one-class set of a ConjClass."""
        if isinstance(S, NormalSet):
            return S
        if isinstance(S, ConjClass):
            return cls([S])
        raise TypeError("expected ConjClass or NormalSet, got %r" % (S,))

    @property
    def labels(self):
        return tuple(c.label for c in self.classes)

    @property
    def elements(self):
        """Union element set, or None when some class is not enumerated."""
        if any(c.elements is None for c in self.classes):
            return None
        out = set()
        for c in self.classes:
            out |= c.elements
        return frozenset(out)

    @property
    def size(self):
        return sum(c.size for c in self.classes)

    def __repr__(self):
        return "NormalSet(%s)" % ", ".join(self.labels)


def _letter(i):
    """0 -> a, 25 -> z, 26 -> aa, ..."""
    out = ""
    i += 1
    while i:
        i, rem = divmod(i - 1, 26)
        out = chr(ord("a") + rem) + out
    return out


def enumerate_classes(G):
    """All conjugacy classes of G, labeled; cached on the group.

    Each element not yet placed seeds a class, an orbit of raw images; only
    representatives are converted back.  After the class of a seed x of
    order o drawn from the chain's raw stream is walked, its unplaced powers
    x^2, ..., x^(o-1) seed the next classes, before the stream is read
    again; the powers of a power of x lie in <x> and are not composed again,
    so each stream seed costs at most o-2 compositions.  That pays where G
    has few classes against |G|: there the stream mostly repeats members
    already placed, and the powers of a few stream seeds reach the other
    classes (sp:4:3 pulls 744 stream elements, not 29,739).  Where every
    class is small (cyclic:1000, dihedral:2000) the powers stand in for the
    stream about one for one.  The seed changes no output, since a class's
    label, size, order and least representative depend on its member set
    alone.  Overflow first if |G| > CLOSURE_CAP.
    The cache holds each class's fields, not the ConjClass, whose `group`
    would make a reference cycle and keep a dropped group until a full
    garbage collection; each call wraps them.
    """
    cached = getattr(G, "_classes", None)
    if cached is not None:
        return [ConjClass(G, *fields) for fields in cached]
    key, total, seen, raw = G.image_key(), G.order(), set(), []
    times = G.chain.kernel[1]

    def walk(x):
        cls = G.class_orbit(x, seen, CLOSURE_CAP)
        rep = Permutation(G.least(cls))
        order = element_order(rep)
        raw.append((order, len(cls), key(rep), rep, cls))
        return order

    for x in filterfalse(seen.__contains__,
                         G.chain.raw_elements(CLOSURE_CAP)):
        t, y = times(x), x
        for _ in range(walk(x) - 2):
            if len(seen) == total:
                break
            y = t(y)
            if y not in seen:
                walk(y)
        if len(seen) == total:
            break
    raw.sort(key=lambda t: t[:3])
    out = []
    counts = Counter()
    for order, size, _, rep, cls in raw:
        label = "%d%s" % (order, _letter(counts[order]))
        counts[order] += 1
        out.append((G.from_perm(rep), size, order, label, cls))
    G._classes = tuple(out)
    return enumerate_classes(G)


def class_of(G, x):
    """The class of x: a labeled one from the cache when available, else
    fresh; ValueError when x is not an element of G (`Group.raw`)."""
    x = G.raw(x, repr(x))
    for rep, size, order, label, raw in getattr(G, "_classes", None) or ():
        if x in raw:
            return ConjClass(G, rep, size, order, label, raw)
    cls = G.class_orbit(x, set(), CLOSURE_CAP)
    rep = Permutation(G.least(cls))
    return ConjClass(G, G.from_perm(rep), len(cls), element_order(rep),
                     raw=cls)


def involution_classes_sym(G, n):
    """Involution classes of Sym(n) by cycle type, with exact sizes and the
    same labels full enumeration would assign, without enumerating n!."""
    raw = []
    for k in range(1, n // 2 + 1):
        size = factorial(n) // (2 ** k * factorial(k) * factorial(n - 2 * k))
        m = n - 2 * k
        images = list(range(m))
        for i in range(m, n, 2):
            images += [i + 1, i]
        rep = Permutation(images)  # minimal-image member of its class
        raw.append((size, rep, k))
    raw.sort(key=lambda t: (t[0], serial_key(t[1])))
    out = []
    for i, (size, rep, k) in enumerate(raw):
        c = ConjClass(G, rep, size, 2, label="2%s" % _letter(i))
        out.append(c)
    return out


def select_class(classes, spec):
    """Resolve a selector against a class list.

    Grammar: a label ("5a"), comma-joined matchers "order:<k>,size:<m>"
    (any nonempty subset), or "fpf2" for the fixed-point-free involution
    class of a permutation group.  Must match exactly one class.
    """
    spec = spec.strip()
    hits = [c for c in classes if c.label == spec]
    if len(hits) == 1:
        return hits[0]
    if spec == "fpf2":
        hits = []
        for c in classes:
            r = c.representative
            if c.order == 2 and isinstance(r, Permutation) \
                    and all(r(i) != i for i in range(r.degree)):
                hits.append(c)
    elif ":" in spec:
        conds = {}
        for part in spec.split(","):
            part = part.strip()
            if ":" not in part:
                raise SelectorError("bad selector term %r" % part)
            key, _, val = part.partition(":")
            if key not in ("order", "size") or not val.isdigit():
                raise SelectorError("bad selector term %r" % part)
            conds[key] = int(val)
        if not conds:
            raise SelectorError("empty selector %r" % spec)
        hits = [c for c in classes
                if all(getattr(c, k) == v for k, v in conds.items())]
    elif not hits:
        raise SelectorError("no class labeled %r" % spec)
    if len(hits) != 1:
        raise SelectorError("selector %r matches %d classes, need exactly 1"
                            % (spec, len(hits)))
    return hits[0]
