"""The Z_p wr Z_p model, isomorphism testing, and section search."""

from functools import cache

from .elements import Permutation
from .groups import Group
from .smallgroup import (SmallGroup, is_p_group, subgroups, normal_subgroups,
                         quotient)

FULL_TIER_CAP = {2: 1024, 3: 729}
QUOTIENT_TIER_CAP = 3 ** 7
_SMALL_CAP = 32768


class WreathModel:
    """Z_p wr Z_p on p^2 points: p disjoint p-cycles under a block shift."""

    __slots__ = ("p", "group")

    def __init__(self, p, group):
        self.p = p
        self.group = group

    @property
    def order(self):
        return self.p ** (self.p + 1)

    def small(self):
        return SmallGroup.from_group(self.group, name="wreath:%d" % self.p,
                                     cap=_SMALL_CAP)

    def __repr__(self):
        return "WreathModel(p=%d, order %d)" % (self.p, self.order)


@cache
def build_wreath(p):
    """The model for p in {2, 3, 5}, with its invariants asserted; built and
    checked once per p, and the same model returned after."""
    if p not in (2, 3, 5):
        raise ValueError("supported primes: 2, 3, 5; got %r" % (p,))
    n = p * p
    base = Permutation.from_cycles(n, [tuple(range(p))])
    top = Permutation([(i + p) % n for i in range(n)])
    G = Group([base, top], name="wreath:%d" % p)
    elems = list(G.chain.elements())  # not kept on the cached model
    if len(elems) != p ** (p + 1):
        raise AssertionError("wreath model has order %d" % len(elems))
    center = sum(1 for x in elems
                 if x * base == base * x and x * top == top * x)
    if center != p:
        raise AssertionError("wreath center has order %d" % center)
    comm = ~base * ~top * base * top
    if comm == G.identity:
        raise AssertionError("wreath model came out abelian")
    # the normal closure of comm, the derived subgroup, is generated by its class
    if Group(G.conjugacy_class(comm)).order() != p ** (p - 1):
        raise AssertionError("wreath derived subgroup has wrong order")
    return WreathModel(p, G)


class SectionVerdict:
    """Result of a wreath-section search, with a replayable witness."""

    __slots__ = ("found", "tier", "witness", "note")

    def __init__(self, found, tier, witness=None, note=""):
        if found and witness is None:
            raise ValueError("a found verdict needs a witness")
        self.found = bool(found)
        self.tier = tier
        self.witness = witness
        self.note = note

    def __repr__(self):
        state = "found" if self.found else "not found"
        return "SectionVerdict(%s, tier=%s)" % (state, self.tier)


@cache
def _model_small(p):
    return build_wreath(p).small()


def _as_small(H):
    if isinstance(H, SmallGroup):
        return H
    if isinstance(H, WreathModel):
        return H.small()
    return SmallGroup.from_group(H, cap=_SMALL_CAP)


def iso_to_wreath(H, p):
    """True iff H is isomorphic to the Z_p wr Z_p model.

    Invariant screen first (order, element orders, center, derived subgroup,
    class sizes), then a generating-pair search mapping the model's
    (base-cycle, block-shift) pair onto order-compatible elements of H.
    """
    H = _as_small(H)
    M = _model_small(p)
    if H.order != M.order:
        return False
    if H.order_histogram() != M.order_histogram():
        return False
    if len(H.center_indices()) != len(M.center_indices()):
        return False
    if len(H.derived_indices()) != len(M.derived_indices()):
        return False
    m_classes = M.class_partition()
    h_classes = H.class_partition()
    if sorted(len(c) for c in m_classes) != sorted(len(c) for c in h_classes):
        return False

    # profiles (element order, class size) of the model's two generators
    m_size = _class_size_by_index(m_classes)
    pa = (M.element_order(M.gens[0]), m_size[M.gens[0]])
    pt = (M.element_order(M.gens[1]), m_size[M.gens[1]])
    h_size = _class_size_by_index(h_classes)
    # the base image only matters up to conjugacy in H, so class reps suffice
    xs = [min(cls) for cls in h_classes
          if (H.element_order(min(cls)), len(cls)) == pa]
    ys = [i for i in range(1, H.order)
          if (H.element_order(i), h_size[i]) == pt]
    for x in xs:
        for y in ys:
            if _pair_extends(M, H, (x, y)):
                return True
    return False


def _class_size_by_index(classes):
    size = {}
    for cls in classes:
        for i in cls:
            size[i] = len(cls)
    return size


def _pair_extends(M, H, images):
    """Do the candidate generator images define an isomorphism M -> H?

    The map is forced along M's derivation tree (every element arose as
    generator * parent); bijectivity is checked en route, and agreement with
    right-multiplication by each generator then pins multiplicativity for
    all pairs (peel generators off the right factor).
    """
    n = M.order
    img = [None] * n
    img[0] = 0
    seen = {0}
    for i in range(1, n):
        gpos, parent = M.derivations[i]
        t = H.mul(images[gpos], img[parent])
        if t in seen:
            return False
        img[i] = t
        seen.add(t)
    for gpos, mg in enumerate(M.gens):
        hg = images[gpos]
        for i in range(n):
            if img[M.mul(i, mg)] != H.mul(img[i], hg):
                return False
    return True


def wreath_section_detect(Q, p, tier="quotient"):
    """Search Q for a section isomorphic to Z_p wr Z_p.

    tier=quotient scans quotients of Q by its normal subgroups; tier=full
    scans quotients of every subgroup.  Caps produce an indeterminate verdict
    rather than a silently incomplete scan.
    """
    if tier not in ("quotient", "full"):
        raise ValueError("tier must be quotient or full")
    Q = _as_small(Q)
    if not is_p_group(Q, p):
        raise ValueError("input of order %d is not a %d-group" % (Q.order, p))
    target = p ** (p + 1)

    if tier == "full":
        cap = FULL_TIER_CAP.get(p)
        if cap is None:
            return SectionVerdict(False, "indeterminate",
                                  note="full-tier search supports p=2,3 only; "
                                       "use tier=quotient")
        if Q.order > cap:
            return SectionVerdict(False, "indeterminate",
                                  note="order %d exceeds the full-tier cap %d"
                                       % (Q.order, cap))
        for H_set in subgroups(Q):
            if len(H_set) < target or len(H_set) % target:
                continue
            Hs = Q.induced(H_set)
            hit = _quotient_scan(Hs, p, target)
            if hit is not None:
                back = Hs._parent_indices
                return SectionVerdict(True, "full",
                                      witness={"subgroup": sorted(H_set),
                                               "normal": sorted(back[i]
                                                                for i in hit)})
        return SectionVerdict(False, "full")

    if Q.order > QUOTIENT_TIER_CAP:
        return SectionVerdict(False, "indeterminate",
                              note="order %d exceeds the quotient-tier cap %d"
                                   % (Q.order, QUOTIENT_TIER_CAP))
    hit = _quotient_scan(Q, p, target)
    if hit is not None:
        return SectionVerdict(True, "quotient",
                              witness={"subgroup": list(range(Q.order)),
                                       "normal": sorted(hit)})
    return SectionVerdict(False, "quotient")


def _quotient_scan(S, p, target):
    """A normal subgroup N with S/N the wreath model, or None."""
    if S.order % target:
        return None
    for N in normal_subgroups(S):
        if S.order // len(N) != target:
            continue
        if iso_to_wreath(quotient(S, N), p):
            return N
    return None


def reconstruct_section(Q, witness, p):
    """Replay a section witness; True iff it still reconstructs the model."""
    Q = _as_small(Q)
    H_set = witness["subgroup"]
    if len(H_set) == Q.order:
        Hs, N = Q, frozenset(witness["normal"])
    else:
        Hs = Q.induced(H_set)
        pos = {q: i for i, q in enumerate(Hs._parent_indices)}
        N = frozenset(pos[q] for q in witness["normal"])
    return iso_to_wreath(quotient(Hs, N), p)
