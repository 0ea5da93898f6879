"""The Z_p wr Z_p model, isomorphism testing, and section search.

Z_p wr Z_p = <a, t | a^p, t^p, [a, a^(t^i)] (1 <= i < p)>, a the base p-cycle
and t the block shift.  In a group with this presentation the a^(t^i), i < p,
commute and t permutes them, so they generate a normal elementary abelian
subgroup of rank at most p with a cyclic quotient of order at most p: the order
is at most p^(p+1).  So by von Dyck's theorem (Robinson, A Course in the Theory
of Groups, 2.2.1) a group of order p^(p+1) is the model exactly when two
elements of order p satisfy the relators and generate it; `iso_to_wreath`
searches for such a pair.

Being 2-generated also bounds the section search: if H/N is the model,
generated by xN and yN, then <x, y> maps onto H/N, so a least subgroup with
the model as a quotient is generated by two elements.  The full tier of
`wreath_section_detect` visits only those subgroups (the p-quotient view:
Havas and Newman 1980; Holt, Eick and O'Brien 2005, ch. 9).
"""

from functools import cache, partial, reduce
from operator import invert, mul

from .catalog import construct
from .classes import class_of
from .elements import Permutation
from .fields import is_p_power, is_prime
from .groups import Group, orbit
from .smallgroup import (SmallGroup, group_order, normal_subgroups, quotient,
                         two_generated)

FULL_TIER_CAP = {2: 1024, 3: 729}
QUOTIENT_TIER_CAP = 3 ** 7


class WreathModel:
    """Z_p wr Z_p on p^2 points: p disjoint p-cycles under a block shift."""

    __slots__ = ("p", "group")

    def __init__(self, p, group):
        self.p = p
        self.group = group


@cache
def build_wreath(p):
    """The model for p in {2, 3, 5}, the catalog's "wreath:<p>", with its order
    and derived subgroup asserted; built and checked once per p, and the same
    model returned after."""
    if p not in (2, 3, 5):
        raise ValueError("supported primes: 2, 3, 5; got %r" % (p,))
    G = construct("wreath:%d" % p)
    if G.order() != p ** (p + 1):
        raise AssertionError("wreath model has order %d" % G.order())
    base, top = G.gens
    comm = ~base * ~top * base * top
    # the normal closure of comm, the derived subgroup, is generated by its class
    if Group(class_of(G, comm).elements).order() != p ** (p - 1):
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


def _as_small(H):
    return H if isinstance(H, SmallGroup) else SmallGroup.from_group(H)


def iso_to_wreath(H, p):
    """True iff H (a Group or SmallGroup) is Z_p wr Z_p.

    Screens: |H| = p^(p+1); |H : Phi(H)| = p^2, the Frattini subgroup Phi(H)
    being the normal closure of the generators' commutators and p-th powers;
    exponent p^2.  Then x, y generate H exactly when x is outside Phi(H) and y
    outside <x>Phi(H) (Burnside's basis theorem), so x runs over class
    representatives of order p outside Phi(H), y over the elements of order p
    outside <x>Phi(H): at most k * (p^(p+1) - p^p) pairs for k such classes.
    A pair is accepted when [x, x^(y^i)] = 1 for 1 <= i <= p/2 (i and p - i
    give conjugate relators).  A Group is searched on its chain's
    permutations, a SmallGroup on its indices.
    """
    if group_order(H) != p ** (p + 1):
        return False
    if isinstance(H, SmallGroup):
        return _presents_wreath(p, range(H.order), 0, H.gens, H.mul, H.inv,
                                H.element_order)
    return _presents_wreath(p, H.chain.elements(), H.chain.identity,
                            H.image_gens, mul, invert, Permutation.order)


def _presents_wreath(p, elements, one, gens, mul, inv, order_of):
    """The screens and pair search of iso_to_wreath on a group of order
    p^(p+1), given its elements, identity, generators and operations."""
    def power(x, k):
        return reduce(mul, [x] * k, one)

    conj = [lambda x, g=g, gi=inv(g): mul(mul(gi, x), g) for g in gens]
    seeds = {power(g, p) for g in gens}
    seeds.update(mul(inv(mul(b, a)), mul(a, b)) for a in gens for b in gens)
    seeds.discard(one)
    phi = orbit([one], [partial(mul, s) for s in seeds] + conj)
    if len(phi) != p ** (p - 1):
        return False
    coset, cands, top = {}, [], 1  # coset: element -> first member met
    for h in elements:
        o = order_of(h)
        top = max(top, o)
        if h not in coset:
            coset.update((mul(h, f), h) for f in phi)
        if o == p:
            cands.append(h)
    if top != p * p:
        return False
    tried = set()
    for x in cands:
        if x in phi or x in tried:
            continue
        tried.update(orbit([x], conj))
        span = {coset[power(x, k)] for k in range(p)}
        for y in cands:
            if coset[y] in span:
                continue
            yi, c = inv(y), x
            for _ in range(p // 2):
                c = mul(mul(yi, c), y)
                if mul(x, c) != mul(c, x):
                    break
            else:
                return True
    return False


def wreath_section_detect(Q, p, tier="quotient"):
    """Search Q for a section isomorphic to Z_p wr Z_p.

    Both tiers run one loop over candidate subgroups H, scanning the
    quotients of H by its normal subgroups.  tier=quotient has one
    candidate, Q itself.  tier=full visits every subgroup generated by two
    elements, in (order, members) order: W_p is 2-generated, so if H/N is
    the model, generated by xN and yN, then <x, y> maps onto it, and the
    first subgroup in that order with the model as a quotient is itself
    2-generated.  Caps produce an indeterminate verdict rather than a
    silently incomplete scan; they are read off the order before a Group
    is indexed.
    """
    if tier not in ("quotient", "full"):
        raise ValueError("tier must be quotient or full")
    if not is_prime(p):
        raise ValueError("p must be prime, got %r" % (p,))
    order = group_order(Q)
    if not is_p_power(order, p):
        raise ValueError("input of order %d is not a %d-group" % (order, p))
    target = p ** (p + 1)

    cap = FULL_TIER_CAP.get(p) if tier == "full" else QUOTIENT_TIER_CAP
    if cap is None:
        return SectionVerdict(False, "indeterminate",
                              note="full-tier search supports p=2,3 only; "
                                   "use tier=quotient")
    if order > cap:
        return SectionVerdict(False, "indeterminate",
                              note="order %d exceeds the %s-tier cap %d"
                                   % (order, tier, cap))
    Q = _as_small(Q)
    whole = frozenset(range(Q.order))
    for H in two_generated(Q) if tier == "full" else [whole]:
        if len(H) % target:
            continue
        S = Q if H == whole else Q.induced(H)
        for N in normal_subgroups(S):
            if S.order // len(N) != target:
                continue
            if iso_to_wreath(quotient(S, N), p):
                members = sorted(H)
                return SectionVerdict(True, tier, witness={
                    "subgroup": members,
                    "normal": sorted(members[i] for i in N)})
    return SectionVerdict(False, tier)


def reconstruct_section(Q, witness, p):
    """Replay a section witness; True iff it still reconstructs the model.

    False, without raising, when the subgroup's indices are out of range,
    repeated or not closed, or when the normal set leaves the subgroup or is
    not a normal subgroup of it."""
    Q = _as_small(Q)
    members = sorted(witness["subgroup"])
    if not all(0 <= q < Q.order for q in members):
        return False
    if members != sorted(Q.closure(members)):
        return False
    pos = {q: i for i, q in enumerate(members)}
    if not pos.keys() >= set(witness["normal"]):
        return False
    S = Q.induced(members)
    N = frozenset(pos[q] for q in witness["normal"])
    return S.normal_closure(N) == N and iso_to_wreath(quotient(S, N), p)
