"""The Z_p wr Z_p model, isomorphism testing, and section search.

W_p = Z_p wr Z_p is its base (Z_p)^p, the regular F_p C_p-module, extended by
the block shift of order p.  A finite p-group Q maps onto W_p exactly when
some maximal subgroup M and some g outside M have (g - 1)^(p-1) != 0 on
V = M/Phi(M), an F_p[Q/M]-module since M acts trivially on it:

- if Q maps onto W_p, let M be the preimage of the base; V maps onto the
  base, which is free and so a summand of V, and g - 1 acts on the base as
  one Jordan block of size p;
- if (g - 1)^(p-1) v != 0, then v spans a free submodule of V, a summand
  since group algebras are self-injective (Alperin, Local Representation
  Theory, 1986); killing its complement leaves an extension of C_p by
  F_p C_p, which splits because H^2(C_p, F_p C_p) = 0 by Shapiro's lemma
  (Brown, Cohomology of Groups, 1982), so the quotient is W_p.

Any g outside M will do (g^k - 1 is g - 1 times a unit of F_p C_p for p not
dividing k), and (g - 1)^(p-1) takes m Phi(M) to [m, g, ..., g] Phi(M), so
the test is a membership in Phi(M) per generator of M (`_maps_onto_wreath`).

Being 2-generated also bounds the section search: if H/N is the model,
generated by xN and yN, then <x, y> maps onto H/N, so a least subgroup with
the model as a quotient is generated by two elements.  The full tier of
`wreath_section_detect` visits only those subgroups (the p-quotient view:
Havas and Newman 1980; Holt, Eick and O'Brien 2005, ch. 9).
"""

import operator
from functools import cache, reduce
from itertools import product

from .catalog import construct
from .classes import class_of
from .fields import is_p_power, is_prime
from .groups import Group, orbit
from .smallgroup import (ORDER_CAP, SmallGroup, group_order, normal_subgroups,
                         quotient, two_generated)

FULL_TIER_CAP = {2: 1024, 3: 729}


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
    """True iff H (a Group or SmallGroup) is Z_p wr Z_p: |H| = p^(p+1),
    |H : Phi(H)| = p^2 and H maps onto the model by the module test (module
    docstring), on a Group's image permutations or a SmallGroup's indices."""
    if group_order(H) != p ** (p + 1):
        return False
    gens = H.gens if isinstance(H, SmallGroup) else H.image_gens
    return _maps_onto_wreath(H, gens, p ** (p + 1), p, rank=2)


def _maps_onto_wreath(H, gens, order, p, rank=None):
    """True iff <gens>, of the given order in the p-group H, maps onto
    Z_p wr Z_p (and, if rank is given, |<gens> : Phi| = p^rank).

    Phi(<xs>), for <xs> normal in <gens>, is the normal closure of the p-th
    powers and commutators of xs, one `orbit` on a Group's raw images
    (`Chain.kernel`) or a SmallGroup's table rows.  With a basis b_0, ... mod Phi
    picked from gens (Burnside), each maximal M is the kernel of an f with
    last nonzero value f(b_k) = 1: M = <m_j^(g^i) (i < p), g^p> for g = b_k,
    m_j = b_j g^-f(b_j), j != k (Schreier), and M passes when some
    [m_j, g, ..., g] is outside Phi(M).  For gens x, y that is (m, g) =
    (y, x), then (x y^j, y) for j < p.
    """
    if isinstance(H, SmallGroup):
        one, mul, inv, key, times, conj = 0, H.mul, H.inv, int, H.left, H.conj
    else:
        encode, times, conj = H.chain.kernel
        one, mul, inv = H.chain.identity, operator.mul, operator.invert

        def key(x):
            return encode(x.images)
    unit, conjugations = key(one), [conj(key(g)) for g in gens]

    def power(x, k):
        return reduce(mul, [x] * k, one)

    def comm(a, b):
        return mul(inv(mul(b, a)), mul(a, b))

    def frattini(xs):
        seeds = {key(power(a, p)) for a in xs}
        seeds.update(key(comm(a, b)) for i, a in enumerate(xs) for b in xs[:i])
        seeds.discard(unit)
        return orbit([unit], [times(s) for s in seeds] + conjugations)

    span = frattini(gens)
    index, basis = order // len(span), list(gens)
    if index < p * p or rank and index != p ** rank:
        return False
    if p ** len(basis) != index:
        basis = []
        for b in gens:
            if key(b) not in span:
                basis.append(b)
                if p ** len(basis) == index:
                    break
                span = orbit(span, [times(key(b))])
    for k, g in enumerate(basis):
        tops = [power(g, i) for i in range(p + 1)]
        for e in product(range(p), repeat=k):
            ms = [mul(b, tops[j]) for b, j in zip(basis, e)] + basis[k + 1:]
            phi = frattini([mul(mul(inv(t), m), t) for m in ms
                            for t in tops[:p]] + tops[p:])
            for m in ms:
                for _ in range(p - 1):
                    m = comm(m, g)
                if key(m) not in phi:
                    return True
    return False


def wreath_section_detect(Q, p, tier="quotient"):
    """Search Q for a section isomorphic to Z_p wr Z_p.

    Both tiers put candidate subgroups H to the module test in turn; the
    witness N is the first normal subgroup of the first H that passes, in
    (order, members) order, with H/N the model; only normal subgroups of
    order |H| / p^(p+1) are built.  tier=quotient has one candidate, Q
    itself; tier=full has every 2-generated subgroup in (order, members)
    order, since W_p is 2-generated (module docstring), which is Q alone
    when |Q| = p^(p+1): a candidate's order is a multiple of p^(p+1), and a
    Q of that order that maps onto W_p is W_p, 2-generated.
    Caps produce an indeterminate verdict rather than a silently incomplete
    scan; they are read off the order before a Group is indexed.
    """
    if tier not in ("quotient", "full"):
        raise ValueError("tier must be quotient or full")
    if not is_prime(p):
        raise ValueError("p must be prime, got %r" % (p,))
    order = group_order(Q)
    if not is_p_power(order, p):
        raise ValueError("input of order %d is not a %d-group" % (order, p))
    target = p ** (p + 1)

    cap = FULL_TIER_CAP.get(p) if tier == "full" else ORDER_CAP
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
    if tier == "full" and order > target:
        cands = two_generated(Q)
    else:
        cands = {whole: Q.gens}
    for H, gens in cands.items():
        if len(H) % target or not _maps_onto_wreath(Q, gens, len(H), p):
            continue
        S = Q if H == whole else Q.induced(H)
        N = next(N for N in normal_subgroups(S, S.order // target)
                 if S.order // len(N) == target
                 and iso_to_wreath(quotient(S, N), p))
        members = sorted(H)
        return SectionVerdict(True, tier, witness={
            "subgroup": members, "normal": sorted(members[i] for i in N)})
    return SectionVerdict(False, tier)


def reconstruct_section(Q, witness, p):
    """Replay a section witness; True iff it still reconstructs the model.

    False, without raising, when an index is not an integer, when the
    subgroup's indices are out of range, repeated or not closed, or when the
    normal set leaves the subgroup or is not a normal subgroup of it."""
    Q = _as_small(Q)
    indices = [*witness["subgroup"], *witness["normal"]]
    if not all(isinstance(q, int) and 0 <= q < Q.order for q in indices):
        return False
    members = sorted(witness["subgroup"])
    if members != sorted(Q.closure(members)):
        return False
    pos = {q: i for i, q in enumerate(members)}
    if not pos.keys() >= set(witness["normal"]):
        return False
    S = Q.induced(members)
    N = frozenset(pos[q] for q in witness["normal"])
    return S.normal_closure(N) == N and iso_to_wreath(quotient(S, N), p)
