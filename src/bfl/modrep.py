"""Matrix modules of permutation and matrix groups: fixed and commutator
dimensions, irreducibility by spinning lines, and the generator fixed-space
checks, cross-validated against the wreath-section search.

A group P (a `Group`) acts on a module through one matrix M_i per
generator g_i.  The checks read nothing of P but its order, its generators'
orders and, for the section search, P itself: that g_i -> M_i extends to a
homomorphism is one chain's order (`_broken_relations`), and the derived
subgroup acts trivially exactly when the matrices commute.
"""

from functools import lru_cache

from .elements import Overflow, Permutation, SquareMatrix, element_order
from .fields import is_p_power, projective_points
from .groups import Group, matrix_action
from .report import Verdict, HOLDS, FAILS, INDETERMINATE, SKIPPED, timed
from .wreath import wreath_section_detect

SPIN_CAP = 100_000


class ModuleAction:
    """Invertible matrices over one field, one per group generator."""

    __slots__ = ("field", "dim", "mats")

    def __init__(self, mats):
        mats = list(mats)
        if not mats:
            raise ValueError("an action needs at least one matrix")
        F, n = mats[0].field, mats[0].n
        for m in mats:
            if m.field != F or m.n != n:
                raise ValueError("matrices must share one field and size")
            if m.rank() != n:
                raise ValueError("action matrices must be invertible")
        self.field = F
        self.dim = n
        self.mats = mats

    def __repr__(self):
        return "ModuleAction(%d mats, dim %d over GF(%d))" % (
            len(self.mats), self.dim, self.field.q)


def _broken_relations(P, action):
    """Why g_i -> M_i does not extend to a homomorphism of P, or None.

    It extends exactly when the diagonal group <(g_i, M_i)> has order |P|:
    that group permutes P's image points and, shifted past them, the
    module's vector orbit (`matrix_action`); its projection onto P is onto,
    and one-to-one exactly when the assignment is well defined.  The
    basis's orbit under a homomorphic image of P has at most dim |P|
    points, so a longer orbit is itself a failure.  A failure names the
    first k whose prefix <(g_i, M_i) : i <= k> is larger than
    <g_i : i <= k>."""
    gens, mats = P.image_gens, action.mats
    if len(mats) != len(gens):
        return ("action has %d matrices but the group has %d generators"
                % (len(mats), len(gens)))
    cap, shift = action.dim * P.order(), P.chain.degree

    def extends(k, order):
        try:
            perms = matrix_action(mats[:k], cap).perms
        except Overflow:
            return False
        return Group([Permutation(g.images + tuple(shift + x for x in m.images))
                      for g, m in zip(gens, perms)]).order() == order

    if extends(len(mats), P.order()):
        return None
    k = next(k for k in range(len(mats))
             if not extends(k + 1, Group(gens[:k + 1]).order()))
    return "matrices do not satisfy the group's relations (generator %d)" % k


# -- linear algebra over the module -----------------------------------------

def _shifted(M):
    """M - 1, the map whose rank/nullity split the module under M."""
    I = SquareMatrix.identity(M.field, M.n)
    return M.add(I.scale(M.field.neg(1)))

def commutator_dim(M):
    """dim [x, V] = rank(x - 1)."""
    return _shifted(M).rank()

def fixed_dim(M):
    """dim of the fixed space C_V(x) = nullity(x - 1)."""
    return M.n - _shifted(M).rank()


def _insert(vec, basis, F):
    """Echelon-insert a vector; the stored reduced row, or None if spanned."""
    vec = list(vec)
    for piv, row in basis.items():
        c = vec[piv]
        if c:
            vec = [F.sub(x, F.mul(c, y)) for x, y in zip(vec, row)]
    for piv, c in enumerate(vec):
        if c:
            ci = F.inv(c)
            row = tuple(F.mul(ci, x) for x in vec)
            basis[piv] = row
            return row
    return None

def spin(action, v):
    """Echelon basis of the smallest invariant subspace containing v."""
    F, n = action.field, action.dim
    basis = {}
    first = _insert(v, basis, F)
    queue = [first] if first else []
    while queue and len(basis) < n:
        w = queue.pop()
        for M in action.mats:
            row = _insert(M.apply(w), basis, F)
            if row:
                queue.append(row)
    return basis

def is_irreducible(action):
    """Spin every line; None (undecided) past SPIN_CAP lines."""
    F, n = action.field, action.dim
    if n == 1:
        return True
    lines = (F.q ** n - 1) // (F.q - 1)
    if lines > SPIN_CAP:
        return None
    for v in projective_points(F, n):
        if len(spin(action, v)) < n:
            return False
    return True


def commutator_profile(action):
    """Per-generator dims of [x_i, V] and the rank of their joint span."""
    F, n = action.field, action.dim
    dims = []
    basis = {}
    for M in action.mats:
        S = _shifted(M)
        dims.append(S.rank())
        for j in range(n):
            _insert(tuple(S.rows[i][j] for i in range(n)), basis, F)
    return dims, len(basis)


# -- the generator fixed-space checks ---------------------------------------

@lru_cache(maxsize=1)
def _hypotheses(P, action, p):
    """Shared screen; (status, reason, generator orders) with status None = go.

    lemma21_check and cor22_check screen the same case in turn, so the last
    screen is kept: Group and ModuleAction hash by identity.  Given the
    homomorphism rho, rho(P') = rho(P)', so P' acts trivially exactly when
    the generator matrices commute pairwise."""
    if not is_p_power(P.order(), p):
        return (SKIPPED, "group order %d is not a power of %d" % (P.order(), p),
                None)
    if action.field.r == p:
        return (SKIPPED, "field characteristic %d divides the group order" % p,
                None)
    broken = _broken_relations(P, action)
    if broken:
        return SKIPPED, broken, None
    irr = is_irreducible(action)
    if irr is None:
        return (INDETERMINATE, "irreducibility scan exceeds %d lines" % SPIN_CAP,
                None)
    if not irr:
        return SKIPPED, "module is reducible", None
    mats = action.mats
    if all(a * b == b * a for i, a in enumerate(mats) for b in mats[:i]):
        return SKIPPED, "derived subgroup acts trivially", None
    return None, "", tuple(map(element_order, P.gens))


@timed
def lemma21_check(P, action, p, name=""):
    """Some generator fixes at most dim/p of the module; exactly dim/p when
    every generator has order p.  Hypothesis gaps skip, never fail."""
    scenario = "lemma21:%s,p=%d" % (name or P.name or "group", p)
    n = action.dim
    counters = {"generators": len(action.mats), "dim": n}
    status, reason, orders = _hypotheses(P, action, p)
    if status is not None:
        return Verdict(scenario, status, counters=counters, notes=[reason])
    orders = list(orders)  # the witness's own list, not the cached screen's
    fixed = [fixed_dim(M) for M in action.mats]
    all_p = all(o == p for o in orders)
    ok_a = any(p * f <= n for f in fixed)
    ok_b = (not all_p) or any(p * f == n for f in fixed)
    notes = ["exact dim/p bound applies: every generator has order %d" % p
             if all_p else
             "only the dim/p inequality applies: generator orders %s" % (orders,)]
    if ok_a and ok_b:
        return Verdict(scenario, HOLDS, counters=counters, notes=notes)
    witness = {"fixed_dims": fixed, "generator_orders": orders, "dim": n,
               "part": "a" if not ok_a else "b"}
    return Verdict(scenario, FAILS, witnesses=[witness], counters=counters,
                   notes=notes)


@timed
def cor22_check(P, action, p, name=""):
    """When the commutator images [x_i, V] sum directly to the whole module
    (all generators of order p), the group must show a wreath section; the
    conclusion is cross-checked against the structural section search."""
    scenario = "cor22:%s,p=%d" % (name or P.name or "group", p)
    n = action.dim
    counters = {"generators": len(action.mats), "dim": n}
    status, reason, orders = _hypotheses(P, action, p)
    if status is not None:
        return Verdict(scenario, status, counters=counters, notes=[reason])
    bad = [o for o in orders if o != p]
    if bad:
        return Verdict(scenario, SKIPPED, counters=counters,
                       notes=["a generator has order %d, not %d" % (bad[0], p)])
    dims, joint = commutator_profile(action)
    counters["joint_rank"] = joint
    counters["dim_sum"] = sum(dims)
    if sum(dims) != n or joint != n:
        return Verdict(scenario, SKIPPED, counters=counters,
                       notes=["commutator images have dims %s spanning rank "
                              "%d over dim %d; direct-sum hypothesis not met"
                              % (dims, joint, n)])
    sv = wreath_section_detect(P, p, tier="full")
    if sv.tier == "indeterminate":
        return Verdict(scenario, INDETERMINATE, counters=counters,
                       notes=[sv.note])
    if sv.found:
        return Verdict(scenario, HOLDS, counters=counters,
                       notes=["direct sum holds and the section search "
                              "concurs at tier %s" % sv.tier])
    witness = {"commutator_dims": dims, "joint_rank": joint,
               "section_found": False, "tier": sv.tier}
    return Verdict(scenario, FAILS, witnesses=[witness], counters=counters,
                   notes=["direct sum holds but no wreath section was found"])
