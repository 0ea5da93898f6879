"""Matrix modules over small groups: fixed and commutator dimensions,
irreducibility by spinning lines, and the generator fixed-space checks,
cross-validated against the wreath-section search."""

from functools import lru_cache

from .elements import SquareMatrix
from .fields import projective_points
from .report import Verdict, HOLDS, FAILS, INDETERMINATE, SKIPPED, timed
from .smallgroup import is_p_group
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


def generator_positions(S):
    """Raw-generator position -> element index, read off the derivations."""
    if S.derivations is None:
        raise ValueError("group has no derivation tree; build it via generate()")
    pos = {}
    for i, d in enumerate(S.derivations):
        if d and d[1] == 0 and d[0] not in pos:
            pos[d[0]] = i
    return pos


def representation(S, action):
    """A matrix for every element of S.

    The assignment generator -> matrix is pushed along S's derivation tree,
    then checked to respect right-multiplication by every generator, which
    pins the homomorphism property for all products.  ValueError when the
    matrices do not satisfy the group's relations.
    """
    pos = generator_positions(S)
    if sorted(pos) != list(range(len(action.mats))):
        raise ValueError("action has %d matrices but the group uses generator "
                         "positions %s" % (len(action.mats), sorted(pos)))
    rep = [None] * S.order
    rep[0] = SquareMatrix.identity(action.field, action.dim)
    for i in range(1, S.order):
        gpos, parent = S.derivations[i]
        rep[i] = action.mats[gpos] * rep[parent]
    for gpos, gi in sorted(pos.items()):
        mat = action.mats[gpos]
        for i in range(S.order):
            if rep[S.mul(i, gi)] != rep[i] * mat:
                raise ValueError("matrices do not satisfy the group's "
                                 "relations (generator %d)" % gpos)
    return rep


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
    """Shared screen; (status, reason, rep, positions) with status None = go.

    lemma21_check and cor22_check screen the same case in turn, so the last
    screen is kept: SmallGroup and ModuleAction hash by identity."""
    if not is_p_group(P, p):
        return SKIPPED, "group order %d is not a power of %d" % (P.order, p), None, None
    if action.field.r == p:
        return (SKIPPED, "field characteristic %d divides the group order" % p,
                None, None)
    try:
        rep = representation(P, action)
    except ValueError as e:
        return SKIPPED, str(e), None, None
    irr = is_irreducible(action)
    if irr is None:
        return (INDETERMINATE, "irreducibility scan exceeds %d lines" % SPIN_CAP,
                None, None)
    if not irr:
        return SKIPPED, "module is reducible", None, None
    ident = SquareMatrix.identity(action.field, action.dim)
    if all(rep[d] == ident for d in P.derived_indices()):
        return SKIPPED, "derived subgroup acts trivially", None, None
    return None, "", rep, generator_positions(P)


@timed
def lemma21_check(P, action, p, name=""):
    """Some generator fixes at most dim/p of the module; exactly dim/p when
    every generator has order p.  Hypothesis gaps skip, never fail."""
    scenario = "lemma21:%s,p=%d" % (name or P.name or "group", p)
    n = action.dim
    counters = {"generators": len(action.mats), "dim": n}
    status, reason, rep, pos = _hypotheses(P, action, p)
    if status is not None:
        return Verdict(scenario, status, counters=counters, notes=[reason])
    fixed = [fixed_dim(M) for M in action.mats]
    orders = [P.element_order(pos[g]) for g in sorted(pos)]
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
    status, reason, rep, pos = _hypotheses(P, action, p)
    if status is not None:
        return Verdict(scenario, status, counters=counters, notes=[reason])
    orders = [P.element_order(pos[g]) for g in sorted(pos)]
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
