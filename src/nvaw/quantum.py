"""Quantum structure on a nonlocal vertex algebra.

An S-map is a linear operator S(x): V⊗V -> V⊗V with Laurent-series entries.
This module checks the properties that make (V, S) a (weak) quantum vertex
algebra: S-locality, S-skew-symmetry, the quantum Yang-Baxter equation with
unitarity, and the compatibility axioms tying S(x) to the vacuum, to the
canonical derivation D, and to the multiplication.  It also solves for the
S-map from the multiplication table (when the algebra is non-degenerate
enough to determine it), and assembles the induced S-map on a twisted tensor
product of two algebras that each carry one.
"""

from .linalg import SeriesMap, UniqueSolution, basis_tuples, solve_linear
from .nva import (
    CheckReport, DEFAULT_KMAX, Outcome, clearing_k_items, compute_D, exp_xD,
)
from .series import Series
from .twist import TwistOp, with_inverse


class SMap:
    """S(x): V⊗V -> V⊗V, columns keyed by domain basis pairs, series in x."""

    def __init__(self, name, algebra, table):
        self.name = name
        self.algebra = algebra
        self.table = table
        sp = self.algebra.space
        assert self.table.domain == (sp, sp)
        assert self.table.codomain == (sp, sp)

    def inverse_table(self):
        """S21(-x); equals the inverse exactly when S is unitary."""
        sp = self.algebra.space
        flip = SeriesMap.flip(sp, sp)
        return flip.compose(self.table.at("-x")).compose(flip)


# ---------------------------------------------------------------------------
# S-locality and S-skew-symmetry


def check_S_locality(a, s, kmax=DEFAULT_KMAX):
    """(x1-x2)^k Y(u,x1)Y(v,x2)w ==
       (x1-x2)^k sum_i f_i(x2-x1) Y(v_i,x2)Y(u_i,x1)w,
    with S(x2-x1)(v⊗u) = sum_i v_i⊗u_i⊗f_i, one k per pair (u,v) working
    for every basis w.  The sides are maps on u⊗v⊗w and on v⊗u⊗w."""
    rep = CheckReport(f"{a.name}/{s.name}: S-locality")
    sp = a.space
    y1, y2 = a.y.at("x1"), a.y.at("x2")
    lhs = y1.compose(y2, (1,))
    rhs = y2.compose(y1, (1,)).compose(s.table.at("x2", "-x1"), (0, 1))
    clearing_k_items(rep, ((f"S-locality({u},{v})", [
        (lhs.column((u, v, w)), rhs.column((v, u, w))) for w in sp.basis
        if (u, v, w) in lhs.columns or (v, u, w) in rhs.columns])
        for (u, v) in basis_tuples((sp, sp))), kmax)
    return rep


def check_S_skew(a, s):
    """Y(u,x)v == e^{xD} sum_i f_i(-x) Y(v_i,-x)u_i,
    with S(-x)(v⊗u) = sum_i v_i⊗u_i⊗f_i(-x)."""
    rep = CheckReport(f"{a.name}/{s.name}: S-skew-symmetry")
    sp = a.space
    rhs = (exp_xD(a).compose(a.y.at("-x")).compose(s.table.at("-x"))
           .compose(SeriesMap.flip(sp, sp)))
    rep.compare_maps((f"S-skew({u},{v})", (u, v), a.y, rhs)
                     for (u, v) in basis_tuples((sp, sp)))
    return rep


# ---------------------------------------------------------------------------
# quantum Yang-Baxter equation and unitarity


def check_qyb_unitarity(s):
    """S12(x) S13(x+z) S23(z) == S23(z) S13(x+z) S12(x), and
    S(x) S21(-x) == 1 == S21(-x) S(x)."""
    rep = CheckReport(f"{s.name}: quantum Yang-Baxter + unitarity")
    sp = s.algebra.space
    one, flip = SeriesMap.identity((sp,)), SeriesMap.flip(sp, sp)
    s_x, s_z, s_sum = s.table, s.table.at("z"), s.table.at("x", "z")
    # S13 = σ23 S12 σ23
    lhs = (s_x.tensor(one).compose(flip, (1, 2)).compose(s_sum, (0, 1))
           .compose(flip, (1, 2)).compose(s_z, (1, 2)))
    rhs = (one.tensor(s_z).compose(flip, (1, 2)).compose(s_sum, (0, 1))
           .compose(flip, (1, 2)).compose(s_x, (0, 1)))
    rep.compare_maps((f"QYB{key}", key, lhs, rhs)
                     for key in basis_tuples((sp,) * 3))

    inv = s.inverse_table()
    left, right = s.table.compose(inv), inv.compose(s.table)
    ident = SeriesMap.identity((sp, sp))
    rep.compare_maps(item for key in basis_tuples((sp, sp)) for item in (
        (f"unitarity S(x)S21(-x){key}", key, left, ident),
        (f"unitarity S21(-x)S(x){key}", key, right, ident)))
    return rep


# ---------------------------------------------------------------------------
# the full axiom list for a quantum vertex algebra


def check_qva_axioms(a, s):
    """The seven identities of a quantum vertex algebra:

      1. S(x)(1⊗v) == 1⊗v
      2. S(x)(v⊗1) == v⊗1                              (equivalent partner)
      3. [D⊗1, S(x)] == -d/dx S(x)
      4. [1⊗D, S^{-1}(x)] == d/dx S^{-1}(x)            (equivalent partner)
      5. Y(u,x)v == e^{xD} Y(-x) S(-x)(v⊗u)            (S-skew-symmetry)
      6. S(x1)(Y(x2)⊗1) == (Y(x2)⊗1) S23(x1) S13(x1+x2)
      7. S(x1)(1⊗Y(x2)) == (1⊗Y(x2)) S12(x1-x2) S13(x1) (equivalent partner)

    Each of 1/2, 3/4, 6/7 is an equivalent pair; the equivalences are
    exercised as metamorphic items (partner verdicts must agree).
    """
    rep = CheckReport(f"{a.name}/{s.name}: quantum-vertex-algebra axioms")
    sp = a.space
    vac = a.vacuum
    ident = SeriesMap.identity((sp, sp))
    ok1 = rep.compare_maps((f"S(x)(1⊗{v}) == 1⊗{v}", (vac, v), s.table, ident)
                           for v in sp.basis)
    ok2 = rep.compare_maps((f"S(x)({v}⊗1) == {v}⊗1", (v, vac), s.table, ident)
                           for v in sp.basis)

    D = compute_D(a)
    ok3 = _d_bracket_items(rep, s.table, D, leg=0, sign=-1,
                           label="[D⊗1,S(x)] == -d/dx S(x)")
    ok4 = _d_bracket_items(rep, s.inverse_table(), D, leg=1, sign=1,
                           label="[1⊗D,S^{-1}(x)] == d/dx S^{-1}(x)")

    skew = check_S_skew(a, s)
    rep.extend(skew)

    y2, s_x1 = a.y.at("x2"), s.table.at("x1")
    one, flip = SeriesMap.identity((sp,)), SeriesMap.flip(sp, sp)
    keys = basis_tuples((sp,) * 3)
    # S13 = σ23 S12 σ23
    lhs = s_x1.compose(y2, (0,))
    rhs = (y2.tensor(one).compose(s_x1, (1, 2)).compose(flip, (1, 2))
           .compose(s.table.at("x1", "x2"), (0, 1)).compose(flip, (1, 2)))
    ok6 = rep.compare_maps((f"S(x1)(Y(x2)⊗1){key}", key, lhs, rhs)
                           for key in keys)
    lhs = s_x1.compose(y2, (1,))
    rhs = (one.tensor(y2).compose(s.table.at("x1", "-x2"), (0, 1))
           .compose(flip, (1, 2)).compose(s_x1, (0, 1)).compose(flip, (1, 2)))
    ok7 = rep.compare_maps((f"S(x1)(1⊗Y(x2)){key}", key, lhs, rhs)
                           for key in keys)

    for name, lvl, rvl in (("vacuum legs", ok1, ok2),
                           ("D-brackets", ok3, ok4),
                           ("Y-compatibilities", ok6, ok7)):
        rep.add(f"equivalence of partner identities ({name})",
                Outcome.EXACT_PASS if lvl == rvl else Outcome.FAIL,
                f"first {'pass' if lvl else 'fail'}, "
                f"second {'pass' if rvl else 'fail'}")
    return rep


def _d_bracket_items(rep, table, D, leg, sign, label):
    """[D on one leg, table] == sign * d/dx table, itemized per column.
    Returns whether every item passed."""
    one = SeriesMap.identity(D.domain)
    d_leg = D.tensor(one) if leg == 0 else one.tensor(D)
    bracket = d_leg.compose(table) - table.compose(D, (leg,))
    want = table.transform(lambda t: t.deriv("x").scale(sign))
    return rep.compare_maps((f"{label} at {key}", key, bracket, want)
                            for key in basis_tuples(table.domain))


# ---------------------------------------------------------------------------
# solving for the S-map from the multiplication


class SMapExtraction:
    def __init__(self, smap, solve, axioms, d_relation, z2):
        self.smap = smap  # SMap, or None
        self.solve = solve  # UniqueSolution | Underdetermined | Inconsistent
        self.axioms = axioms  # CheckReport, or None
        self.d_relation = d_relation  # CheckReport, or None
        self.z2 = z2  # CheckReport

    @property
    def ok(self):
        return (isinstance(self.solve, UniqueSolution)
                and self.axioms is not None and self.axioms.ok
                and self.d_relation is not None and self.d_relation.ok)


def extract_S(a):
    """Solve Y(u,x)v == e^{xD} Y(-x) S(-x)(v⊗u) for S as one system.

    The unknowns are the coefficients of S(x)(v⊗u) = sum c[(a,b),e] x^e a⊗b
    over the exponent range.  Their images do not depend on (v,u), so
    solve_linear takes one block: the images once, keyed by (a,b,e), and a
    target Y(u,x)v per right-hand side (v,u).  When the degree-two
    injectivity kernel is nonzero the defining relation cannot pin the
    table down and the solve comes back Underdetermined; that outcome is
    reported honestly.  On a unique solution the full axiom suite and the
    extra derivation relation [1⊗D, S(x)] == d/dx S(x) are run and
    reported.  The solved S takes the window of the algebra's table.
    """
    from .products import EXP_RANGE, check_Z2_injectivity, solved_table

    sp = a.space
    z2 = check_Z2_injectivity(a)
    expd = exp_xD(a)
    elo, ehi = EXP_RANGE

    # the image e^{xD} Y(aa,-x)bb (-1)^e x^e of the unknown s[(v,u)->(aa,bb),e]
    # does not depend on (v,u); S(-x) turns x^e into (-1)^e x^e
    y_neg = a.y.at("-x")
    pairs = basis_tuples((sp, sp))
    images = {}
    for (aa, bb) in pairs:
        base = y_neg.column((aa, bb))
        for e in range(elo, ehi + 1):
            mono = Series.monomial("x", e, coeff=(-1) ** (e % 2))
            images[(aa, bb, e)] = expd.apply(base.scale(mono))

    # one block over the images, a target per (v,u): their one matrix is
    # eliminated once, with a right-hand side per (v,u)
    nsym = {((v, u), (aa, bb, e)): f"s[{v},{u}][{aa},{bb}][{e}]"
            for (v, u) in pairs for (aa, bb, e) in images}
    sol = solve_linear([({(v, u): a.vertex(u, v) for (v, u) in pairs},
                         images)], nsym)
    if not isinstance(sol, UniqueSolution):
        return SMapExtraction(None, sol, None, None, z2)

    smap = SMap(f"extracted({a.name})", a, solved_table(
        {c + key: sol.assignment[name] for (c, key), name in nsym.items()},
        (sp, sp), (sp, sp), a.y.window()))
    axioms = CheckReport(f"{a.name}: extracted S-map axioms")
    axioms.extend(check_qyb_unitarity(smap))
    axioms.extend(check_qva_axioms(a, smap))
    d_rel = CheckReport(f"{a.name}: [1⊗D,S(x)] == d/dx S(x)")
    _d_bracket_items(d_rel, smap.table, compute_D(a), leg=1, sign=1,
                     label="[1⊗D,S(x)] == d/dx S(x)")
    return SMapExtraction(smap, sol, axioms, d_rel, z2)


# ---------------------------------------------------------------------------
# the induced S-map on a twisted tensor product


def build_S_R(p, sU, sV):
    """S_R(x) = (R^{-1})^{23}(x) S_U^{12}(x) σ12 S_V^{34}(x) σ34 R^{23}(x)
    σ13 σ24, wrapped into the pair basis of the product algebra, where
    σ13 σ24 is the flip of the two pair legs."""
    assert sU.algebra.space == p.first.space
    assert sV.algebra.space == p.second.space
    twist = with_inverse(p.twist)
    U, V, P = p.first.space, p.second.space, p.nva.space
    pairs, unpairs = (p.pairing().tensor(p.pairing()),
                      p.unpairing().tensor(p.unpairing()))
    table = (pairs.compose(SeriesMap.identity((U,)).tensor(twist.inverse)
                           .tensor(SeriesMap.identity((V,))))
             .compose(sU.table, (0, 1)).compose(SeriesMap.flip(U, U), (0, 1))
             .compose(sV.table, (2, 3)).compose(SeriesMap.flip(V, V), (2, 3))
             .compose(twist.table, (1, 2)).compose(unpairs)
             .compose(SeriesMap.flip(P, P)))
    return SMap(f"S_R({p.nva.name})", p.nva, table)


def smap_twist(s):
    """R(x) = S(x)σ as a twisting operator for the pair (V, V); its inverse
    is S(-x)σ, which is exact whenever S is unitary."""
    sp = s.algebra.space
    flip = SeriesMap.flip(sp, sp)
    table = s.table.compose(flip)
    inverse = s.table.at("-x").compose(flip)
    return TwistOp(f"twist({s.name})", s.algebra, s.algebra, table, inverse)
