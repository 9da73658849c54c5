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

from dataclasses import dataclass

from .linalg import (
    Inconsistent, SeriesMap, SeriesVector, UniqueSolution, Underdetermined,
    basis_tuples, solve_linear,
)
from .nva import (
    CheckReport, DEFAULT_KMAX, Outcome, compute_D, double_product, eq_outcome,
    exp_xD, find_clearing_k, window_equal_vec, witness,
)
from .series import DEFAULT_RANGE, LinExpr, Q, Series, Window
from .twist import TwistOp, with_inverse


@dataclass(frozen=True)
class SMap:
    """S(x): V⊗V -> V⊗V, columns keyed by domain basis pairs, series in x."""

    name: str
    algebra: "Nva"
    table: SeriesMap

    def __post_init__(self):
        sp = self.algebra.space
        assert self.table.domain == (sp, sp)
        assert self.table.codomain == (sp, sp)

    def inverse_table(self):
        """S21(-x); equals the inverse exactly when S is unitary."""
        neg = self.table.transform(lambda s: s.negate_var("x"))
        sp = self.algebra.space
        flip = SeriesMap.flip(sp, sp)
        return flip.compose(neg).compose(flip)


def apply_legs(mp, vec, legs):
    """Apply a SeriesMap to arbitrary (possibly non-adjacent) legs.

    Only valid when the map has as many codomain legs as domain legs; the
    outputs re-occupy the original positions.
    """
    n = len(vec.spaces)
    legs = tuple(legs)
    assert len(mp.domain) == len(mp.codomain)
    rest = tuple(i for i in range(n) if i not in legs)
    perm = legs + rest
    moved = vec.permute(perm)
    moved = mp.apply(moved, tuple(range(len(legs))))
    inv = [0] * n
    for newpos, old in enumerate(perm):
        inv[old] = newpos
    return moved.permute(tuple(inv))


# ---------------------------------------------------------------------------
# S-locality and S-skew-symmetry


def check_S_locality(a, s, rng=DEFAULT_RANGE, kmax=DEFAULT_KMAX):
    """(x1-x2)^k Y(u,x1)Y(v,x2)w ==
       (x1-x2)^k sum_i f_i(x2-x1) Y(v_i,x2)Y(u_i,x1)w,
    with S(x2-x1)(v⊗u) = sum_i v_i⊗u_i⊗f_i, one k per pair (u,v) working
    for every basis w."""
    rep = CheckReport(f"{a.name}/{s.name}: S-locality")
    sp = a.space
    y1, y2 = a.y.at("x1"), a.y.at("x2")
    s_sub = s.table.at("x2").transform(
        lambda t: t.substitute_sum("x2", "x2", "x1", rng, 1, -1))
    spaces = (sp, sp, sp)
    for (u, v) in basis_tuples((sp, sp)):
        sides = []
        for w in sp.basis:
            lhs = double_product(y1, y2, u, v, w, spaces)
            vec = SeriesVector.basis(spaces, (v, u, w))
            rhs = y2.apply(y1.apply(s_sub.apply(vec, (0, 1)), (1, 2)), (0, 1))
            sides.append((lhs, rhs))
        k, res = find_clearing_k(sides, kmax, rng)
        if k is None:
            rep.add(f"S-locality({u},{v})", Outcome.NO_K_FOUND,
                    f"no k <= {kmax}")
        else:
            rep.add(f"S-locality({u},{v}) k={k}", eq_outcome(res),
                    witness(res))
    return rep


def check_S_skew(a, s, rng=DEFAULT_RANGE):
    """Y(u,x)v == e^{xD} sum_i f_i(-x) Y(v_i,-x)u_i,
    with S(-x)(v⊗u) = sum_i v_i⊗u_i⊗f_i(-x)."""
    rep = CheckReport(f"{a.name}/{s.name}: S-skew-symmetry")
    sp = a.space
    expd = exp_xD(a, "x", rng)
    s_neg = s.table.transform(lambda t: t.negate_var("x"))
    y_neg = a.y.transform(lambda t: t.negate_var("x"))
    for (u, v) in basis_tuples((sp, sp)):
        lhs = a.vertex(u, v)
        rhs = expd.apply(y_neg.apply(s_neg.column((v, u))))
        res = window_equal_vec(lhs, rhs)
        rep.add(f"S-skew({u},{v})", eq_outcome(res), witness(res))
    return rep


# ---------------------------------------------------------------------------
# quantum Yang-Baxter equation and unitarity


def check_qyb_unitarity(s, rng=DEFAULT_RANGE):
    """S12(x) S13(x+z) S23(z) == S23(z) S13(x+z) S12(x), and
    S(x) S21(-x) == 1 == S21(-x) S(x)."""
    rep = CheckReport(f"{s.name}: quantum Yang-Baxter + unitarity")
    sp = s.algebra.space
    s_x = s.table
    s_z = s.table.at("z")
    s_sum = s.table.transform(lambda t: t.substitute_sum("x", "x", "z", rng))
    spaces = (sp, sp, sp)
    for key in basis_tuples(spaces):
        vec = SeriesVector.basis(spaces, key)
        lhs = s_z.apply(vec, (1, 2))
        lhs = apply_legs(s_sum, lhs, (0, 2))
        lhs = s_x.apply(lhs, (0, 1))
        rhs = s_x.apply(vec, (0, 1))
        rhs = apply_legs(s_sum, rhs, (0, 2))
        rhs = s_z.apply(rhs, (1, 2))
        res = window_equal_vec(lhs, rhs)
        rep.add(f"QYB{key}", eq_outcome(res), witness(res))

    inv = s.inverse_table()
    ident = SeriesMap.identity((sp, sp))
    for key in basis_tuples((sp, sp)):
        got = s.table.apply(inv.column(key))
        res = window_equal_vec(got, ident.column(key))
        rep.add(f"unitarity S(x)S21(-x){key}", eq_outcome(res), witness(res))
        got2 = inv.apply(s.table.column(key))
        res2 = window_equal_vec(got2, ident.column(key))
        rep.add(f"unitarity S21(-x)S(x){key}", eq_outcome(res2),
                witness(res2))
    return rep


# ---------------------------------------------------------------------------
# the full axiom list for a quantum vertex algebra


def check_qva_axioms(a, s, rng=DEFAULT_RANGE):
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

    ok1 = ok2 = True
    for v in sp.basis:
        got = s.table.column((vac, v))
        want = SeriesVector.basis((sp, sp), (vac, v))
        res = window_equal_vec(got, want)
        ok1 = ok1 and bool(res)
        rep.add(f"S(x)(1⊗{v}) == 1⊗{v}", eq_outcome(res), witness(res))
    for v in sp.basis:
        got = s.table.column((v, vac))
        want = SeriesVector.basis((sp, sp), (v, vac))
        res = window_equal_vec(got, want)
        ok2 = ok2 and bool(res)
        rep.add(f"S(x)({v}⊗1) == {v}⊗1", eq_outcome(res), witness(res))

    D = compute_D(a)
    ok3 = _d_bracket_items(rep, s.table, D, leg=0, sign=-1,
                           label="[D⊗1,S(x)] == -d/dx S(x)")
    ok4 = _d_bracket_items(rep, s.inverse_table(), D, leg=1, sign=1,
                           label="[1⊗D,S^{-1}(x)] == d/dx S^{-1}(x)")

    skew = check_S_skew(a, s, rng)
    rep.extend(skew)

    y2 = a.y.at("x2")
    s_x1 = s.table.at("x1")
    s_sum = s_x1.transform(lambda t: t.substitute_sum("x1", "x1", "x2", rng))
    s_diff = s_x1.transform(
        lambda t: t.substitute_sum("x1", "x1", "x2", rng, 1, -1))
    spaces = (sp, sp, sp)
    ok6 = ok7 = True
    for key in basis_tuples(spaces):
        vec = SeriesVector.basis(spaces, key)
        lhs = s_x1.apply(y2.apply(vec, (0, 1)), (0, 1))
        rhs = apply_legs(s_sum, vec, (0, 2))
        rhs = s_x1.apply(rhs, (1, 2))
        rhs = y2.apply(rhs, (0, 1))
        res = window_equal_vec(lhs, rhs)
        ok6 = ok6 and bool(res)
        rep.add(f"S(x1)(Y(x2)⊗1){key}", eq_outcome(res), witness(res))
    for key in basis_tuples(spaces):
        vec = SeriesVector.basis(spaces, key)
        lhs = s_x1.apply(y2.apply(vec, (1, 2)), (0, 1))
        rhs = apply_legs(s_x1, vec, (0, 2))
        rhs = s_diff.apply(rhs, (0, 1))
        rhs = y2.apply(rhs, (1, 2))
        res = window_equal_vec(lhs, rhs)
        ok7 = ok7 and bool(res)
        rep.add(f"S(x1)(1⊗Y(x2)){key}", eq_outcome(res), witness(res))

    for name, lvl, rvl in (("vacuum legs", ok1, ok2),
                           ("D-brackets", ok3, ok4),
                           ("Y-compatibilities", ok6, ok7)):
        rep.add(f"equivalence of partner identities ({name})",
                Outcome.EXACT_PASS if lvl == rvl else Outcome.FAIL,
                f"first {'pass' if lvl else 'fail'}, "
                f"second {'pass' if rvl else 'fail'}")
    return rep


def _d_bracket_items(rep, table, D, leg, sign, label):
    """[D on one leg, table] == sign * d/dx table, itemized per column."""
    ok = True
    sp2 = table.domain
    for key in basis_tuples(sp2):
        col = table.column(key)
        term1 = apply_legs(D, col, (leg,))
        term2 = table.apply(D.apply(SeriesVector.basis(sp2, key), (leg,)))
        bracket = term1 - term2
        want = col.transform(lambda t: t.deriv("x").scale(sign))
        res = window_equal_vec(bracket, want)
        ok = ok and bool(res)
        rep.add(f"{label} at {key}", eq_outcome(res), witness(res))
    return ok


# ---------------------------------------------------------------------------
# solving for the S-map from the multiplication


@dataclass
class SMapExtraction:
    smap: "SMap | None"
    solve: object  # UniqueSolution | Underdetermined | Inconsistent
    axioms: CheckReport | None
    d_relation: CheckReport | None
    z2: CheckReport

    @property
    def ok(self):
        return (isinstance(self.solve, UniqueSolution)
                and self.axioms is not None and self.axioms.ok
                and self.d_relation is not None and self.d_relation.ok)


def extract_S(a, rng=DEFAULT_RANGE, exp_range=(-2, 2), z2_window=(-1, 1)):
    """Solve Y(u,x)v == e^{xD} Y(-x) S(-x)(v⊗u) columnwise for S.

    The unknowns are the coefficients of S(x)(v⊗u) = sum c[(a,b),e] x^e a⊗b
    over the exponent range.  When the degree-two injectivity kernel is
    nonzero the defining relation cannot pin the table down and the solve
    comes back Underdetermined; that outcome is reported honestly.  On a
    unique solution the full axiom suite and the extra derivation relation
    [1⊗D, S(x)] == d/dx S(x) are run and reported.
    """
    from .products import check_Z2_injectivity

    sp = a.space
    z2 = check_Z2_injectivity(a, rng, z2_window)
    expd = exp_xD(a, "x", rng)
    elo, ehi = exp_range
    window = Window.uniform(("x",), rng)

    cols = {}
    combined = None
    for (v, u) in basis_tuples((sp, sp)):
        nsym = {}
        for (aa, bb) in basis_tuples((sp, sp)):
            for e in range(elo, ehi + 1):
                nsym[(aa, bb, e)] = f"s[{v},{u}][{aa},{bb}][{e}]"
        lhs = a.vertex(u, v)
        rhs = SeriesVector.zero((sp,))
        for (aa, bb) in basis_tuples((sp, sp)):
            base = a.vertex(aa, bb).transform(lambda t: t.negate_var("x"))
            for e in range(elo, ehi + 1):
                # S(-x) turns the unknown monomial x^e into (-1)^e x^e
                mono = Series.monomial(
                    "x", e, rng, coeff=Q(-1) ** (e % 2)).scale(
                    LinExpr.sym(nsym[(aa, bb, e)]))
                rhs = rhs + base.transform(lambda t, m=mono: t * m)
        rhs = expd.apply(rhs)
        sol = solve_linear([(lhs, rhs)], list(nsym.values()))
        if not isinstance(sol, UniqueSolution):
            if combined is None or isinstance(sol, Inconsistent):
                combined = sol
            continue
        entries = {}
        for (aa, bb) in basis_tuples((sp, sp)):
            coeffs = {}
            for e in range(elo, ehi + 1):
                c = sol.assignment[nsym[(aa, bb, e)]]
                if c != 0:
                    coeffs[(e,)] = c
            if coeffs:
                entries[(aa, bb)] = Series(("x",), coeffs, window)
        cols[(v, u)] = SeriesVector((sp, sp), entries)

    if combined is not None:
        return SMapExtraction(None, combined, None, None, z2)

    smap = SMap(f"extracted({a.name})", a, SeriesMap((sp, sp), (sp, sp), cols))
    axioms = CheckReport(f"{a.name}: extracted S-map axioms")
    axioms.extend(check_qyb_unitarity(smap, rng))
    axioms.extend(check_qva_axioms(a, smap, rng))
    d_rel = CheckReport(f"{a.name}: [1⊗D,S(x)] == d/dx S(x)")
    _d_bracket_items(d_rel, smap.table, compute_D(a), leg=1, sign=1,
                     label="[1⊗D,S(x)] == d/dx S(x)")
    return SMapExtraction(smap, UniqueSolution({}), axioms, d_rel, z2)


# ---------------------------------------------------------------------------
# the induced S-map on a twisted tensor product


def build_S_R(p, sU, sV, rng=DEFAULT_RANGE):
    """S_R(x) = (R^{-1})^{23}(x) S_U^{12}(x) σ12 S_V^{34}(x) σ34 R^{23}(x)
    σ13 σ24, wrapped into the pair basis of the product algebra."""
    assert sU.algebra.space == p.first.space
    assert sV.algebra.space == p.second.space
    twist = with_inverse(p.twist, rng)
    U, V = p.first.space, p.second.space
    r_x, rinv_x = twist.table, twist.inverse
    su_x, sv_x = sU.table, sV.table
    P = p.nva.space
    cols = {}
    for (u, v, u2, v2) in basis_tuples((U, V, U, V)):
        vec = SeriesVector.basis((U, V, U, V), (u, v, u2, v2))
        vec = vec.permute((2, 3, 0, 1))           # σ13 σ24
        vec = r_x.apply(vec, (1, 2))              # (U,U,V,V)
        vec = vec.permute((0, 1, 3, 2))           # σ34
        vec = sv_x.apply(vec, (2, 3))
        vec = vec.permute((1, 0, 2, 3))           # σ12
        vec = su_x.apply(vec, (0, 1))
        vec = rinv_x.apply(vec, (1, 2))           # back to (U,V,U,V)
        from .products import pair_label
        entries = {}
        for (a, b, c, d), t in vec.entries.items():
            key = (pair_label(a, b), pair_label(c, d))
            entries[key] = entries[key] + t if key in entries else t
        cols[(pair_label(u, v), pair_label(u2, v2))] = SeriesVector(
            (P, P), entries)
    return SMap(f"S_R({p.nva.name})", p.nva, SeriesMap((P, P), (P, P), cols))


def smap_twist(s, rng=DEFAULT_RANGE):
    """R(x) = S(x)σ as a twisting operator for the pair (V, V); its inverse
    is S(-x)σ, which is exact whenever S is unitary."""
    sp = s.algebra.space
    flip = SeriesMap.flip(sp, sp)
    table = s.table.compose(flip)
    inverse = s.table.transform(lambda t: t.negate_var("x")).compose(flip)
    return TwistOp(f"twist({s.name})", s.algebra, s.algebra, table, inverse)
