"""Smash products of nonlocal vertex algebras.

A vertex bialgebra H (an algebra that is simultaneously a coalgebra whose
coproduct and counit are algebra homomorphisms) can act on an algebra U and
coact on an algebra V.  The smash product U♯V glues the two multiplications
through the action and coaction.  This module provides the coalgebra /
module-algebra / comodule-algebra data types with their axiom checks, the
smash product construction, and the canonical twisting operator that
exhibits every smash product as a twisted tensor product.
"""

from dataclasses import dataclass

from .linalg import SeriesMap, SeriesVector, basis_tuples
from .nva import (
    CheckReport, DEFAULT_KMAX, NvaModule, Outcome, check_module,
    eq_outcome, window_equal_vec, witness,
)
from .series import DEFAULT_RANGE
from .twist import TwistOp


@dataclass(frozen=True)
class CoalgebraData:
    """A nonlocal vertex algebra H together with a coproduct and counit.

    The coproduct is x-independent, (H,) -> (H,H); the counit lands in the
    scalar (empty tensor) codomain.  When the bialgebra checks pass this is
    a nonlocal vertex bialgebra.
    """

    algebra: "Nva"
    coproduct: SeriesMap
    counit: SeriesMap

    def __post_init__(self):
        sp = self.algebra.space
        assert self.coproduct.domain == (sp,)
        assert self.coproduct.codomain == (sp, sp)
        assert self.counit.domain == (sp,)
        assert self.counit.codomain == ()


@dataclass(frozen=True)
class ModuleAlgebraData:
    """An algebra U with an H-action (H⊗U -> U, series in x) making it a
    nonlocal vertex H-module-algebra."""

    bialgebra: CoalgebraData
    module: "Nva"
    action: SeriesMap

    def __post_init__(self):
        hs, us = self.bialgebra.algebra.space, self.module.space
        assert self.action.domain == (hs, us)
        assert self.action.codomain == (us,)


@dataclass(frozen=True)
class ComoduleAlgebraData:
    """An algebra V with an x-independent coaction ρ: V -> H⊗V making it a
    nonlocal vertex H-comodule-algebra."""

    bialgebra: CoalgebraData
    comodule: "Nva"
    coaction: SeriesMap

    def __post_init__(self):
        hs, vs = self.bialgebra.algebra.space, self.comodule.space
        assert self.coaction.domain == (vs,)
        assert self.coaction.codomain == (hs, vs)


@dataclass(frozen=True)
class SmashDatum:
    """A matched action/coaction pair over one bialgebra."""

    name: str
    coalgebra: CoalgebraData
    action: ModuleAlgebraData
    coaction: ComoduleAlgebraData


def same_bialgebra(a, b, rng=DEFAULT_RANGE):
    """Structural equality of two bialgebra data."""
    if a is b:
        return True
    if a.algebra.space != b.algebra.space:
        return False
    for h in a.algebra.space.basis:
        if not window_equal_vec(a.coproduct.column((h,)),
                                b.coproduct.column((h,))):
            return False
        if not window_equal_vec(a.counit.column((h,)), b.counit.column((h,))):
            return False
    return True


# ---------------------------------------------------------------------------
# coalgebra and bialgebra axioms


def check_coalgebra(c, rng=DEFAULT_RANGE):
    """Coassociativity and the two counit laws, per basis vector."""
    rep = CheckReport(f"{c.algebra.name}: coalgebra axioms")
    sp = c.algebra.space
    for b in sp.basis:
        d = c.coproduct.column((b,))
        lhs = c.coproduct.apply(d, (0,))
        rhs = c.coproduct.apply(d, (1,))
        res = window_equal_vec(lhs, rhs)
        rep.add(f"(Δ⊗1)Δ({b}) == (1⊗Δ)Δ({b})", eq_outcome(res), witness(res))
        left = c.counit.apply(d, (0,))
        right = c.counit.apply(d, (1,))
        want = SeriesVector.basis((sp,), (b,))
        r1 = window_equal_vec(left, want)
        r2 = window_equal_vec(right, want)
        rep.add(f"(ε⊗1)Δ({b}) == {b}", eq_outcome(r1), witness(r1))
        rep.add(f"(1⊗ε)Δ({b}) == {b}", eq_outcome(r2), witness(r2))
    return rep


def check_vertex_bialgebra(h, rng=DEFAULT_RANGE):
    """Δ and ε are homomorphisms of nonlocal vertex algebras."""
    from .products import build_ordinary_tensor

    rep = CheckReport(f"{h.algebra.name}: vertex-bialgebra axioms")
    alg = h.algebra
    sp = alg.space
    vac = alg.vacuum

    got = h.counit.column((vac,))
    want = SeriesVector.basis((), ())
    res = window_equal_vec(got, want)
    rep.add("ε(1) == 1", eq_outcome(res), witness(res))
    got = h.coproduct.column((vac,))
    want = SeriesVector.basis((sp, sp), (vac, vac))
    res = window_equal_vec(got, want)
    rep.add("Δ(1) == 1⊗1", eq_outcome(res), witness(res))

    p = build_ordinary_tensor(alg, alg, rng)
    pairing = p.pairing()
    yp = p.nva.y
    for (a, b) in basis_tuples((sp, sp)):
        yab = alg.vertex(a, b)
        lhs_eps = h.counit.apply(yab, (0,))
        ea = h.counit.column((a,)).get(()).coeff(())
        eb = h.counit.column((b,)).get(()).coeff(())
        want = SeriesVector.basis((), ()).transform(lambda s: s.scale(ea * eb))
        res = window_equal_vec(lhs_eps, want)
        rep.add(f"ε(Y({a},x){b}) == ε({a})ε({b})", eq_outcome(res),
                witness(res))

        lhs = pairing.apply(h.coproduct.apply(yab, (0,)))
        da = h.coproduct.column((a,))
        db = h.coproduct.column((b,))
        four = da.tensor(db)
        paired = pairing.apply(pairing.apply(four, (0, 1)), (1, 2))
        rhs = yp.apply(paired)
        res = window_equal_vec(lhs, rhs)
        rep.add(f"Δ(Y({a},x){b}) == Y(Δ{a},x)Δ{b}", eq_outcome(res),
                witness(res))
    return rep


# ---------------------------------------------------------------------------
# module-algebras


def check_module_algebra(m, rng=DEFAULT_RANGE, kmax=DEFAULT_KMAX):
    """The H-action makes U a module, fixes the vacuum through ε, and is
    compatible with the multiplication of U:

        Y(h,x) Y(u,z) v == Y(Y(h1,x-z)u, z) Y(h2,x) v

    (x-z expanded in nonnegative powers of z); plus the derived composition
    rule Y(h,z+x) Y(h',z) v == Y(Y(h,x)h',z) v (z+x in nonnegative powers
    of x)."""
    rep = CheckReport(f"{m.module.name}: module-algebra axioms")
    h = m.bialgebra
    hs, us = h.algebra.space, m.module.space
    uvac = m.module.vacuum

    mod = NvaModule(f"{m.module.name} over {h.algebra.name}",
                    h.algebra, m.module.space, m.action)
    rep.extend(check_module(mod, rng, kmax))

    for hl in hs.basis:
        col = m.action.column((hl, uvac))
        eh = h.counit.column((hl,)).get(()).coeff(())
        want = SeriesVector.basis((us,), (uvac,)).transform(
            lambda s: s.scale(eh))
        res = window_equal_vec(col, want)
        rep.add(f"Y({hl},x)1 == ε({hl})1", eq_outcome(res), witness(res))
        poly = all(s.is_polynomial() for s in col.entries.values()) and \
            all(s.is_polynomial()
                for u in us.basis
                for s in m.action.column((hl, u)).entries.values())
        rep.add(f"range of Y({hl},x) lands in U⊗Laurent", Outcome.EXACT_PASS,
                "columns are finite sums of basis vectors times one series"
                + ("" if poly else " (with finite pole order)"))

    act_x = m.action
    act_xz = m.action.transform(
        lambda s: s.substitute_sum("x", "x", "z", rng, 1, -1))
    yu_z = m.module.y.at("z")
    for (hl, u, v) in basis_tuples((hs, us, us)):
        vec = SeriesVector.basis((hs, us, us), (hl, u, v))
        lhs = act_x.apply(yu_z.apply(vec, (1, 2)), (0, 1))
        rhs = m.bialgebra.coproduct.apply(vec, (0,))   # (H,H,U,U)
        rhs = rhs.permute((0, 2, 1, 3))                # h1,u,h2,v
        rhs = act_xz.apply(rhs, (0, 1))                # (U,H,U)
        rhs = act_x.apply(rhs, (1, 2))                 # (U,U)
        rhs = yu_z.apply(rhs, (0, 1))
        res = window_equal_vec(lhs, rhs)
        rep.add(f"Y({hl},x)Y({u},z){v} == Y(Y(h1,x-z){u},z)Y(h2,x){v}",
                eq_outcome(res), witness(res))

    act_z = m.action.at("z")
    act_zx = act_z.transform(lambda s: s.substitute_sum("z", "z", "x", rng))
    yh_x = h.algebra.y
    for (h1, h2, v) in basis_tuples((hs, hs, us)):
        vec = SeriesVector.basis((hs, hs, us), (h1, h2, v))
        lhs = act_zx.apply(act_z.apply(vec, (1, 2)), (0, 1))
        rhs = act_z.apply(yh_x.apply(vec, (0, 1)), (0, 1))
        res = window_equal_vec(lhs, rhs)
        rep.add(f"Y({h1},z+x)Y({h2},z){v} == Y(Y({h1},x){h2},z){v}",
                eq_outcome(res), witness(res))
    return rep


# ---------------------------------------------------------------------------
# comodule-algebras


def check_comodule_algebra(c, rng=DEFAULT_RANGE):
    """ρ is a counital comodule structure and an algebra homomorphism:
    ρ(Y(v,x)v') == (Y_H(x)⊗Y_V(x)) σ23 (ρ(v)⊗ρ(v'))."""
    rep = CheckReport(f"{c.comodule.name}: comodule-algebra axioms")
    h = c.bialgebra
    hs, vs = h.algebra.space, c.comodule.space

    got = c.coaction.column((c.comodule.vacuum,))
    want = SeriesVector.basis((hs, vs), (h.algebra.vacuum, c.comodule.vacuum))
    res = window_equal_vec(got, want)
    rep.add("ρ(1) == 1⊗1", eq_outcome(res), witness(res))

    for v in vs.basis:
        rho = c.coaction.column((v,))
        lhs = h.coproduct.apply(rho, (0,))
        rhs = c.coaction.apply(rho, (1,))
        res = window_equal_vec(lhs, rhs)
        rep.add(f"(Δ⊗1)ρ({v}) == (1⊗ρ)ρ({v})", eq_outcome(res), witness(res))
        cnt = h.counit.apply(rho, (0,))
        want = SeriesVector.basis((vs,), (v,))
        res = window_equal_vec(cnt, want)
        rep.add(f"(ε⊗1)ρ({v}) == {v}", eq_outcome(res), witness(res))

    yh, yv = h.algebra.y, c.comodule.y
    for (v, v2) in basis_tuples((vs, vs)):
        lhs = c.coaction.apply(c.comodule.vertex(v, v2), (0,))
        four = c.coaction.column((v,)).tensor(c.coaction.column((v2,)))
        four = four.permute((0, 2, 1, 3))        # σ23: (H,H,V,V)
        rhs = yv.apply(four, (2, 3))
        rhs = yh.apply(rhs, (0, 1))
        res = window_equal_vec(lhs, rhs)
        rep.add(f"ρ(Y({v},x){v2}) multiplicative", eq_outcome(res),
                witness(res))
    return rep


# ---------------------------------------------------------------------------
# the smash product and its twisting operator


def _require_matched(u, v, rng):
    from .products import PreconditionError

    if not same_bialgebra(u.bialgebra, v.bialgebra, rng):
        raise PreconditionError("action and coaction share one bialgebra",
                                (u.bialgebra.algebra.name,
                                 v.bialgebra.algebra.name))


def smash_as_twist(u, v, rng=DEFAULT_RANGE, kmax=DEFAULT_KMAX,
                   check=True):
    """The canonical twisting operator R(x)(v⊗u') = Y(b1(v),-x)u' ⊗ v2
    read off the coaction ρ(v) = Σ b1(v)⊗v2 and the action of H on U.

    Returns (TwistOp, CheckReport); the report contains the twisting axioms
    and, when check is set, the column-by-column agreement of the twisted
    tensor product built from R with the smash product table.
    """
    from .products import build_twisted_tensor
    from .twist import check_twisting_axioms

    _require_matched(u, v, rng)
    U, V = u.module, v.comodule
    us, vs = U.space, V.space
    act_neg = u.action.transform(lambda s: s.negate_var("x"))
    cols = {}
    for (vl, ul) in basis_tuples((vs, us)):
        vec = SeriesVector.basis((vs, us), (vl, ul))
        vec = v.coaction.apply(vec, (0,)).permute((0, 2, 1))  # (H,U,V)
        cols[(vl, ul)] = act_neg.apply(vec, (0, 1))
    twist = TwistOp(f"smash({U.name},{V.name})", U, V,
                    SeriesMap((vs, us), (us, vs), cols))
    rep = CheckReport(f"{twist.name}: smash product as twisted tensor")
    rep.extend(check_twisting_axioms(twist, rng, kmax))
    if check:
        sharp = build_smash(u, v, rng, check_axioms=False)
        tw = build_twisted_tensor(U, V, twist, rng, check_axioms=False,
                                  provenance="twisted")
        for key in sorted(set(sharp.nva.y.columns) | set(tw.nva.y.columns)):
            other = SeriesVector((sharp.nva.space,),
                                 tw.nva.y.column(key).entries)
            res = window_equal_vec(sharp.nva.y.column(key), other)
            rep.add(f"table agreement {key}", eq_outcome(res), witness(res))
    return twist, rep


def build_smash(u, v, rng=DEFAULT_RANGE, check_axioms=True):
    """The smash product U♯V with multiplication

        Y(u⊗v,x)(u'⊗v') = Y(u,x) Y(b1(v),x) u' ⊗ Y(v2,x) v'.

    Returns a ProductNva whose attached twisting operator is the canonical
    one, so every product-level check applies verbatim.
    """
    from .products import (
        PreconditionError, ProductNva, build_twisted_tensor, pair_label,
    )
    from .linalg import Space
    from .nva import Nva

    _require_matched(u, v, rng)
    if check_axioms:
        for label, rep in (("module-algebra", check_module_algebra(u, rng)),
                           ("comodule-algebra", check_comodule_algebra(v, rng))):
            if not rep.ok:
                raise PreconditionError(f"{label} axioms",
                                        rep.failures()[0].name)
    U, V = u.module, v.comodule
    us, vs = U.space, V.space
    pspace = Space(
        f"{U.name}#{V.name}",
        tuple(pair_label(a, b) for (a, b) in basis_tuples((us, vs))),
    )
    cols = {}
    for (ul, vl, u2, v2) in basis_tuples((us, vs, us, vs)):
        vec = SeriesVector.basis((us, vs, us, vs), (ul, vl, u2, v2))
        vec = v.coaction.apply(vec, (1,))        # ρ(v): (U,H,V,U,V)
        vec = vec.permute((0, 1, 3, 2, 4))       # (U,H,U,V,V)
        vec = u.action.apply(vec, (1, 2))        # Y(b1(v),x)u'
        vec = U.y.apply(vec, (0, 1))             # Y(u,x)Y(b1(v),x)u'
        vec = V.y.apply(vec, (1, 2))             # ⊗ Y(v2(v),x)v'
        entries = {(pair_label(a, b),): s for (a, b), s in vec.entries.items()}
        cols[(pair_label(ul, vl), pair_label(u2, v2))] = SeriesVector(
            (pspace,), entries)
    twist, _ = smash_as_twist(u, v, rng, check=False)
    nva = Nva(pspace.name, pspace, pair_label(U.vacuum, V.vacuum),
              SeriesMap((pspace, pspace), (pspace,), cols))
    return ProductNva(nva, U, V, twist, "smash")


def check_smash_datum(d, rng=DEFAULT_RANGE, kmax=DEFAULT_KMAX):
    """Full suite for a smash datum: coalgebra, bialgebra, module-algebra,
    comodule-algebra, the product axioms, and the twisted-tensor agreement."""
    from .products import check_product_nva

    rep = CheckReport(f"{d.name}: smash-product suite")
    rep.extend(check_coalgebra(d.coalgebra, rng))
    rep.extend(check_vertex_bialgebra(d.coalgebra, rng))
    rep.extend(check_module_algebra(d.action, rng, kmax))
    rep.extend(check_comodule_algebra(d.coaction, rng))
    _, twrep = smash_as_twist(d.action, d.coaction, rng, kmax)
    rep.extend(twrep)
    p = build_smash(d.action, d.coaction, rng, check_axioms=False)
    rep.extend(check_product_nva(p, rng, kmax))
    return rep
