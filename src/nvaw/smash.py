"""Smash products of nonlocal vertex algebras.

A vertex bialgebra H (an algebra that is simultaneously a coalgebra whose
coproduct and counit are algebra homomorphisms) can act on an algebra U and
coact on an algebra V.  The smash product U♯V glues the two multiplications
through the action and coaction.  This module provides the coalgebra /
module-algebra / comodule-algebra data types with their axiom checks, the
smash product construction, and the canonical twisting operator that
exhibits every smash product as a twisted tensor product.
"""

from .linalg import SeriesMap, SeriesVector, basis_tuples
from .nva import CheckReport, DEFAULT_KMAX, NvaModule, Outcome, check_module
from .twist import TwistOp


class CoalgebraData:
    """A nonlocal vertex algebra H together with a coproduct and counit.

    The coproduct is x-independent, (H,) -> (H,H); the counit lands in the
    scalar (empty tensor) codomain.  When the bialgebra checks pass this is
    a nonlocal vertex bialgebra.
    """

    def __init__(self, algebra, coproduct, counit):
        self.algebra = algebra
        self.coproduct = coproduct
        self.counit = counit
        sp = self.algebra.space
        assert self.coproduct.domain == (sp,)
        assert self.coproduct.codomain == (sp, sp)
        assert self.counit.domain == (sp,)
        assert self.counit.codomain == ()


class ModuleAlgebraData:
    """An algebra U with an H-action (H⊗U -> U, series in x) making it a
    nonlocal vertex H-module-algebra."""

    def __init__(self, bialgebra, module, action):
        self.bialgebra = bialgebra
        self.module = module
        self.action = action
        hs, us = self.bialgebra.algebra.space, self.module.space
        assert self.action.domain == (hs, us)
        assert self.action.codomain == (us,)


class ComoduleAlgebraData:
    """An algebra V with an x-independent coaction ρ: V -> H⊗V making it a
    nonlocal vertex H-comodule-algebra."""

    def __init__(self, bialgebra, comodule, coaction):
        self.bialgebra = bialgebra
        self.comodule = comodule
        self.coaction = coaction
        hs, vs = self.bialgebra.algebra.space, self.comodule.space
        assert self.coaction.domain == (vs,)
        assert self.coaction.codomain == (hs, vs)


class SmashDatum:
    """A matched action/coaction pair over one bialgebra."""

    def __init__(self, name, coalgebra, action, coaction):
        self.name = name
        self.coalgebra = coalgebra
        self.action = action
        self.coaction = coaction


def same_bialgebra(a, b):
    """Whether two bialgebra data are one: the same space and vacuum, and
    vertex operators, coproducts and counits equal column by column."""
    if a is b:
        return True
    if (a.algebra.space, a.algebra.vacuum) != (b.algebra.space, b.algebra.vacuum):
        return False
    return CheckReport("same bialgebra").compare_maps(
        (f"{key}", key, lhs, rhs)
        for lhs, rhs in ((a.algebra.y, b.algebra.y), (a.coproduct, b.coproduct),
                         (a.counit, b.counit))
        for key in basis_tuples(lhs.domain))


# ---------------------------------------------------------------------------
# coalgebra and bialgebra axioms


def check_coalgebra(c):
    """Coassociativity and the two counit laws, per basis vector."""
    rep = CheckReport(f"{c.algebra.name}: coalgebra axioms")
    sp = c.algebra.space
    one, delta, eps = SeriesMap.identity((sp,)), c.coproduct, c.counit
    lhs, rhs = delta.tensor(one).compose(delta), one.tensor(delta).compose(delta)
    left, right = eps.tensor(one).compose(delta), one.tensor(eps).compose(delta)
    rep.compare_maps(item for b in sp.basis for item in (
        (f"(Δ⊗1)Δ({b}) == (1⊗Δ)Δ({b})", (b,), lhs, rhs),
        (f"(ε⊗1)Δ({b}) == {b}", (b,), left, one),
        (f"(1⊗ε)Δ({b}) == {b}", (b,), right, one)))
    return rep


def check_vertex_bialgebra(h):
    """Δ and ε are homomorphisms of nonlocal vertex algebras."""
    from .products import build_ordinary_tensor

    rep = CheckReport(f"{h.algebra.name}: vertex-bialgebra axioms")
    alg = h.algebra
    sp = alg.space
    vac = alg.vacuum
    delta, eps = h.coproduct, h.counit

    rep.compare("ε(1) == 1", eps.column((vac,)), SeriesVector.basis((), ()))
    rep.compare("Δ(1) == 1⊗1", delta.column((vac,)),
                SeriesVector.basis((sp, sp), (vac, vac)))

    p = build_ordinary_tensor(alg, alg)
    pairing = p.pairing()
    eps_y, eps2 = eps.compose(alg.y), eps.tensor(eps)
    lhs = pairing.compose(delta).compose(alg.y)
    rhs = (p.nva.y.compose(pairing, (1,)).compose(pairing, (0,))
           .compose(delta.tensor(delta)))
    rep.compare_maps(item for (a, b) in basis_tuples((sp, sp)) for item in (
        (f"ε(Y({a},x){b}) == ε({a})ε({b})", (a, b), eps_y, eps2),
        (f"Δ(Y({a},x){b}) == Y(Δ{a},x)Δ{b}", (a, b), lhs, rhs)))
    return rep


# ---------------------------------------------------------------------------
# module-algebras


def check_module_algebra(m, kmax=DEFAULT_KMAX):
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
    rep.extend(check_module(mod, kmax))

    for hl in hs.basis:
        col = m.action.column((hl, uvac))
        eh = h.counit.column((hl,)).get(()).coeff(())
        want = SeriesVector.basis((us,), (uvac,)).scale(eh)
        rep.compare(f"Y({hl},x)1 == ε({hl})1", col, want)
        poly = all(s.is_polynomial() for s in col.entries.values()) and \
            all(s.is_polynomial()
                for u in us.basis
                for s in m.action.column((hl, u)).entries.values())
        rep.add(f"range of Y({hl},x) lands in U⊗Laurent", Outcome.EXACT_PASS,
                "columns are finite sums of basis vectors times one series"
                + ("" if poly else " (with finite pole order)"))

    act_x, yu_z = m.action, m.module.y.at("z")
    lhs = act_x.compose(yu_z, (1,))
    rhs = (yu_z.compose(act_x, (1,)).compose(m.action.at("x", "-z"), (0,))
           .compose(SeriesMap.flip(hs, us), (1, 2))
           .compose(h.coproduct, (0, 1)))
    rep.compare_maps(
        (f"Y({hl},x)Y({u},z){v} == Y(Y(h1,x-z){u},z)Y(h2,x){v}", (hl, u, v),
         lhs, rhs) for (hl, u, v) in basis_tuples((hs, us, us)))

    act_z = m.action.at("z")
    lhs = m.action.at("z", "x").compose(act_z, (1,))
    rhs = act_z.compose(h.algebra.y, (0,))
    rep.compare_maps(
        (f"Y({h1},z+x)Y({h2},z){v} == Y(Y({h1},x){h2},z){v}", (h1, h2, v),
         lhs, rhs) for (h1, h2, v) in basis_tuples((hs, hs, us)))
    return rep


# ---------------------------------------------------------------------------
# comodule-algebras


def check_comodule_algebra(c):
    """ρ is a counital comodule structure and an algebra homomorphism:
    ρ(Y(v,x)v') == (Y_H(x)⊗Y_V(x)) σ23 (ρ(v)⊗ρ(v'))."""
    rep = CheckReport(f"{c.comodule.name}: comodule-algebra axioms")
    h = c.bialgebra
    hs, vs = h.algebra.space, c.comodule.space

    rep.compare("ρ(1) == 1⊗1", c.coaction.column((c.comodule.vacuum,)),
                SeriesVector.basis((hs, vs),
                                   (h.algebra.vacuum, c.comodule.vacuum)))

    rho, one_v = c.coaction, SeriesMap.identity((vs,))
    lhs = h.coproduct.tensor(one_v).compose(rho)
    rhs = SeriesMap.identity((hs,)).tensor(rho).compose(rho)
    counit = h.counit.tensor(one_v).compose(rho)
    rep.compare_maps(item for v in vs.basis for item in (
        (f"(Δ⊗1)ρ({v}) == (1⊗ρ)ρ({v})", (v,), lhs, rhs),
        (f"(ε⊗1)ρ({v}) == {v}", (v,), counit, one_v)))

    # σ23 takes ρ(v)⊗ρ(v') to H⊗H⊗V⊗V
    lhs = rho.compose(c.comodule.y)
    rhs = (h.algebra.y.tensor(one_v).compose(c.comodule.y, (2,))
           .compose(SeriesMap.flip(vs, hs), (1, 2)).compose(rho.tensor(rho)))
    rep.compare_maps((f"ρ(Y({v},x){v2}) multiplicative", (v, v2), lhs, rhs)
                     for (v, v2) in basis_tuples((vs, vs)))
    return rep


# ---------------------------------------------------------------------------
# the smash product and its twisting operator


def _require_matched(u, v):
    from .products import PreconditionError

    if not same_bialgebra(u.bialgebra, v.bialgebra):
        raise PreconditionError("action and coaction share one bialgebra",
                                (u.bialgebra.algebra.name,
                                 v.bialgebra.algebra.name))


def _smash_twist(u, v):
    """The canonical twisting operator R(x)(v⊗u') = Y(b1(v),-x)u' ⊗ v2
    read off the coaction ρ(v) = Σ b1(v)⊗v2 and the action of H on U."""
    U, V = u.module, v.comodule
    us, vs = U.space, V.space
    table = (u.action.at("-x").tensor(SeriesMap.identity((vs,)))
             .compose(SeriesMap.flip(vs, us), (1, 2))
             .compose(v.coaction, (0, 1)))
    return TwistOp(f"smash({U.name},{V.name})", U, V, table)


def _twist_report(sharp):
    """The twisting axioms of the smash product's twist, then the
    column-by-column agreement of the twisted tensor product built from it
    with the smash product table."""
    from .products import build_twisted_tensor
    from .twist import check_twisting_axioms

    twist = sharp.twist
    rep = CheckReport(f"{twist.name}: smash product as twisted tensor")
    rep.extend(check_twisting_axioms(twist))
    tw = build_twisted_tensor(sharp.first, sharp.second, twist,
                              check_axioms=False)
    for key in sorted(set(sharp.nva.y.columns) | set(tw.nva.y.columns)):
        other = SeriesVector((sharp.nva.space,), tw.nva.y.column(key).entries)
        rep.compare(f"table agreement {key}", sharp.nva.y.column(key), other)
    return rep


def smash_as_twist(u, v):
    """(TwistOp, CheckReport): the canonical twisting operator of the smash
    product U♯V, and the report that it is one (`_twist_report`)."""
    sharp = build_smash(u, v)
    return sharp.twist, _twist_report(sharp)


def build_smash(u, v):
    """The smash product U♯V with multiplication

        Y(u⊗v,x)(u'⊗v') = Y(u,x) Y(b1(v),x) u' ⊗ Y(v2,x) v'.

    Returns a ProductNva whose attached twisting operator is the canonical
    one, so every product-level check applies verbatim.  Only the shared
    bialgebra is required here; the module-algebra and comodule-algebra
    axioms are the caller's to check.
    """
    from .products import ProductNva, pair_nva

    _require_matched(u, v)
    U, V = u.module, v.comodule
    # (1⊗Y_V(x)) (Y_U(x)⊗1⊗1) on the action of ρ(v)'s H leg on u'
    table = (SeriesMap.identity((U.space,)).tensor(V.y).compose(U.y, (0,))
             .compose(u.action, (1,)).compose(SeriesMap.flip(V.space, U.space), (2, 3))
             .compose(v.coaction, (1, 2)))
    return ProductNva(pair_nva(f"{U.name}#{V.name}", U, V, table), U, V,
                      _smash_twist(u, v))


def check_smash_datum(d, kmax=DEFAULT_KMAX):
    """Full suite for a smash datum: coalgebra, bialgebra, module-algebra,
    comodule-algebra, the twisted-tensor agreement, and the product axioms,
    on one build of the smash product."""
    from .products import check_product_nva

    rep = CheckReport(f"{d.name}: smash-product suite")
    rep.extend(check_coalgebra(d.coalgebra))
    rep.extend(check_vertex_bialgebra(d.coalgebra))
    rep.extend(check_module_algebra(d.action, kmax))
    rep.extend(check_comodule_algebra(d.coaction))
    p = build_smash(d.action, d.coaction)
    rep.extend(_twist_report(p))
    rep.extend(check_product_nva(p, kmax))
    return rep
