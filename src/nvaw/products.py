"""Ordinary and twisted tensor products of nonlocal vertex algebras.

The twisted product U ⊗_R V lives on the pair space with basis labels
"(u,v)"; its vertex operator is Y_R(x) = (Y(x) ⊗ Y(x)) R23(-x), expanded
column-wise as  Y_R(u⊗v,x)(u'⊗v') = Σ f_i(-x) Y(u,x)u'^(i) ⊗ Y(v^(i),x)v'
where R(x)(v⊗u') = Σ u'^(i) ⊗ v^(i) ⊗ f_i(x).

Also here: the structural identities of the product as executable checks,
the universal-property homomorphism, the flip isomorphism, extraction of
the twisting operator from a host algebra, the degree-two injectivity
surrogate for non-degeneracy, and modules over the product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q

from .series import DEFAULT_RANGE, LinExpr, Series, Window
from .linalg import (
    Inconsistent,
    SeriesMap,
    SeriesVector,
    Space,
    UniqueSolution,
    basis_tuples,
    matrix_rank,
    solve_linear,
)
from .nva import (
    DEFAULT_KMAX,
    CheckReport,
    Nva,
    NvaModule,
    Outcome,
    adjoint_module,
    check_D_bracket,
    check_vacuum,
    check_weak_associativity,
    compute_D,
    double_product,
    eq_outcome,
    exp_xD,
    find_clearing_k,
    window_equal_vec,
    witness,
)
from .twist import TwistOp, check_twisting_axioms, flip_twist, with_inverse


class PreconditionError(ValueError):
    def __init__(self, hypothesis, where):
        self.hypothesis = hypothesis
        self.where = where
        super().__init__(f"hypothesis {hypothesis!r} fails at {where}")


def pair_label(ul, vl):
    return f"({ul},{vl})"


@dataclass(frozen=True)
class ProductNva:
    """A tensor-product nonlocal vertex algebra with its factor data."""

    nva: Nva
    first: Nva
    second: Nva
    twist: TwistOp
    provenance: str  # "ordinary" | "twisted" | "smash"

    @property
    def space(self):
        return self.nva.space

    def pair(self, ul, vl):
        return pair_label(ul, vl)

    def pairing(self):
        """SeriesMap (U, V) -> (P,) relabelling pure tensors."""
        dom = (self.first.space, self.second.space)
        cols = {
            (u, v): SeriesVector.basis((self.space,), (self.pair(u, v),))
            for (u, v) in basis_tuples(dom)
        }
        return SeriesMap(dom, (self.space,), cols)

    def unpairing(self):
        dom = (self.first.space, self.second.space)
        cols = {
            (self.pair(u, v),): SeriesVector.basis(dom, (u, v))
            for (u, v) in basis_tuples(dom)
        }
        return SeriesMap((self.space,), dom, cols)

    def embed_first(self):
        """U -> P, u |-> u ⊗ 1."""
        vac = self.second.vacuum
        cols = {
            (u,): SeriesVector.basis((self.space,), (self.pair(u, vac),))
            for u in self.first.space.basis
        }
        return SeriesMap((self.first.space,), (self.space,), cols)

    def embed_second(self):
        vac = self.first.vacuum
        cols = {
            (v,): SeriesVector.basis((self.space,), (self.pair(vac, v),))
            for v in self.second.space.basis
        }
        return SeriesMap((self.second.space,), (self.space,), cols)


def build_twisted_tensor(first, second, twist, rng=DEFAULT_RANGE,
                         check_axioms=True, provenance="twisted"):
    if check_axioms:
        rep = check_twisting_axioms(twist, rng)
        if not rep.ok:
            raise PreconditionError(
                "twisting-operator axioms", rep.failures()[0].name)
    U, V = first.space, second.space
    assert twist.first.space == U and twist.second.space == V
    r_neg = twist.table.transform(lambda s: s.negate_var("x"))
    yu, yv = first.y, second.y
    pspace = Space(
        f"{first.name}*{second.name}",
        tuple(pair_label(u, v) for (u, v) in basis_tuples((U, V))),
    )
    cols = {}
    for (u, v) in basis_tuples((U, V)):
        for (u2, v2) in basis_tuples((U, V)):
            vec = SeriesVector.basis((U, V, U, V), (u, v, u2, v2))
            vec = r_neg.apply(vec, (1, 2))   # (U, U, V, V)
            vec = yv.apply(vec, (2, 3))      # (U, U, V)
            vec = yu.apply(vec, (0, 1))      # (U, V)
            out = {}
            for (a, b), s in vec.entries.items():
                out[(pair_label(a, b),)] = s
            cols[(pair_label(u, v), pair_label(u2, v2))] = SeriesVector(
                (pspace,), out)
    nva = Nva(pspace.name, pspace,
              pair_label(first.vacuum, second.vacuum),
              SeriesMap((pspace, pspace), (pspace,), cols))
    return ProductNva(nva, first, second, twist, provenance)


def build_ordinary_tensor(first, second, rng=DEFAULT_RANGE):
    p = build_twisted_tensor(first, second, flip_twist(first, second), rng,
                             check_axioms=False, provenance="ordinary")
    return p


def check_product_nva(p, rng=DEFAULT_RANGE, kmax=DEFAULT_KMAX):
    """The product carries a nonlocal-vertex-algebra structure."""
    rep = CheckReport(f"{p.nva.name}: product is a nonlocal vertex algebra")
    rep.extend(check_vacuum(p.nva, rng))
    rep.extend(check_weak_associativity(p.nva, rng, kmax))
    rep.extend(check_D_bracket(p.nva, rng))
    rep.extend(check_embeddings(p, rng))
    return rep


def check_embeddings(p, rng=DEFAULT_RANGE):
    """u ↦ u⊗1 and v ↦ 1⊗v are vertex-algebra homomorphisms."""
    rep = CheckReport(f"{p.nva.name}: canonical embeddings")
    for (nva, emb, tag) in (
        (p.first, p.embed_first(), "U⊗1"),
        (p.second, p.embed_second(), "1⊗V"),
    ):
        for (a, b) in basis_tuples((nva.space, nva.space)):
            lhs = emb.apply(nva.vertex(a, b))
            ea = emb.column((a,)).entries
            eb = emb.column((b,)).entries
            (pa,), (pb,) = next(iter(ea)), next(iter(eb))
            rhs = p.nva.vertex(pa, pb)
            res = window_equal_vec(lhs, rhs)
            rep.add(f"{tag} hom at ({a},{b})", eq_outcome(res), witness(res))
    return rep


# ---------------------------------------------------------------------------
# structural identities of the product


def product_D_sum(p):
    """D_U ⊗ 1 + 1 ⊗ D_V transported to pair labels."""
    du = compute_D(p.first).on_legs((p.first.space, p.second.space), (0,))
    dv = compute_D(p.second).on_legs((p.first.space, p.second.space), (1,))
    both = du + dv
    pairing, unpairing = p.pairing(), p.unpairing()
    return pairing.compose(both.compose(unpairing))


def check_product_properties(p, rng=DEFAULT_RANGE):
    """D-additivity, regularity of Y_R(u⊗1,x)(1⊗v), the (-1)-product
    identity u⊗v = (u⊗1)_{-1}(1⊗v), and the embedded skew symmetry."""
    rep = CheckReport(f"{p.nva.name}: product structural identities")
    P = p.nva

    dsum = product_D_sum(p)
    dprod = compute_D(P)
    for key in basis_tuples((P.space,)):
        res = window_equal_vec(dprod.column(key), dsum.column(key))
        rep.add(f"D-additivity at {key[0]}", eq_outcome(res), witness(res))

    vac_u, vac_v = p.first.vacuum, p.second.vacuum
    expd = exp_xD(P, "x", rng, dmap=dprod)
    r_neg = p.twist.table.transform(lambda s: s.negate_var("x"))
    y_neg = P.y.transform(lambda s: s.negate_var("x"))
    embed = p.embed_first().tensor(p.embed_second())
    for u in p.first.space.basis:
        for v in p.second.space.basis:
            # regularity and the (-1)-product identity
            yuv = P.vertex(p.pair(u, vac_v), p.pair(vac_u, v))
            poly = all(s.is_polynomial() for s in yuv.entries.values())
            limit = yuv.transform(lambda s: s.extract("x", 0))
            want = SeriesVector.basis((P.space,), (p.pair(u, v),))
            if poly and not (limit - want).entries:
                out = (Outcome.EXACT_PASS if yuv.exact()
                       else Outcome.WINDOW_PASS)
                rep.add(f"regularity+(-1)-product ({u},{v})", out)
            else:
                rep.add(f"regularity+(-1)-product ({u},{v})", Outcome.FAIL,
                        "pole" if not poly else "wrong constant term")

            # skew symmetry: Y_R(1⊗v,x)(u⊗1)
            #   == e^{xD} Σ f_i(-x) Y_R(a_i⊗1,-x)(1⊗b_i)
            lhs = P.vertex(p.pair(vac_u, v), p.pair(u, vac_v))
            rhs = expd.apply(y_neg.apply(embed.apply(r_neg.column((v, u)))))
            res = window_equal_vec(lhs, rhs)
            rep.add(f"skew-symmetry ({v},{u})", eq_outcome(res), witness(res))
    return rep


def check_invertible_relations(p, rng=DEFAULT_RANGE, kmax=DEFAULT_KMAX):
    """Identities available when R(x) is invertible."""
    twist = with_inverse(p.twist, rng)
    rep = CheckReport(f"{p.nva.name}: invertible-twist identities")
    P = p.nva
    vac_u, vac_v = p.first.vacuum, p.second.vacuum
    expd = exp_xD(P, "x", rng)
    y_neg = P.y.transform(lambda s: s.negate_var("x"))
    embed = p.embed_second().tensor(p.embed_first())

    # Y_R(u⊗1,x)(1⊗v) == e^{xD} Σ g_i(x) Y_R(1⊗b_i,-x)(a_i⊗1),
    # where R^{-1}(x)(u⊗v) = Σ b_i ⊗ a_i ⊗ g_i(x)
    for u in p.first.space.basis:
        for v in p.second.space.basis:
            lhs = P.vertex(p.pair(u, vac_v), p.pair(vac_u, v))
            rhs = expd.apply(y_neg.apply(embed.apply(
                twist.inverse.column((u, v)))))
            res = window_equal_vec(lhs, rhs)
            rep.add(f"inverse-skew ({u},{v})", eq_outcome(res), witness(res))

    # the actions of U and V on P through u ↦ u⊗1 and v ↦ 1⊗v
    adj = adjoint_module(P)
    m_u = restricted_module(p, adj, "first", rng)
    m_v = restricted_module(p, adj, "second", rng)

    # Y_R(u⊗1,x1) Y_R(1⊗v,x2) w
    #   == Y_R(x2)(1⊗Y_R(x1)) (R^{-1})^{12}(-x2+x1)(u⊗v⊗w)
    yu1, yv2 = m_u.yw.at("x1"), m_v.yw.at("x2")
    rinv_sub = twist.inverse.at("x2").transform(
        lambda s: s.substitute_sum("x2", "x2", "x1", rng, -1, 1))
    spaces = (p.first.space, p.second.space, P.space)
    for (u, v, w) in basis_tuples(spaces):
        vec = SeriesVector.basis(spaces, (u, v, w))
        lhs = yu1.apply(yv2.apply(vec, (1, 2)), (0, 1))
        rhs = yv2.apply(yu1.apply(rinv_sub.apply(vec, (0, 1)), (1, 2)), (0, 1))
        res = window_equal_vec(lhs, rhs)
        rep.add(f"commutation ({u},{v};{w})", eq_outcome(res), witness(res))

    # k-witnessed:  (x1-x2)^k Y_R(1⊗v,x1) Y_R(u⊗1,x2) w
    #   == (x1-x2)^k Y_R(x2)(1⊗Y_R(x1)) R^{12}(x2-x1)(v⊗u⊗w)
    rep.extend(commutation_with_twist(m_u, m_v, twist, rng, kmax,
                                      "k-witnessed commutation"))
    return rep


def commutation_with_twist(m_first, m_second, twist, rng, kmax, title):
    """(x2-x1)^k Y(v,x1)Y(u,x2)w == (x2-x1)^k Y(x2)(1⊗Y(x1))
    R^{12}(x2-x1)(v⊗u⊗w), k searched in 0..kmax, for a module m_first over
    the twist's first factor and m_second over its second, on one space."""
    rep = CheckReport(title)
    yu2, yv1 = m_first.yw.at("x2"), m_second.yw.at("x1")
    r_sub = twist.table.at("x2").transform(
        lambda s: s.substitute_sum("x2", "x2", "x1", rng, 1, -1))
    spaces = (twist.second.space, twist.first.space, m_first.space)
    for (v, u, w) in basis_tuples(spaces):
        vec = SeriesVector.basis(spaces, (v, u, w))
        lhs = yv1.apply(yu2.apply(vec, (1, 2)), (0, 1))
        rhs = yu2.apply(yv1.apply(r_sub.apply(vec, (0, 1)), (1, 2)), (0, 1))
        k, res = find_clearing_k([(lhs, rhs)], kmax, rng)
        if k is None:
            rep.add(f"{title}({v},{u};{w})", Outcome.NO_K_FOUND,
                    f"no k <= {kmax}")
        else:
            rep.add(f"{title}({v},{u};{w}) k={k}", eq_outcome(res),
                    witness(res))
    return rep


# ---------------------------------------------------------------------------
# the universal property


def check_homomorphism(src, dst, phi, rng=DEFAULT_RANGE):
    """phi: (src,) -> (dst,) x-free; verify vacuum and Y-intertwining."""
    rep = CheckReport(f"hom {src.name} -> {dst.name}")
    vac = phi.column((src.vacuum,))
    res = window_equal_vec(vac, dst.vacuum_vec())
    rep.add("vacuum", eq_outcome(res), witness(res))
    for (a, b) in basis_tuples((src.space, src.space)):
        lhs = phi.apply(src.vertex(a, b))
        rhs = dst.y.apply(phi.column((a,)).tensor(phi.column((b,))))
        res = window_equal_vec(lhs, rhs)
        rep.add(f"Y-hom at ({a},{b})", eq_outcome(res), witness(res))
    return rep


def universal_map(p, target, psi1, psi2, rng=DEFAULT_RANGE,
                  kmax=DEFAULT_KMAX):
    """The induced homomorphism ψ(u⊗v) = ψ1(u)_{-1} ψ2(v) from the twisted
    product to `target`, with all hypotheses checked first.

    Returns (psi: SeriesMap, report).  Raises PreconditionError when a
    hypothesis fails.
    """
    for (nva, phi, tag) in ((p.first, psi1, "psi1"), (p.second, psi2, "psi2")):
        hrep = check_homomorphism(nva, target, phi, rng)
        if not hrep.ok:
            raise PreconditionError(f"{tag} is a homomorphism",
                                    hrep.failures()[0].name)

    expd = exp_xD(target, "x", rng)
    r_neg = p.twist.table.transform(lambda s: s.negate_var("x"))
    y_neg = target.y.transform(lambda s: s.negate_var("x"))
    psi12, psi21 = psi1.tensor(psi2), psi2.tensor(psi1)

    # hypothesis: Y(psi1 u, x) psi2 v regular
    for u in p.first.space.basis:
        for v in p.second.space.basis:
            img = target.y.apply(psi12.column((u, v)))
            if not all(s.is_polynomial() for s in img.entries.values()):
                raise PreconditionError("regularity of Y(psi1 u,x) psi2 v",
                                        (u, v))

    # hypothesis: Y(psi2 v, x) psi1 u == e^{xD} Σ f_i(-x) Y(psi1 a_i,-x) psi2 b_i
    for v in p.second.space.basis:
        for u in p.first.space.basis:
            lhs = target.y.apply(psi21.column((v, u)))
            rhs = expd.apply(y_neg.apply(psi12.apply(r_neg.column((v, u)))))
            if not window_equal_vec(lhs, rhs):
                raise PreconditionError("skew hypothesis", (v, u))

    cols = {}
    for u in p.first.space.basis:
        for v in p.second.space.basis:
            img = target.y.apply(psi12.column((u, v)))
            cols[(p.pair(u, v),)] = img.transform(lambda s: s.extract("x", 0))
    psi = SeriesMap((p.space,), (target.space,), cols)
    rep = check_homomorphism(p.nva, target, psi, rng)
    rep.title = f"universal map {p.nva.name} -> {target.name}"
    return psi, rep


def flip_iso(p, rng=DEFAULT_RANGE, kmax=DEFAULT_KMAX):
    """The isomorphism V ⊗_{R^{-1}(-x)} U -> U ⊗_R V, ψ(v⊗u) = v_{-1}u.

    Requires R and R^{-1} pole-free.  Returns (reversed_product, psi, report).
    """
    from .twist import reversed_twisting

    twist = with_inverse(p.twist, rng)
    for (mp, tag) in ((twist.table, "R"), (twist.inverse, "R^{-1}")):
        for key, col in mp.columns.items():
            if not all(s.is_polynomial() for s in col.entries.values()):
                raise PreconditionError(f"{tag} pole-free", key)

    rev = build_twisted_tensor(p.second, p.first, reversed_twisting(twist, rng),
                               rng, check_axioms=True, provenance="twisted")
    psi, rep = universal_map(rev, p.nva, p.embed_second(), p.embed_first(),
                             rng, kmax)
    # bijectivity by exact rank
    rows = []
    for key in basis_tuples((rev.space,)):
        col = psi.column(key)
        rows.append([col.get((lbl,)).coeff(()) if not col.get((lbl,)).variables
                     else col.get((lbl,)).coeff((0,))
                     for lbl in p.space.basis])
    rank = matrix_rank(rows)
    rep.add("bijectivity", Outcome.EXACT_PASS if rank == len(p.space.basis)
            else Outcome.FAIL, f"rank {rank} of {len(p.space.basis)}")
    return rev, psi, rep


# ---------------------------------------------------------------------------
# extraction of the twisting operator from a host algebra


@dataclass
class ExtractionResult:
    twist: TwistOp | None
    solve: object  # UniqueSolution | Underdetermined | Inconsistent
    axioms: CheckReport | None
    theta: CheckReport | None
    z2: CheckReport | None

    @property
    def ok(self):
        return (isinstance(self.solve, UniqueSolution)
                and self.axioms is not None and self.axioms.ok
                and self.theta is not None and self.theta.ok)


def sub_nva(host, name, labels, vacuum):
    """The subalgebra of `host` spanned by the given basis labels."""
    sp = Space(name, tuple(labels))
    cols = {}
    for (a, b) in basis_tuples((sp, sp)):
        col = host.vertex(a, b)
        entries = {}
        for (lbl,), s in col.entries.items():
            if lbl not in labels:
                raise PreconditionError(f"{name} closed under Y", (a, b, lbl))
            entries[(lbl,)] = s
        cols[(a, b)] = SeriesVector((sp,), entries)
    return Nva(name, sp, vacuum, SeriesMap((sp, sp), (sp,), cols))


def extract_twisting(host, u_labels, v_labels, rng=DEFAULT_RANGE,
                     kmax=DEFAULT_KMAX, exp_range=(-2, 2),
                     u_vacuum=None, v_vacuum=None, z2_window=(-1, 1)):
    """Solve for the twisting operator R(x) of a host algebra generated by
    two subalgebras, from the commutation condition

        (x1-x2)^k Y(v,x1)Y(u,x2)w
          == (x1-x2)^k Σ r[(v,u)->(a,b),e] (-1)^e (x1-x2)^{k+e}
                         Y(a,x2)Y(b,x1)w / (x1-x2)^k ...

    assembled exactly by premultiplying with (x1-x2)^k so every unknown
    R-monomial (x2-x1)^e contributes the polynomial (-1)^e (x1-x2)^{k+e}.
    Solves at w = vacuum first, then validates against all w; on a unique
    solution runs the twisting axioms, the theta-bijectivity test and the
    degree-two injectivity report.
    """
    u_vacuum = u_vacuum or host.vacuum
    v_vacuum = v_vacuum or host.vacuum
    ualg = sub_nva(host, f"{host.name}.U", u_labels, u_vacuum)
    valg = sub_nva(host, f"{host.name}.V", v_labels, v_vacuum)

    # hypothesis: Y(u,x)v regular in the host
    for u in u_labels:
        for v in v_labels:
            col = host.vertex(u, v)
            if not all(s.is_polynomial() for s in col.entries.values()):
                raise PreconditionError("Y(u,x)v regular", (u, v))

    elo, ehi = exp_range
    k = max(0, -elo)
    nsym = {}
    for v in v_labels:
        for u in u_labels:
            for a in u_labels:
                for b in v_labels:
                    for e in range(elo, ehi + 1):
                        nsym[(v, u, a, b, e)] = f"r[{v},{u}][{a},{b}][{e}]"

    hs = (host.space,) * 3
    y1, y2 = host.y.at("x1"), host.y.at("x2")
    step = Series.monomial("x1", 1, rng) - Series.monomial("x2", 1, rng)
    powers = {j: step ** j for j in range(k + max(ehi, 0) + 1)}

    def equations(wlabels):
        pairs = []
        for v in v_labels:
            for u in u_labels:
                for w in wlabels:
                    lhs = double_product(y1, y2, v, u, w, hs)
                    lhs = lhs.transform(lambda s: s * powers[k])
                    rhs = SeriesVector.zero((host.space,))
                    for a in u_labels:
                        for b in v_labels:
                            base = double_product(y2, y1, a, b, w, hs)
                            for e in range(elo, ehi + 1):
                                sign = Q(-1) ** (e % 2)
                                poly = powers[k + e]
                                coeff = LinExpr.sym(nsym[(v, u, a, b, e)]) * sign
                                term = base.transform(
                                    lambda s, pl=poly, c=coeff:
                                        s * pl.scale(c))
                                rhs = rhs + term
                    pairs.append((lhs, rhs))
        return pairs

    unknowns = list(nsym.values())
    sol = solve_linear(equations([host.vacuum]), unknowns)
    # the full system over every w: the solution when the vacuum system
    # leaves R open, and otherwise the validation of the solved R
    full = solve_linear(equations(list(host.space.basis)), unknowns)
    if not isinstance(sol, UniqueSolution):
        sol = full
    if not isinstance(sol, UniqueSolution) or isinstance(full, Inconsistent):
        return ExtractionResult(None, full, None, None,
                                check_Z2_injectivity(host, rng, z2_window))

    window = Window.uniform(("x",), rng)
    dom = (valg.space, ualg.space)
    cod = (ualg.space, valg.space)
    cols = {}
    for v in v_labels:
        for u in u_labels:
            entries = {}
            for a in u_labels:
                for b in v_labels:
                    coeffs = {}
                    for e in range(elo, ehi + 1):
                        c = sol.assignment[nsym[(v, u, a, b, e)]]
                        if c != 0:
                            coeffs[(e,)] = c
                    if coeffs:
                        entries[(a, b)] = Series(("x",), coeffs, window)
            cols[(v, u)] = SeriesVector(cod, entries)
    twist = TwistOp(f"extracted({host.name})", ualg, valg,
                    SeriesMap(dom, cod, cols))
    axioms = check_twisting_axioms(twist, rng, kmax)

    # theta(u⊗v) = u_{-1}v bijectivity, exact rank over the host basis
    theta = CheckReport(f"{host.name}: theta bijectivity")
    rows = []
    for u in u_labels:
        for v in v_labels:
            col = host.vertex(u, v).transform(lambda s: s.extract("x", 0))
            rows.append([col.get((lbl,)).coeff(())
                         if not col.get((lbl,)).variables
                         else col.get((lbl,)).coeff(
                             (0,) * len(col.get((lbl,)).variables))
                         for lbl in host.space.basis])
    rank = matrix_rank(rows)
    full = len(u_labels) * len(v_labels)
    theta.add("theta(u⊗v)=u_{-1}v bijective",
              Outcome.EXACT_PASS if rank == full == len(host.space.basis)
              else Outcome.FAIL,
              f"rank {rank}, dim U⊗V {full}, dim host {len(host.space.basis)}")

    z2 = check_Z2_injectivity(host, rng, z2_window)
    return ExtractionResult(twist, sol, axioms, theta, z2)


# ---------------------------------------------------------------------------
# degree-two injectivity (non-degeneracy surrogate at the window)


def check_Z2_injectivity(host, rng=DEFAULT_RANGE, mono_window=(-1, 1)):
    """Finite matrix of Z2(u⊗v⊗f) = f·Y(u,x1)Y(v,x2)1 over columns
    (basis ⊗ basis ⊗ monomial in the window); reports the kernel rank.

    On a Laurent polynomial table the map is linear over the Laurent
    polynomials f, so it sends the rank-n² module of u⊗v into the rank-n
    host and its kernel is nonzero whenever n >= 2: the
    "Z2 kernel rank 0" verdict is then an honest `fail`, not a window
    artifact.  On Z2⊗Z2 every product u·v is ±1 times a basis vector,
    which gives columns 144, rank 36, kernel 108 at the 3×3 window."""
    rep = CheckReport(f"{host.name}: degree-two injectivity")
    y1, y2 = host.y.at("x1"), host.y.at("x2")
    hs = (host.space,) * 3
    lo, hi = mono_window
    monos = [(e1, e2) for e1 in range(lo, hi + 1) for e2 in range(lo, hi + 1)]
    columns = []
    rowkeys = {}
    for u in host.space.basis:
        for v in host.space.basis:
            base = double_product(y1, y2, u, v, host.vacuum, hs)
            for (e1, e2) in monos:
                f = (Series.monomial("x1", e1, rng) *
                     Series.monomial("x2", e2, rng))
                col = base.transform(lambda s, m=f: s * m)
                entry = {}
                for (lbl,), s in col.entries.items():
                    for expt, c in s.coeffs.items():
                        key = (lbl,) + expt
                        rowkeys.setdefault(key, len(rowkeys))
                        entry[key] = c
                columns.append(entry)
    nrows = len(rowkeys)
    dense = [[Q(0)] * len(columns) for _ in range(nrows)]
    for j, entry in enumerate(columns):
        for key, c in entry.items():
            dense[rowkeys[key]][j] = c
    rank = matrix_rank(dense)
    kernel = len(columns) - rank
    rep.add("Z2 kernel rank 0",
            Outcome.EXACT_PASS if kernel == 0 else Outcome.FAIL,
            f"columns {len(columns)}, rank {rank}, kernel {kernel}, "
            f"monomial window {mono_window}")
    return rep


# ---------------------------------------------------------------------------
# modules over the product


def build_product_module(p, m_first, m_second, rng=DEFAULT_RANGE,
                         kmax=DEFAULT_KMAX):
    """Module over U ⊗_R V from compatible U- and V-module structures on W:
    Y(u⊗v,x)w = (Y^U(u,x1) Y^V(v,x)w)|_{x1=x}.

    Hypotheses checked first: two-variable regularity, the inverse-twist
    commutation, and the k-witnessed direct commutation.
    """
    assert m_first.space == m_second.space, "modules must share the space"
    W = m_first.space
    twist = with_inverse(p.twist, rng)

    # regularity: Y^U(u,x1) Y^V(v,x2) w has no (x1-x2)-denominators; on
    # finite tables this is Laurent-polynomiality of the double product
    yu1, yv2 = m_first.yw.at("x1"), m_second.yw.at("x2")
    spaces = (p.first.space, p.second.space, W)
    for (u, v, w) in basis_tuples(spaces):
        vec = SeriesVector.basis(spaces, (u, v, w))
        vec = yv2.apply(vec, (1, 2))
        vec = yu1.apply(vec, (0, 1))
        if not vec.exact():
            raise PreconditionError("two-variable regularity", (u, v, w))

    rep = module_hypotheses(p, m_first, m_second, twist, rng, kmax)
    if not rep.ok:
        raise PreconditionError("module compatibility",
                                rep.failures()[0].name)

    cols = {}
    for (u, v) in basis_tuples((p.first.space, p.second.space)):
        for w in W.basis:
            vec = SeriesVector.basis(spaces, (u, v, w))
            vec = m_second.yw.apply(vec, (1, 2))
            vec = yu1.apply(vec, (0, 1))
            vec = vec.transform(lambda s: s.diagonal("x1", "x"))
            cols[(p.pair(u, v), w)] = vec
    yw = SeriesMap((p.space, W), (W,), cols)
    return NvaModule(f"{p.nva.name}-module({W.name})", p.nva, W, yw)


def restricted_module(p, mod, which, rng=DEFAULT_RANGE):
    """A module over the product restricted to one factor along u ↦ u⊗1
    (which='first') or v ↦ 1⊗v (which='second')."""
    factor = p.first if which == "first" else p.second
    emb = p.embed_first() if which == "first" else p.embed_second()
    cols = {}
    for a in factor.space.basis:
        (lbl,), = emb.column((a,)).entries.keys()
        for w in mod.space.basis:
            cols[(a, w)] = mod.yw.column((lbl, w))
    yw = SeriesMap((factor.space, mod.space), (mod.space,), cols)
    return NvaModule(f"{mod.name}|{factor.name}", factor, mod.space, yw)


def check_module_extension(p, mod, m_first, m_second, rng=DEFAULT_RANGE):
    """A product module built from (m_first, m_second) restricts back to
    them along the canonical embeddings."""
    rep = CheckReport(f"{mod.name}: extension property")
    for (m, which) in ((m_first, "first"), (m_second, "second")):
        r = restricted_module(p, mod, which, rng)
        for key in sorted(set(m.yw.columns) | set(r.yw.columns)):
            res = window_equal_vec(m.yw.column(key), r.yw.column(key))
            rep.add(f"{which} restriction at {key}", eq_outcome(res),
                    witness(res))
    return rep


def module_hypotheses(p, m_first, m_second, twist, rng, kmax):
    """eYWuv-comm and the k-witnessed commutation for the two actions."""
    rep = CheckReport("product-module hypotheses")
    rinv_sub = twist.inverse.at("x2").transform(
        lambda s: s.substitute_sum("x2", "x2", "x1", rng, 1, -1))
    spaces = (p.first.space, p.second.space, m_first.space)
    yu1, yv2 = m_first.yw.at("x1"), m_second.yw.at("x2")

    # Y^U(u,x1)Y^V(v,x2)w == Y^V(x2)(1⊗Y^U(x1))(R^{-1})^{12}(x2-x1)(u⊗v⊗w)
    for (u, v, w) in basis_tuples(spaces):
        vec = SeriesVector.basis(spaces, (u, v, w))
        lhs = yu1.apply(yv2.apply(vec, (1, 2)), (0, 1))
        rhs = yv2.apply(yu1.apply(rinv_sub.apply(vec, (0, 1)), (1, 2)), (0, 1))
        res = window_equal_vec(lhs, rhs)
        rep.add(f"inverse-commutation({u},{v};{w})", eq_outcome(res),
                witness(res))

    # (x2-x1)^k Y^V(v,x1)Y^U(u,x2)w
    #   == (x2-x1)^k Y^U(x2)(1⊗Y^V(x1)) R^{12}(x2-x1)(v⊗u⊗w)
    rep.extend(commutation_with_twist(m_first, m_second, twist, rng, kmax,
                                      "k-commutation"))
    return rep
