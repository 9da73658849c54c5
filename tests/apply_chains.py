"""The apply chains that the quantum, smash and product checks ran before
each side of an identity became one composed map: per basis tuple, the
basis vector pushed through the maps leg by leg, with legs braided by
reordering the vector's keys.

They are the oracle of the composed sides.  Each chain of a compared
identity yields (name, key, lhs, rhs) per item, in the order its check
reports them; each chain of a k-searched identity yields (name, sides),
sides the (lhs, rhs) pairs its k is searched on; and each table chain
returns the columns of the table it builds.

Weak associativity's live loop and Series.substitute_sum as they were
before a live triple was built in one pass per side, and before a term's
expansion was kept, are kept here too, as the oracles of both.
"""

import json
from pathlib import Path

from nvaw.linalg import SeriesMap, SeriesVector, basis_tuples
from nvaw.nva import CheckReport, Outcome, compute_D, exp_xD
from nvaw.products import pair_label
from nvaw.series import (
    Series, SeriesError, _binomial_row, _normalized, _substitution_plan)
from nvaw.twist import with_inverse


def entries(vec):
    """Each entry of vec as (key, variables, coefficients, window, exact),
    in its order."""
    return [(k, s.variables, s.coeffs, s.window, s.exact)
            for k, s in vec.entries.items()]


def rekeyed_compose(outer, inner, legs=None):
    """outer.compose(inner, legs) as it was built before each column was
    accumulated in place: every inner column that outer reads, its keys put
    among the other legs' labels as a vector over outer's domain, applied
    by outer."""
    n = len(outer.domain)
    lo, hi = (0, n) if legs is None else (legs[0], legs[-1] + 1)
    read = {}
    for k in outer.columns:
        read.setdefault((k[:lo], k[hi:]), set()).add(k[lo:hi])
    cols = {}
    for pre in basis_tuples(outer.domain[:lo]):
        for key, v in inner.columns.items():
            for post in basis_tuples(outer.domain[hi:]):
                labels = read.get((pre, post), ())
                if not labels or labels.isdisjoint(v.entries):
                    continue
                col = outer.apply(SeriesVector(outer.domain, {
                    pre + k + post: s for k, s in v.entries.items()}))
                if col.entries:
                    cols[pre + key + post] = col
    return SeriesMap(outer.domain[:lo] + inner.domain + outer.domain[hi:],
                     outer.codomain, cols)


def typed_entries(vec):
    """Each entry of vec as (key, variables, [(exponent, coefficient, type
    of the coefficient)], window, exact), both in their order."""
    return [(k, s.variables, [(ex, c, type(c)) for ex, c in s.coeffs.items()],
             s.window, s.exact) for k, s in vec.entries.items()]


def permuted(vec, perm):
    """vec with its tensor legs reordered: new leg i is old leg perm[i]."""
    return SeriesVector(tuple(vec.spaces[p] for p in perm),
                        {tuple(k[p] for p in perm): s
                         for k, s in vec.entries.items()})


# ---------------------------------------------------------------------------
# quantum.py


def s_locality_sides(a, s):
    sp = a.space
    y1, y2 = a.y.at("x1"), a.y.at("x2")
    s_sub = s.table.at("x2", "-x1")
    spaces = (sp, sp, sp)
    double = y1.compose(y2, (1,))
    for (u, v) in basis_tuples((sp, sp)):
        sides = []
        for w in sp.basis:
            lhs = double.column((u, v, w))
            vec = SeriesVector.basis(spaces, (v, u, w))
            rhs = y2.apply(y1.apply(s_sub.apply(vec, (0, 1)), (1, 2)), (0, 1))
            sides.append((lhs, rhs))
        yield f"S-locality({u},{v})", sides


def s_skew_chain(a, s):
    sp = a.space
    expd = exp_xD(a)
    s_neg, y_neg = s.table.at("-x"), a.y.at("-x")
    for (u, v) in basis_tuples((sp, sp)):
        yield (f"S-skew({u},{v})", (u, v), a.vertex(u, v),
               expd.apply(y_neg.apply(s_neg.column((v, u)))))


def qyb_unitarity_chain(s):
    sp = s.algebra.space
    s_x, s_z, s_sum = s.table, s.table.at("z"), s.table.at("x", "z")
    spaces = (sp, sp, sp)
    for key in basis_tuples(spaces):
        vec = SeriesVector.basis(spaces, key)
        lhs = permuted(s_z.apply(vec, (1, 2)), (0, 2, 1))
        lhs = permuted(s_sum.apply(lhs, (0, 1)), (0, 2, 1))
        lhs = s_x.apply(lhs, (0, 1))
        rhs = permuted(s_x.apply(vec, (0, 1)), (0, 2, 1))
        rhs = permuted(s_sum.apply(rhs, (0, 1)), (0, 2, 1))
        rhs = s_z.apply(rhs, (1, 2))
        yield f"QYB{key}", key, lhs, rhs
    inv = s.inverse_table()
    ident = SeriesMap.identity((sp, sp))
    for key in basis_tuples((sp, sp)):
        yield (f"unitarity S(x)S21(-x){key}", key,
               s.table.apply(inv.column(key)), ident.column(key))
        yield (f"unitarity S21(-x)S(x){key}", key,
               inv.apply(s.table.column(key)), ident.column(key))


def d_bracket_chain(table, D, leg, sign, label):
    sp2 = table.domain
    for key in basis_tuples(sp2):
        col = table.column(key)
        term1 = D.apply(col, (leg,))
        term2 = table.apply(D.apply(SeriesVector.basis(sp2, key), (leg,)))
        want = col.transform(lambda t: t.deriv("x").scale(sign))
        yield f"{label} at {key}", key, term1 - term2, want


def qva_chain(a, s):
    sp, vac = a.space, a.vacuum
    for v in sp.basis:
        yield (f"S(x)(1⊗{v}) == 1⊗{v}", (vac, v), s.table.column((vac, v)),
               SeriesVector.basis((sp, sp), (vac, v)))
    for v in sp.basis:
        yield (f"S(x)({v}⊗1) == {v}⊗1", (v, vac), s.table.column((v, vac)),
               SeriesVector.basis((sp, sp), (v, vac)))
    D = compute_D(a)
    yield from d_bracket_chain(s.table, D, 0, -1,
                               "[D⊗1,S(x)] == -d/dx S(x)")
    yield from d_bracket_chain(s.inverse_table(), D, 1, 1,
                               "[1⊗D,S^{-1}(x)] == d/dx S^{-1}(x)")
    yield from s_skew_chain(a, s)
    y2 = a.y.at("x2")
    s_x1 = s.table.at("x1")
    s_sum = s.table.at("x1", "x2")
    s_diff = s.table.at("x1", "-x2")
    spaces = (sp, sp, sp)
    for key in basis_tuples(spaces):
        vec = SeriesVector.basis(spaces, key)
        lhs = s_x1.apply(y2.apply(vec, (0, 1)), (0, 1))
        rhs = permuted(s_sum.apply(permuted(vec, (0, 2, 1)), (0, 1)), (0, 2, 1))
        rhs = y2.apply(s_x1.apply(rhs, (1, 2)), (0, 1))
        yield f"S(x1)(Y(x2)⊗1){key}", key, lhs, rhs
    for key in basis_tuples(spaces):
        vec = SeriesVector.basis(spaces, key)
        lhs = s_x1.apply(y2.apply(vec, (1, 2)), (0, 1))
        rhs = permuted(s_x1.apply(permuted(vec, (0, 2, 1)), (0, 1)), (0, 2, 1))
        rhs = y2.apply(s_diff.apply(rhs, (0, 1)), (1, 2))
        yield f"S(x1)(1⊗Y(x2)){key}", key, lhs, rhs


def s_r_columns(p, sU, sV):
    twist = with_inverse(p.twist)
    U, V = p.first.space, p.second.space
    r_x, rinv_x = twist.table, twist.inverse
    cols = {}
    for (u, v, u2, v2) in basis_tuples((U, V, U, V)):
        vec = SeriesVector.basis((U, V, U, V), (u, v, u2, v2))
        vec = permuted(vec, (2, 3, 0, 1))          # σ13 σ24
        vec = r_x.apply(vec, (1, 2))               # (U,U,V,V)
        vec = permuted(vec, (0, 1, 3, 2))          # σ34
        vec = sV.table.apply(vec, (2, 3))
        vec = permuted(vec, (1, 0, 2, 3))          # σ12
        vec = sU.table.apply(vec, (0, 1))
        vec = rinv_x.apply(vec, (1, 2))            # back to (U,V,U,V)
        entries = {}
        for (a, b, c, d), t in vec.entries.items():
            key = (pair_label(a, b), pair_label(c, d))
            entries[key] = entries[key] + t if key in entries else t
        cols[(pair_label(u, v), pair_label(u2, v2))] = entries
    return cols


# ---------------------------------------------------------------------------
# smash.py


def coalgebra_chain(c):
    sp = c.algebra.space
    for b in sp.basis:
        d = c.coproduct.column((b,))
        want = SeriesVector.basis((sp,), (b,))
        yield (f"(Δ⊗1)Δ({b}) == (1⊗Δ)Δ({b})", (b,),
               c.coproduct.apply(d, (0,)), c.coproduct.apply(d, (1,)))
        yield f"(ε⊗1)Δ({b}) == {b}", (b,), c.counit.apply(d, (0,)), want
        yield f"(1⊗ε)Δ({b}) == {b}", (b,), c.counit.apply(d, (1,)), want


def bialgebra_chain(h):
    from nvaw.products import build_ordinary_tensor

    alg = h.algebra
    sp = alg.space
    p = build_ordinary_tensor(alg, alg)
    pairing = p.pairing()
    for (a, b) in basis_tuples((sp, sp)):
        yab = alg.vertex(a, b)
        ea = h.counit.column((a,)).get(()).coeff(())
        eb = h.counit.column((b,)).get(()).coeff(())
        yield (f"ε(Y({a},x){b}) == ε({a})ε({b})", (a, b),
               h.counit.apply(yab, (0,)),
               SeriesVector.basis((), ()).scale(ea * eb))
        four = h.coproduct.column((a,)).tensor(h.coproduct.column((b,)))
        paired = pairing.apply(pairing.apply(four, (0, 1)), (1, 2))
        yield (f"Δ(Y({a},x){b}) == Y(Δ{a},x)Δ{b}", (a, b),
               pairing.apply(h.coproduct.apply(yab, (0,))),
               p.nva.y.apply(paired))


def module_algebra_chain(m):
    h = m.bialgebra
    hs, us = h.algebra.space, m.module.space
    act_x = m.action
    act_xz = m.action.at("x", "-z")
    yu_z = m.module.y.at("z")
    for (hl, u, v) in basis_tuples((hs, us, us)):
        vec = SeriesVector.basis((hs, us, us), (hl, u, v))
        lhs = act_x.apply(yu_z.apply(vec, (1, 2)), (0, 1))
        rhs = h.coproduct.apply(vec, (0,))           # (H,H,U,U)
        rhs = permuted(rhs, (0, 2, 1, 3))            # h1,u,h2,v
        rhs = act_xz.apply(rhs, (0, 1))              # (U,H,U)
        rhs = act_x.apply(rhs, (1, 2))               # (U,U)
        rhs = yu_z.apply(rhs, (0, 1))
        yield (f"Y({hl},x)Y({u},z){v} == Y(Y(h1,x-z){u},z)Y(h2,x){v}",
               (hl, u, v), lhs, rhs)
    act_z, act_zx = m.action.at("z"), m.action.at("z", "x")
    for (h1, h2, v) in basis_tuples((hs, hs, us)):
        vec = SeriesVector.basis((hs, hs, us), (h1, h2, v))
        lhs = act_zx.apply(act_z.apply(vec, (1, 2)), (0, 1))
        rhs = act_z.apply(h.algebra.y.apply(vec, (0, 1)), (0, 1))
        yield (f"Y({h1},z+x)Y({h2},z){v} == Y(Y({h1},x){h2},z){v}",
               (h1, h2, v), lhs, rhs)


def comodule_algebra_chain(c):
    h = c.bialgebra
    vs = c.comodule.space
    for v in vs.basis:
        rho = c.coaction.column((v,))
        yield (f"(Δ⊗1)ρ({v}) == (1⊗ρ)ρ({v})", (v,),
               h.coproduct.apply(rho, (0,)), c.coaction.apply(rho, (1,)))
        yield (f"(ε⊗1)ρ({v}) == {v}", (v,), h.counit.apply(rho, (0,)),
               SeriesVector.basis((vs,), (v,)))
    for (v, v2) in basis_tuples((vs, vs)):
        lhs = c.coaction.apply(c.comodule.vertex(v, v2), (0,))
        four = c.coaction.column((v,)).tensor(c.coaction.column((v2,)))
        four = permuted(four, (0, 2, 1, 3))          # σ23: (H,H,V,V)
        rhs = h.algebra.y.apply(c.comodule.y.apply(four, (2, 3)), (0, 1))
        yield f"ρ(Y({v},x){v2}) multiplicative", (v, v2), lhs, rhs


def smash_twist_columns(u, v):
    us, vs = u.module.space, v.comodule.space
    act_neg = u.action.at("-x")
    cols = {}
    for (vl, ul) in basis_tuples((vs, us)):
        vec = SeriesVector.basis((vs, us), (vl, ul))
        vec = permuted(v.coaction.apply(vec, (0,)), (0, 2, 1))  # (H,U,V)
        cols[(vl, ul)] = act_neg.apply(vec, (0, 1)).entries
    return cols


def smash_columns(u, v):
    U, V = u.module, v.comodule
    us, vs = U.space, V.space
    cols = {}
    for (ul, vl, u2, v2) in basis_tuples((us, vs, us, vs)):
        vec = SeriesVector.basis((us, vs, us, vs), (ul, vl, u2, v2))
        vec = v.coaction.apply(vec, (1,))        # ρ(v): (U,H,V,U,V)
        vec = permuted(vec, (0, 1, 3, 2, 4))     # (U,H,U,V,V)
        vec = u.action.apply(vec, (1, 2))        # Y(b1(v),x)u'
        vec = U.y.apply(vec, (0, 1))             # Y(u,x)Y(b1(v),x)u'
        vec = V.y.apply(vec, (1, 2))             # ⊗ Y(v2(v),x)v'
        cols[(pair_label(ul, vl), pair_label(u2, v2))] = {
            (pair_label(a, b),): s for (a, b), s in vec.entries.items()}
    return cols


# ---------------------------------------------------------------------------
# products.py


def embeddings_chain(p):
    for (nva, emb, tag) in ((p.first, p.embed_first(), "U⊗1"),
                            (p.second, p.embed_second(), "1⊗V")):
        for (a, b) in basis_tuples((nva.space, nva.space)):
            lhs = emb.apply(nva.vertex(a, b))
            (pa,), (pb,) = (next(iter(emb.column((a,)).entries)),
                            next(iter(emb.column((b,)).entries)))
            yield (f"{tag} hom at ({a},{b})", (a, b), lhs,
                   p.nva.vertex(pa, pb))


def product_skew_chain(p):
    P = p.nva
    vac_u, vac_v = p.first.vacuum, p.second.vacuum
    expd = exp_xD(P)
    r_neg, y_neg = p.twist.table.at("-x"), P.y.at("-x")
    embed = p.embed_first().tensor(p.embed_second())
    for u in p.first.space.basis:
        for v in p.second.space.basis:
            lhs = P.vertex(p.pair(vac_u, v), p.pair(u, vac_v))
            rhs = expd.apply(y_neg.apply(embed.apply(r_neg.column((v, u)))))
            yield f"skew-symmetry ({v},{u})", (v, u), lhs, rhs


def inverse_skew_chain(p):
    twist = with_inverse(p.twist)
    P = p.nva
    vac_u, vac_v = p.first.vacuum, p.second.vacuum
    expd = exp_xD(P)
    y_neg = P.y.at("-x")
    embed = p.embed_second().tensor(p.embed_first())
    for u in p.first.space.basis:
        for v in p.second.space.basis:
            lhs = P.vertex(p.pair(u, vac_v), p.pair(vac_u, v))
            rhs = expd.apply(y_neg.apply(embed.apply(
                twist.inverse.column((u, v)))))
            yield f"inverse-skew ({u},{v})", (u, v), lhs, rhs


def inverse_commutation_chain(m_first, m_second, twist, title):
    yu1, yv2 = m_first.yw.at("x1"), m_second.yw.at("x2")
    rinv_sub = twist.inverse.at("-x2", "x1")
    spaces = (twist.first.space, twist.second.space, m_first.space)
    for (u, v, w) in basis_tuples(spaces):
        vec = SeriesVector.basis(spaces, (u, v, w))
        lhs = yu1.apply(yv2.apply(vec, (1, 2)), (0, 1))
        rhs = yv2.apply(yu1.apply(rinv_sub.apply(vec, (0, 1)), (1, 2)), (0, 1))
        yield f"{title}({u},{v};{w})", (u, v, w), lhs, rhs


def commutation_sides(m_first, m_second, twist, title):
    yu2, yv1 = m_first.yw.at("x2"), m_second.yw.at("x1")
    r_sub = twist.table.at("x2", "-x1")
    spaces = (twist.second.space, twist.first.space, m_first.space)
    for (v, u, w) in basis_tuples(spaces):
        vec = SeriesVector.basis(spaces, (v, u, w))
        lhs = yv1.apply(yu2.apply(vec, (1, 2)), (0, 1))
        rhs = yu2.apply(yv1.apply(r_sub.apply(vec, (0, 1)), (1, 2)), (0, 1))
        yield f"{title}({v},{u};{w})", [(lhs, rhs)]


def homomorphism_chain(src, dst, phi):
    for (a, b) in basis_tuples((src.space, src.space)):
        yield (f"Y-hom at ({a},{b})", (a, b), phi.apply(src.vertex(a, b)),
               dst.y.apply(phi.column((a,)).tensor(phi.column((b,)))))


def universal_skew_chain(p, target, psi1, psi2):
    expd = exp_xD(target)
    r_neg, y_neg = p.twist.table.at("-x"), target.y.at("-x")
    psi12, psi21 = psi1.tensor(psi2), psi2.tensor(psi1)
    for v in p.second.space.basis:
        for u in p.first.space.basis:
            lhs = target.y.apply(psi21.column((v, u)))
            rhs = expd.apply(y_neg.apply(psi12.apply(r_neg.column((v, u)))))
            yield f"{(v, u)}", (v, u), lhs, rhs


# ---------------------------------------------------------------------------
# nva.py and series.py: weak associativity's triples through transform and
# align, and the substitution of every series term by term


def substitute_sum(s, var, first, second):
    """s.substitute_sum(var, first, second) summed term by term and then
    clipped, for a series of any length."""
    if var not in s.variables:
        return s
    variables, i, moves, pf, pg, signs = _substitution_plan(
        s.variables, var, first, second)
    shared = any(p in (pf, pg) for p, _ in moves)
    window = s.window
    exact = s.exact
    rows = {}
    out = {}
    for ex, c in s.coeffs.items():
        n = ex[i]
        base = [0] * len(variables)
        for p, j in moves:
            base[p] = ex[j]
        at = (n, base[pf], base[pg]) if shared else n
        row = rows.get(at)
        if row is None:
            if n >= 0:
                cap = n
            elif window is None:
                raise SeriesError(f"{var}^{n} has an infinite expansion "
                                  "and no window to clip it at")
            else:
                exact = False
                cap = max(-1, min(window[1] - base[pg],
                                  n + base[pf] - window[0]))
            row = rows[at] = _binomial_row(n, cap, signs)
        for k, m in enumerate(row):
            ne = base.copy()
            ne[pf] += n - k
            ne[pg] += k
            ne = tuple(ne)
            term = c if m == 1 else c * m
            out[ne] = out[ne] + term if ne in out else term
    return _normalized(variables, out, window, exact)


def pole_order(vec, var):
    k = 0
    for s in vec.entries.values():
        if var in s.variables:
            i = s.variables.index(var)
            k = max(k, -min(0, min((ex[i] for ex in s.coeffs), default=0)))
    return k


def weak_associativity_items(y, yw, spaces, kmax, prefix):
    """nva.weak_associativity_items with each live triple's sides built by
    transform and align."""
    rep = CheckReport("weak associativity")
    yx1, yx2, yx0 = yw.at("x1"), yw.at("x2"), y.at("x0")
    lhs_map = yx1.compose(yx2, (1,))
    rhs_map = yx2.compose(yx0, (0,))
    ws = spaces[2].basis
    index = {w: i for i, w in enumerate(ws)}
    live = {}
    for key in lhs_map.columns.keys() | rhs_map.columns.keys():
        live.setdefault(key[:2], []).append((index[key[2]], key[2]))
    zero = tuple(f"{w}) k=0" for w in ws)
    for (u, v) in basis_tuples(spaces[:2]):
        at = f"{prefix}({u},{v},"
        start = 0
        for i, w in sorted(live.get((u, v), ())):
            rep.run(at, zero[start:i])
            start = i + 1
            key = (u, v, w)
            lhs12 = lhs_map.column(key)
            k = pole_order(lhs12, "x1")
            if k > kmax:
                rep.add(f"{at}{w})", Outcome.NO_K_FOUND,
                        f"pole order exceeds kmax={kmax}")
                continue
            rhs = rhs_map.column(key)
            if k:
                xk = Series.monomial("x1", k)
                lhs12 = lhs12.scale(xk)
                rhs = rhs.scale(substitute_sum(xk, "x1", "x0", "x2"))
            lhs = lhs12.transform(lambda s: substitute_sum(
                s, "x1", "x0", "x2").align(("x0", "x2"), s.window))
            rep.compare(f"{at}{w}) k={k}", lhs,
                        rhs.transform(lambda s: s.align(("x0", "x2"), s.window)))
        rep.run(at, zero[start:])
    return rep


# ---------------------------------------------------------------------------
# mutated instances: the failing (name, detail) pairs of one per suite,
# recorded when the checks ran these chains, by the name of the instance

MUTATED = json.loads((Path(__file__).parent / "mutated_failures.json")
                     .read_text(encoding="utf-8"))


def doubled(mp, key):
    """The map mp with its column at key doubled."""
    cols = dict(mp.columns)
    cols[key] = cols[key].scale(2)
    return SeriesMap(mp.domain, mp.codomain, cols)


def failures(rep):
    return [[i.name, i.detail] for i in rep.failures()]
