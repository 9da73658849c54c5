"""Built-in example algebras, twisting operators, S-maps and smash data.

Every instance here is small enough that all axiom checks run exactly:

* E1  -- the dual numbers Q[e]/(e^2), a commutative algebra viewed as a
         holomorphic vertex algebra Y(a,x)b = ab.
* E1n -- a unital 3-dimensional noncommutative associative algebra
         (upper-triangular 2x2 matrices) with Y(a,x)b = ab.
* E2  -- Q{1,s,t} with s^2 = st = t^2 = 0 and the derivation D(s) = t,
         giving Y(a,x)b = (e^{xD} a) b; the vertex operator has a genuine
         x-dependence: Y(s,x)1 = s + x t.
* Z2  -- the group algebra Q[Z/2] with basis {1, g}, g^2 = 1.

Twisting operators: the flip on any pair, and the sign twist on (Z2,Z2)
using the Z/2 grading |g| = 1.  S-maps: the identity on any commutative
instance, and the super-flip sign S-map on E1 with e odd.  The smash datum
on Z2 (group-like coproduct, sign action, diagonal coaction) reproduces the
sign twist.
"""

from .series import DEFAULT_RANGE, Series
from .linalg import SeriesMap, SeriesVector, Space, basis_tuples
from .nva import Nva


def _const_vec(spaces, combo):
    """combo: dict label-tuple -> rational coefficient (x-free entries)."""
    return SeriesVector(
        spaces, {k: Series.const(c) for k, c in combo.items()}
    )


def algebra_from_products(name, basis, unit, products):
    """Holomorphic vertex algebra from an associative unital algebra.

    products: dict (a,b) -> dict label -> coeff; missing pairs are zero.
    """
    sp = Space(name, tuple(basis))
    cols = {}
    for (a, b) in basis_tuples((sp, sp)):
        combo = products.get((a, b), {})
        cols[(a, b)] = _const_vec((sp,), {(lbl,): c for lbl, c in combo.items()})
    return Nva(name, sp, unit, SeriesMap((sp, sp), (sp,), cols))


def make_e1():
    prods = {
        ("one", "one"): {"one": 1},
        ("one", "eps"): {"eps": 1},
        ("eps", "one"): {"eps": 1},
        # eps * eps = 0
    }
    return algebra_from_products("E1", ("one", "eps"), "one", prods)


def make_e1n():
    # basis: one = e11+e22, n = e12, p = e11 in upper-triangular 2x2 matrices
    prods = {
        ("one", "one"): {"one": 1},
        ("one", "n"): {"n": 1},
        ("one", "p"): {"p": 1},
        ("n", "one"): {"n": 1},
        ("p", "one"): {"p": 1},
        ("p", "p"): {"p": 1},
        ("p", "n"): {"n": 1},
        # n*p = n*n = 0
    }
    return algebra_from_products("E1n", ("one", "n", "p"), "one", prods)


def make_z2():
    prods = {
        ("one", "one"): {"one": 1},
        ("one", "g"): {"g": 1},
        ("g", "one"): {"g": 1},
        ("g", "g"): {"one": 1},
    }
    return algebra_from_products("Z2", ("one", "g"), "one", prods)


def make_e2(rng=DEFAULT_RANGE):
    """Y(a,x)b = (e^{xD} a) b with D(s) = t on Q{1,s,t}, s^2 = st = t^2 = 0."""
    sp = Space("E2", ("one", "s", "t"))

    def mono(lbl, e=0, c=1):
        return ((lbl,), Series(("x",), {(e,): c}, rng))

    prod = {  # multiplication table of the commutative algebra
        ("one", "one"): {"one": 1}, ("one", "s"): {"s": 1},
        ("one", "t"): {"t": 1}, ("s", "one"): {"s": 1},
        ("t", "one"): {"t": 1},
    }
    dmap = {"s": "t"}  # D(s) = t, D(1) = D(t) = 0
    cols = {}
    for (a, b) in basis_tuples((sp, sp)):
        entries = {}
        # e^{xD} a = a + x D(a)   (D^2 = 0 on this algebra)
        for lbl, e in ((a, 0),) + (((dmap[a], 1),) if a in dmap else ()):
            for out, c in prod.get((lbl, b), {}).items():
                key, s = mono(out, e, c)
                entries[key] = entries.get(key, Series.zero()) + s
        cols[(a, b)] = SeriesVector((sp,), entries)
    return Nva("E2", sp, "one", SeriesMap((sp, sp), (sp,), cols))


Z2_GRADING = {"one": 0, "g": 1}
E1_GRADING = {"one": 0, "eps": 1}


def graded_sign_twist(first, second, grading_f, grading_s):
    """R(v ⊗ u) = (-1)^{|v||u|} u ⊗ v for graded basis labels."""
    from .twist import TwistOp

    dom = (second.space, first.space)
    cod = (first.space, second.space)
    cols, inv_cols = {}, {}
    for (v, u) in basis_tuples(dom):
        sign = (-1) ** (grading_s[v] * grading_f[u] % 2)
        cols[(v, u)] = _const_vec(cod, {(u, v): sign})
        inv_cols[(u, v)] = _const_vec(dom, {(v, u): sign})
    return TwistOp(
        f"sign({first.name},{second.name})", first, second,
        SeriesMap(dom, cod, cols), SeriesMap(cod, dom, inv_cols),
    )


def sign_twist_z2():
    z2 = make_z2()
    return graded_sign_twist(z2, z2, Z2_GRADING, Z2_GRADING)


# ---------------------------------------------------------------------------
# S-maps


def identity_smap(nva):
    from .quantum import SMap

    return SMap(f"id({nva.name})", nva, SeriesMap.identity((nva.space, nva.space)))


def sign_smap_e1():
    """Super-flip S-map on E1: S(a⊗b) = (-1)^{|a||b|} a⊗b with eps odd."""
    from .quantum import SMap

    e1 = make_e1()
    dom = (e1.space, e1.space)
    cols = {}
    for (a, b) in basis_tuples(dom):
        sign = (-1) ** (E1_GRADING[a] * E1_GRADING[b] % 2)
        cols[(a, b)] = _const_vec(dom, {(a, b): sign})
    return SMap(f"sign({e1.name})", e1, SeriesMap(dom, dom, cols))


# ---------------------------------------------------------------------------
# smash-product input data on Z2


def z2_smash_datum():
    """H = Q[Z/2] as a vertex bialgebra acting by the sign action on U = Z2,
    with the diagonal (group-like) coaction on V = Z2."""
    from .smash import CoalgebraData, ComoduleAlgebraData, ModuleAlgebraData, SmashDatum

    h = make_z2()
    u = make_z2()
    v = make_z2()
    hs, us, vs = h.space, u.space, v.space

    delta = SeriesMap((hs,), (hs, hs), {
        ("one",): _const_vec((hs, hs), {("one", "one"): 1}),
        ("g",): _const_vec((hs, hs), {("g", "g"): 1}),
    })
    scalar = ()
    eps = SeriesMap((hs,), scalar, {
        ("one",): _const_vec(scalar, {(): 1}),
        ("g",): _const_vec(scalar, {(): 1}),
    })
    coalg = CoalgebraData(h, delta, eps)

    action = SeriesMap((hs, us), (us,), {
        (hl, ul): _const_vec(
            (us,), {(ul,): (-1) ** (Z2_GRADING[ul] % 2) if hl == "g" else 1}
        )
        for (hl, ul) in basis_tuples((hs, us))
    })
    act = ModuleAlgebraData(coalg, u, action)

    coaction = SeriesMap((vs,), (hs, vs), {
        ("one",): _const_vec((hs, vs), {("one", "one"): 1}),
        ("g",): _const_vec((hs, vs), {("g", "g"): 1}),
    })
    coact = ComoduleAlgebraData(coalg, v, coaction)
    return SmashDatum("z2-sign", coalg, act, coact)


def trivial_smash_datum():
    """Trivial action and coaction on Z2; the induced twist is the flip."""
    from .smash import CoalgebraData, ComoduleAlgebraData, ModuleAlgebraData, SmashDatum

    base = z2_smash_datum()
    h, u, v = base.coalgebra.algebra, base.action.module, base.coaction.comodule
    hs, us, vs = h.space, u.space, v.space
    action = SeriesMap((hs, us), (us,), {
        (hl, ul): _const_vec((us,), {(ul,): 1})
        for (hl, ul) in basis_tuples((hs, us))
    })
    act = ModuleAlgebraData(base.coalgebra, u, action)
    coaction = SeriesMap((vs,), (hs, vs), {
        (vl,): _const_vec((hs, vs), {("one", vl): 1}) for vl in vs.basis
    })
    coact = ComoduleAlgebraData(base.coalgebra, v, coaction)
    return SmashDatum("z2-trivial", base.coalgebra, act, coact)


# ---------------------------------------------------------------------------
# named lookup used by the command-line driver, whose names are known
# without building the tables

ALGEBRA_NAMES = ("E1", "E1n", "E2", "Z2")
SMASH_NAMES = ("z2-sign", "z2-trivial")


def builtin_algebras(rng=DEFAULT_RANGE):
    return {
        "E1": make_e1(),
        "E1n": make_e1n(),
        "E2": make_e2(rng),
        "Z2": make_z2(),
    }


def builtin_twists(rng=DEFAULT_RANGE, algs=None):
    algs = builtin_algebras(rng) if algs is None else algs
    out = {}
    for name, a in algs.items():
        from .twist import flip_twist

        out[f"flip:{name},{name}"] = flip_twist(a, a)
    out["flip:E1,E2"] = flip_twist(algs["E1"], algs["E2"])
    out["sign:Z2,Z2"] = sign_twist_z2()
    return out


def builtin_smaps(rng=DEFAULT_RANGE):
    return {
        "id:E1": identity_smap(make_e1()),
        "id:E2": identity_smap(make_e2(rng)),
        "id:Z2": identity_smap(make_z2()),
        "sign:E1": sign_smap_e1(),
    }


def builtin_smash():
    return {
        "z2-sign": z2_smash_datum(),
        "z2-trivial": trivial_smash_datum(),
    }


REGISTRY_PRODUCTS = (
    ("E1", "E1", "flip:E1,E1"),
    ("E2", "E2", "flip:E2,E2"),
    ("Z2", "Z2", "flip:Z2,Z2"),
    ("Z2", "Z2", "sign:Z2,Z2"),
)
