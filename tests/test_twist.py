"""Twisting operators: axioms, inversion, reversal."""

import pytest

from nvaw.linalg import SeriesMap, SeriesVector, basis_tuples
from nvaw.nva import window_equal_vec
from nvaw.registry import (
    builtin_twists, make_e1, make_e2, make_z2, sign_twist_z2,
)
from nvaw.series import Q, Series, DEFAULT_RANGE
from nvaw.twist import (
    NotInvertibleError, TwistOp, check_twisting_axioms, flip_twist,
    invert_twisting, reversed_twisting, with_inverse,
)


@pytest.mark.parametrize("name", sorted(builtin_twists()))
def test_registry_twists_pass_axioms(name):
    rep = check_twisting_axioms(builtin_twists()[name])
    assert rep.ok and rep.exact, rep.summary()


def test_sign_twist_table():
    t = sign_twist_z2()
    col = t.table.column(("g", "g"))
    assert col.get(("g", "g")).coeff(()) == -1


def test_invert_flip_and_sign():
    for t in (flip_twist(make_e1(), make_e2()), sign_twist_z2()):
        inv = invert_twisting(t)
        ident = SeriesMap.identity(t.table.codomain)
        for key in basis_tuples(t.table.codomain):
            got = t.table.apply(inv.column(key))
            assert window_equal_vec(got, ident.column(key))
        # both tables are x-free: the inverse is exact data, with no window
        assert all(s.exact and s.window is None
                   for col in inv.columns.values()
                   for s in col.entries.values())


def test_invert_with_x_dependence():
    # R(x)(v⊗u) = u⊗v + x·(vacuum legs kept consistent) is not a valid
    # twisting operator, but inversion is purely linear-algebraic.
    z2 = make_z2()
    t = flip_twist(z2, z2)
    window = DEFAULT_RANGE
    cols = dict(t.table.columns)
    bump = Series(("x",), {(1,): Q(1)}, window)
    cols[("g", "g")] = SeriesVector(
        t.table.codomain,
        {("g", "g"): Series.const(1), ("one", "one"): bump})
    t2 = TwistOp("bumped", z2, z2, SeriesMap(t.table.domain,
                                             t.table.codomain, cols))
    inv = invert_twisting(t2)
    ident = SeriesMap.identity(t2.table.codomain)
    for key in basis_tuples(t2.table.codomain):
        got = t2.table.apply(inv.column(key))
        assert window_equal_vec(got, ident.column(key))


def test_inverse_is_exact_once_the_recursion_ends_inside_the_window():
    z2 = make_z2()
    flip = flip_twist(z2, z2).table

    def twist(gg):
        cols = dict(flip.columns)
        cols[("g", "g")] = SeriesVector(flip.codomain, gg)
        return TwistOp("t", z2, z2, SeriesMap(flip.domain, flip.codomain, cols))

    def exact(t):
        return all(s.exact for col in invert_twisting(t).columns.values()
                   for s in col.entries.values())

    def bumped(window):
        x = Series(("x",), {(1,): Q(1)}, window)
        return twist({("g", "g"): Series.const(1), ("one", "one"): x})

    # R^-1 = flip - x·E has degree 1: both composites are exactly the
    # identity, with no term past x^1, so a window that ends at x^1 will do
    assert exact(bumped((-2, 2))) and exact(bumped((-1, 1)))
    # 1/(1+x) never ends
    x = Series(("x",), {(1,): Q(1)}, DEFAULT_RANGE)
    assert not exact(twist({("g", "g"): x + 1}))
    # without a window the recursion runs until a polynomial inverse has
    # surely ended
    assert exact(bumped(None))
    assert not exact(twist({("g", "g"): Series.monomial("x", 1) + 1}))


def test_invert_singular_raises():
    z2 = make_z2()
    t = flip_twist(z2, z2)
    cols = dict(t.table.columns)
    cols[("g", "g")] = cols[("one", "one")]  # collapse two columns
    bad = TwistOp("bad", z2, z2,
                  SeriesMap(t.table.domain, t.table.codomain, cols))
    with pytest.raises(NotInvertibleError):
        invert_twisting(bad)


def test_reversed_twisting_passes_axioms():
    t = with_inverse(sign_twist_z2())
    rev = reversed_twisting(t)
    rep = check_twisting_axioms(rev)
    assert rep.ok, rep.summary()
    assert rev.first.space == t.second.space


def test_broken_vacuum_normalization_fails():
    z2 = make_z2()
    t = flip_twist(z2, z2)
    cols = dict(t.table.columns)
    cols[("g", "one")] = cols[("g", "one")].scale(Q(2))
    bad = TwistOp("bad-vac", z2, z2,
                  SeriesMap(t.table.domain, t.table.codomain, cols))
    rep = check_twisting_axioms(bad)
    assert not rep.ok


def test_inverse_verification_sees_a_column_missing_from_the_inverse(
        monkeypatch):
    import nvaw.twist as twist_mod

    real = twist_mod.matrix_inverse

    def last_column_dropped(rows):
        return [row[:-1] + [Q(0)] for row in real(rows)]

    monkeypatch.setattr(twist_mod, "matrix_inverse", last_column_dropped)
    with pytest.raises(NotInvertibleError):
        invert_twisting(sign_twist_z2())


def apply_chain_hexagons(t):
    """Both hexagons' sides as check_twisting_axioms built them before
    they were composed maps: per basis tuple, a chain of applies.  Yields
    (name, key, lhs, rhs)."""
    U, V = t.first, t.second
    r_x1, yu_x2, yv_x2 = t.table.at("x1"), U.y.at("x2"), V.y.at("x2")
    r_sum, r_diff = t.table.at("x1", "x2"), t.table.at("x1", "-x2")
    spaces = (V.space, U.space, U.space)
    for key in basis_tuples(spaces):
        vec = SeriesVector.basis(spaces, key)
        lhs = r_x1.apply(yu_x2.apply(vec, (1, 2)), (0, 1))
        rhs = yu_x2.apply(r_x1.apply(r_sum.apply(vec, (0, 1)), (1, 2)), (0, 1))
        yield f"hexagon-right{key}", key, lhs, rhs
    spaces = (V.space, V.space, U.space)
    for key in basis_tuples(spaces):
        vec = SeriesVector.basis(spaces, key)
        lhs = r_x1.apply(yv_x2.apply(vec, (0, 1)), (0, 1))
        rhs = yv_x2.apply(r_diff.apply(r_x1.apply(vec, (1, 2)), (0, 1)), (1, 2))
        yield f"hexagon-left{key}", key, lhs, rhs


@pytest.mark.parametrize("rng", [DEFAULT_RANGE, (0, 0), (-1, 1)])
def test_composed_hexagon_sides_equal_the_apply_chains(rng, map_comparisons):
    zero = total = 0
    for name, t in sorted(builtin_twists(rng).items()):
        map_comparisons.clear()
        items = [i for i in check_twisting_axioms(t).items
                 if i.name.startswith("hexagon")]
        want = list(apply_chain_hexagons(t))
        zero += map_comparisons.match(items, want)
        total += len(want)
    assert 0 < zero < total


def mutated(t, key, fn):
    """t with the column at key replaced by fn(column)."""
    cols = dict(t.table.columns)
    cols[key] = fn(cols[key])
    return TwistOp(f"mutated({t.name})", t.first, t.second,
                   SeriesMap(t.table.domain, t.table.codomain, cols))


def hexagon_failures(t):
    rep = check_twisting_axioms(t)
    return [(i.name, i.detail) for i in rep.failures()
            if i.name.startswith("hexagon")]


def test_a_mutated_twist_fails_a_hexagon_with_a_witness():
    # R(s⊗s) = 2·s⊗s on flip:E2,E2.  At (s, s, one) the left side of
    # hexagon-right is R(s ⊗ Y(s,x2)1) = R(s⊗s) + x2·R(s⊗t), the right side
    # (Y(x2)⊗1) R23 R12 (s⊗s⊗1) = 2·Y(s,x2)1 ⊗ s = 2·s⊗s + 2x2·t⊗s: the
    # s⊗s terms agree (both doubled), the x2·t⊗s terms (1 and 2) do not
    flip = builtin_twists()["flip:E2,E2"]
    bad = mutated(flip, ("s", "s"), lambda col: col.scale(Q(2)))
    failures = hexagon_failures(bad)
    assert ("hexagon-right('s', 's', 'one')",
            "witness (('t', 's'), (1,))") in failures
    # R(g⊗g) = -2·g⊗g instead of -g⊗g on sign:Z2,Z2.  At (g, g, g) the left
    # side of hexagon-right is R(g ⊗ g·g) = R(g⊗1) = 1⊗g, the right side
    # Y12 R23 R12 (g⊗g⊗g) = (-2)²·(g·g)⊗g = 4·1⊗g
    sign = builtin_twists()["sign:Z2,Z2"]
    bad = mutated(sign, ("g", "g"), lambda col: col.scale(Q(2)))
    failures = hexagon_failures(bad)
    assert [f for f in failures if f[0] == "hexagon-right('g', 'g', 'g')"] \
        and all(detail.startswith("witness ") for _, detail in failures)
