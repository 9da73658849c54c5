"""Twisting operators: axioms, inversion, reversal."""

import pytest

from nvaw.linalg import SeriesMap, SeriesVector, basis_tuples
from nvaw.nva import window_equal_vec
from nvaw.registry import (
    builtin_twists, make_e1, make_e2, make_z2, sign_twist_z2,
)
from nvaw.series import Q, Series, DEFAULT_RANGE, Window
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


def test_invert_with_x_dependence():
    # R(x)(v⊗u) = u⊗v + x·(vacuum legs kept consistent) is not a valid
    # twisting operator, but inversion is purely linear-algebraic.
    z2 = make_z2()
    t = flip_twist(z2, z2)
    window = Window.uniform(("x",), DEFAULT_RANGE)
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
