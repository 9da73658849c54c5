"""Nonlocal-vertex-algebra axioms on the built-in instances."""

import pytest

from nvaw.nva import (
    adjoint_module, check_D_bracket, check_module, check_vacuum,
    check_weak_associativity, compute_D, exp_xD, scalar_of, window_equal_vec,
)
from nvaw.linalg import SeriesVector, Space
from nvaw.registry import make_e1, make_e1n, make_e2, make_z2
from nvaw.series import Eq, Series, Window, window_equal

ALL = [make_e1, make_e1n, make_e2, make_z2]


@pytest.mark.parametrize("make", ALL)
def test_vacuum_axioms(make):
    rep = check_vacuum(make())
    assert rep.ok and rep.exact, rep.summary()


@pytest.mark.parametrize("make", ALL)
def test_weak_associativity(make):
    rep = check_weak_associativity(make())
    assert rep.ok and rep.exact, rep.summary()


@pytest.mark.parametrize("make", ALL)
def test_D_bracket(make):
    rep = check_D_bracket(make())
    assert rep.ok and rep.exact, rep.summary()


@pytest.mark.parametrize("make", ALL)
@pytest.mark.parametrize("form", ["substituted", "original"])
def test_adjoint_module(make, form):
    rep = check_module(adjoint_module(make()), form=form)
    assert rep.ok, rep.summary()


def test_D_operator_on_e2():
    e2 = make_e2()
    D = compute_D(e2)
    ds = D.apply(SeriesVector.basis((e2.space,), ("s",)))
    assert scalar_of(ds) == {("t",): 1}
    dt = D.apply(SeriesVector.basis((e2.space,), ("t",)))
    assert dt.is_zero()


def test_exp_xD_is_truncated_exponential():
    e2 = make_e2()
    col = exp_xD(e2).column(("s",))
    assert col.get(("s",)).coeff((0,)) == 1
    assert col.get(("t",)).coeff((1,)) == 1
    assert col.exact()


def test_creation_has_no_negative_powers():
    for make in ALL:
        a = make()
        for v in a.space.basis:
            col = a.vertex(v, a.vacuum)
            assert all(s.is_polynomial() for s in col.entries.values())


def test_window_equal_vec_sees_clipping_in_the_difference():
    # x^5 + 1 on the window -8..8 and 1 on -2..2 agree only on the common
    # window: the x^5 term is clipped out of the difference
    sp = Space("V", ("a", "b"))
    wide = Series(("x",), {(5,): 1, (0,): 1}, Window.uniform(("x",), (-8, 8)))
    narrow = Series(("x",), {(0,): 1}, Window.uniform(("x",), (-2, 2)))
    a = SeriesVector((sp,), {("a",): wide})
    b = SeriesVector((sp,), {("a",): narrow})
    assert window_equal(wide, narrow).kind is Eq.WINDOW
    assert window_equal_vec(a, b).kind is Eq.WINDOW
    assert window_equal_vec(b, a).kind is Eq.WINDOW
    assert window_equal_vec(a, a).kind is Eq.EXACT
    # the witness is the first unequal key and the smallest exponent of
    # the difference there, whichever side holds the key
    c = SeriesVector((sp,), {("a",): wide, ("b",): narrow})
    res = window_equal_vec(a, c)
    assert res.kind is Eq.UNEQUAL and res.witness == (("b",), (0,))
    assert window_equal_vec(c, a).witness == (("b",), (0,))
