"""Text format: parsing, emission, round trips, and positioned errors."""

from fractions import Fraction

import pytest

from nvaw.fileformat import (
    ParseError, emit_coalg, emit_nva, emit_smap, emit_twist, parse_file,
)
from nvaw.nva import (
    Nva, check_vacuum, check_weak_associativity, window_equal_vec,
)
from nvaw.products import build_twisted_tensor
from nvaw.quantum import SMap
from nvaw.registry import (
    REGISTRY_PRODUCTS, builtin_algebras, builtin_smaps, builtin_twists,
    make_z2, sign_smap_e1, sign_twist_z2, z2_smash_datum,
)
from nvaw.series import _made
from nvaw.smash import build_smash
from nvaw.twist import TwistOp


EXAMPLE = """\
space V basis one s t
vacuum V one
y V one one -> (one):1
y V one s -> (s):1
y V one t -> (t):1
y V s one -> (s):1 ; (t):1@(1)
y V s s -> (t):1
"""


def test_parse_basic_algebra():
    wf = parse_file(EXAMPLE)
    a = wf.algebra("V")
    assert a.vacuum == "one"
    col = a.vertex("s", "one")
    assert col.get(("s",)).coeff((0,)) == 1
    assert col.get(("t",)).coeff((1,)) == 1
    assert col.get(("t",)).coeff((0,)) == 0


@pytest.mark.parametrize("name", sorted(builtin_algebras()))
def test_algebra_round_trip(name):
    a = builtin_algebras()[name]
    text = emit_nva(a)
    b = parse_file(text).algebra(a.space.name)
    assert b.space.basis == a.space.basis
    # the parsed Space equals the registry's, hash included
    assert b.space == a.space and hash(b.space) == hash(a.space)
    assert b.vacuum == a.vacuum
    for key, col in a.y.columns.items():
        assert window_equal_vec(col, b.y.column(key))
    for rep in (check_vacuum(b), check_weak_associativity(b)):
        assert rep.ok, rep.summary()


def test_twist_round_trip():
    t = sign_twist_z2()
    text = emit_twist(t)
    wf = parse_file(text)
    back = wf.twist(t.name)
    for key, col in t.table.columns.items():
        assert window_equal_vec(col, back.table.column(key))


def test_smap_round_trip():
    s = sign_smap_e1()
    text = emit_smap(s)
    back = parse_file(text).smap(s.name)
    for key, col in s.table.columns.items():
        assert window_equal_vec(col, back.table.column(key))


def test_product_with_pair_labels_round_trips():
    # product basis labels like "(g,one)" contain parens and commas and
    # must survive emission and re-parsing
    z2 = make_z2()
    p = build_twisted_tensor(z2, z2, sign_twist_z2())
    text = emit_nva(p.nva)
    back = parse_file(text).algebra(p.space.name)
    assert back.space.basis == p.space.basis
    for key, col in p.nva.y.columns.items():
        assert window_equal_vec(col, back.y.column(key))


def test_smash_output_round_trips():
    # smash space names contain '#', which must not read as a comment
    d = z2_smash_datum()
    p = build_smash(d.action, d.coaction)
    text = emit_nva(p.nva)
    back = parse_file(text).algebra(p.nva.space.name)
    for key, col in p.nva.y.columns.items():
        assert window_equal_vec(col, back.y.column(key))


def test_coalgebra_round_trip():
    d = z2_smash_datum()
    text = emit_coalg(d.coalgebra, "H")
    back = parse_file(text).coalg("H")
    for key, col in d.coalgebra.coproduct.columns.items():
        assert window_equal_vec(col, back.coproduct.column(key))
    for key, col in d.coalgebra.counit.columns.items():
        assert window_equal_vec(col, back.counit.column(key))


def test_comments_and_blank_lines_ignored():
    text = "# header comment\n\n" + EXAMPLE.replace(
        "vacuum V one", "vacuum V one   # the unit")
    a = parse_file(text).algebra("V")
    assert a.vacuum == "one"


@pytest.mark.parametrize("text,fragment", [
    ("space V basis a a\n", "distinct basis labels"),
    ("vacuum V a\n", "declared space"),
    ("space V basis a\nvacuum V b\n", "basis label"),
    ("space V basis a\ny V a a (a):1\n", "->"),
    ("space V basis a\nfrobnicate V\n", "keyword"),
    ("space V basis a\nspace V basis b\n", "fresh space name"),
])
def test_positioned_parse_errors(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_file(text)
    assert fragment in exc.value.expected
    assert exc.value.line >= 1 and exc.value.col >= 1


@pytest.mark.parametrize("body", ["(a):", "(zzz):1", "(a)1", "(a):1/0"])
def test_bad_series_body_raises_at_resolution(body):
    # column bodies are parsed when the algebra is assembled
    text = f"space V basis a\nvacuum V a\ny V a a -> {body}\n"
    with pytest.raises((ParseError, ZeroDivisionError)) as exc:
        parse_file(text).algebra("V")
    if isinstance(exc.value, ParseError):
        assert exc.value.line == 3


def test_error_reports_offending_line_number():
    text = EXAMPLE + "y V s t -> (zzz):1\n"
    with pytest.raises(ParseError) as exc:
        parse_file(text).algebra("V")
    assert exc.value.line == len(EXAMPLE.splitlines()) + 1


# ---------------------------------------------------------------------------
# an integral coefficient is an int: the text is the one its Fraction gives


def as_fractions(table):
    """The table with every coefficient a Fraction, integral or not, as no
    kernel operation or constructor stores it."""
    return table.transform(lambda s: _made(
        s.variables, {ex: Fraction(c) for ex, c in s.coeffs.items()},
        s.window, s.exact))


def nva_as_fractions(a):
    return Nva(a.name, a.space, a.vacuum, as_fractions(a.y))


@pytest.mark.parametrize("rng", [(-8, 8), (0, 0)])
def test_printed_tables_are_those_of_their_fractions(rng):
    algs = builtin_algebras(rng)
    twists = builtin_twists(rng, algs)
    products = [build_twisted_tensor(algs[u], algs[v], twists[t]).nva
                for u, v, t in REGISTRY_PRODUCTS]
    ints = 0
    for a in list(algs.values()) + products:
        assert emit_nva(a) == emit_nva(nva_as_fractions(a))
        ints += sum(type(c) is int for col in a.y.columns.values()
                    for s in col.entries.values() for c in s.coeffs.values())
    for t in twists.values():
        same = TwistOp(t.name, nva_as_fractions(t.first),
                       nva_as_fractions(t.second), as_fractions(t.table))
        assert emit_twist(t) == emit_twist(same)
    for s in builtin_smaps(rng).values():
        same = SMap(s.name, nva_as_fractions(s.algebra), as_fractions(s.table))
        assert emit_smap(s) == emit_smap(same)
    assert ints > 0
