"""Text format: parsing, emission, round trips, and positioned errors."""

import functools
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nvaw.cli import main
from nvaw.fileformat import (
    ParseError, emit_coalg, emit_nva, emit_smap, emit_twist, parse_file,
)
from nvaw.nva import (
    Nva, check_vacuum, check_weak_associativity, window_equal_vec,
)
from nvaw.products import build_twisted_tensor
from nvaw.quantum import SMap
from nvaw.registry import (
    REGISTRY_PRODUCTS, builtin_algebras, builtin_smash, builtin_smaps,
    builtin_twists, make_z2, sign_smap_e1, sign_twist_z2, z2_smash_datum,
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


def resolve_all(text):
    """Parse text and resolve every algebra and every block it declares."""
    wf = parse_file(text)
    wf.algebras()
    for kind, name in wf.blocks:
        getattr(wf, kind)(name)


ONE_A = "space V basis one a\nvacuum V one\n"


@pytest.mark.parametrize("text,fragment", [
    ("space V basis a a\n", "distinct basis labels"),
    ("vacuum V a\n", "declared space"),
    ("space V basis a\nvacuum V b\n", "basis label"),
    ("space V basis a\ny V a a (a):1\n", "->"),
    ("space V basis a\nfrobnicate V\n", "keyword"),
    ("space V basis a\nspace V basis b\n", "fresh space name"),
    # a repeated declaration does not override the first
    (ONE_A + "y V a a -> (one):1\ny V a a -> (a):1\n",
     "one y line per pair (a a repeated)"),
    (ONE_A + "vacuum V a\n", "one vacuum per space ('V' repeated)"),
    (ONE_A + "twist T V V\nr a a -> (a,a):1\nr a a -> (a,a):-1\n",
     "one r line per label tuple (a a repeated)"),
    (ONE_A + "y V a a -> (a):1 ; (a):-1\n",
     "one item per target tuple (a repeated)"),
    # a header naming what the file does not hold fails at the header
    (ONE_A + "twist T V W\n", "declared space 'W'"),
    (ONE_A + "space W basis b\ntwist T V W\n",
     "vacuum declaration for space 'W'"),
    (ONE_A + "action act H V\n", "coalg block named 'H'"),
    # the key labels of every table line are labels of its domain spaces
    (ONE_A + "y V zz a -> (a):1\n", "basis label of V, got 'zz'"),
    (ONE_A + "twist T V V\nr a zz -> (a,a):1\n", "basis label of V, got 'zz'"),
    (ONE_A + "smap S V\ns zz a -> (a,a):1\n", "basis label of V, got 'zz'"),
    (ONE_A + "coalg H V\ndelta zz -> (a,a):1\n",
     "basis label of V, got 'zz'"),
    (ONE_A + "coalg H V\neps zz -> 1\n", "basis label of V, got 'zz'"),
    (ONE_A + "coalg H V\naction act H V\na zz a -> (a):1\n",
     "basis label of V, got 'zz'"),
    (ONE_A + "coalg H V\ncoaction co H V\nrho zz -> (one,a):1\n",
     "basis label of V, got 'zz'"),
    (ONE_A + "module M V V\nm a zz -> (a):1\n", "basis label of V, got 'zz'"),
])
def test_positioned_parse_errors(text, fragment):
    with pytest.raises(ParseError) as exc:
        resolve_all(text)
    assert fragment in exc.value.expected
    # each text fails at its last line
    assert exc.value.line == text.count("\n") and exc.value.col >= 1


@pytest.mark.parametrize("body", ["(a):", "(zzz):1", "(a)1", "(a):1/0",
                                  "(a):1/00@(1)"])
def test_bad_series_body_raises_at_resolution(body):
    # column bodies are parsed when the algebra is assembled; a zero
    # denominator is a bad term
    text = f"space V basis a\nvacuum V a\ny V a a -> {body}\n"
    with pytest.raises(ParseError) as exc:
        parse_file(text).algebra("V")
    assert exc.value.line == 3


@functools.lru_cache(maxsize=None)
def registry_files():
    """The emitted text of every registry algebra, twist, S-map and
    coalgebra, each with the suite that resolves its twist or S-map block
    (none for the others)."""
    return tuple(
        [(emit_nva(a), ()) for a in builtin_algebras().values()]
        + [(emit_twist(t), ("--suite", "product-props", "--twist", t.name))
           for t in builtin_twists().values()]
        + [(emit_smap(s), ("--suite", "qva", "--smap", s.name))
           for s in builtin_smaps().values()]
        + [(emit_coalg(d.coalgebra, "H"), ())
           for d in builtin_smash().values()])


HOSTILE = ("", "0", "-1", "1/0", "->", "#", "(", ")", ";", ":", "+", "@(1)",
           "1@(1,1)", "1@(99)", "1@(-99)", "space", "y", "vacuum", "twist",
           "r", "basis")


@st.composite
def mutated_registry_files(draw):
    """A registry file with one whitespace-separated token replaced: by a
    token of the file, by a hostile one, or by a token of the file with a
    hostile suffix.  Drawn with the suite of its block."""
    text, suite = draw(st.sampled_from(registry_files()))
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    toks = lines[i].split(" ")
    j = draw(st.integers(0, len(toks) - 1))
    own = st.sampled_from(sorted(set(text.split())))
    hostile = st.sampled_from(HOSTILE)
    toks[j] = draw(own | hostile | st.builds(
        lambda t, h: t + h, own, st.sampled_from(("/0", "@(1,1)", "(", ")",
                                                  ";", "#", ",", "/2"))))
    lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n", suite


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_registry_files())
# a twist line whose labels are not of the twist's spaces
@example((emit_twist(sign_twist_z2()) + "r zz zz -> (g,g):5\n",
          ("--suite", "product-props", "--twist", "sign(Z2,Z2)")))
def test_a_mutated_registry_file_exits_0_1_or_2(tmp_path, mutated):
    # a verdict, a failed check or a positioned error: never a traceback,
    # also where a suite resolves the file's twist or S-map block
    text, suite = mutated
    path = tmp_path / "mutated.nva"
    path.write_text(text, encoding="utf-8")
    assert main(["check", str(path), "--suite", "nva"]) in (0, 1, 2)
    if suite:
        assert main(["check", str(path), *suite]) in (0, 1, 2)


@pytest.mark.parametrize("text,line", [
    ("space V basis a\nvacuum V a\ny V a a -> (a):1/0\n", 3),
    (ONE_A + "y V a a -> (one):1\ny V a a -> (a):1\n", 4),
])
def test_a_bad_file_is_a_positioned_error_of_the_cli(
        tmp_path, capsys, text, line):
    path = tmp_path / "bad.nva"
    path.write_text(text, encoding="utf-8")
    assert main(["check", str(path), "--suite", "nva"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: line {line}, column 1: ")


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
