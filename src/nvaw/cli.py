"""Command-line driver.

Subcommands:

    nvaw list
    nvaw check <input> --suite S [--window=LO..HI] [--kmax K]
                       [--twist NAME] [--smap NAME] [--json PATH]
    nvaw product <U> <V> --twist NAME -o FILE
    nvaw smash <action-input> <coaction-input> -o FILE
    nvaw extract-twist <input> --u LABELS --v LABELS [--json PATH]
    nvaw extract-smap <input> [--json PATH]

Inputs are registry names (see `nvaw list`) or paths to workbench files.
The window bounds every exponent of every table, the registry's included:
it is set on the tables as they are built, and every check reads it from
them.  Write it with `=`, since argparse reads `--window -3..3` as two
options.
It must hold exponent 0 (LO <= 0 <= HI): a window without it clips the
constant terms of every table, and the vacuum checks would fail.
Exit status: 0 all checks pass, 1 verdict or precondition failures,
2 usage or parse errors.
"""

import argparse
import json
import os
import sys

from .nva import (
    CheckReport, DEFAULT_KMAX, adjoint_module, check_D_bracket, check_module,
    check_vacuum, check_weak_associativity,
)
from .series import DEFAULT_RANGE
from . import registry


class UsageError(ValueError):
    pass


def _parse_window(text):
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad window {text!r}, expected 'LO..HI'")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty window {text!r}: {lo} > {hi}")
    if not lo <= 0 <= hi:
        raise argparse.ArgumentTypeError(
            f"window {text!r} does not hold exponent 0")
    return (lo, hi)


def _parse_kmax(text):
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"bad kmax {text!r}, expected an integer >= 0")
    return int(text)


def _split_labels(text):
    from .fileformat import _split_top

    return [t.strip() for t in _split_top(text, ",") if t.strip()]


class Inputs:
    """Resolves names against a parsed file (if any) and the registry."""

    def __init__(self, path_or_name, rng, tables=None):
        self.rng = rng
        self.tables = {} if tables is None else tables  # registry, by builder
        self.file = None
        self.name = None
        if "/" in path_or_name or path_or_name.endswith(
                (".nva", ".wb", ".txt")):
            self.file = self._read(path_or_name)
        elif path_or_name in registry.ALGEBRA_NAMES + registry.SMASH_NAMES:
            self.name = path_or_name
        else:
            try:
                self.file = self._read(path_or_name)
            except FileNotFoundError:
                raise UsageError(
                    f"{path_or_name!r} is neither a registry name nor a file")

    def _read(self, path):
        from .fileformat import parse_file

        with open(path, encoding="utf-8") as fh:
            return parse_file(fh.read(), self.rng)

    def _registry(self, builder, *args):
        """registry.<builder>(*args), built once per shared tables."""
        if builder not in self.tables:
            self.tables[builder] = getattr(registry, builder)(*args)
        return self.tables[builder]

    def algebra(self):
        if self.name in registry.SMASH_NAMES:
            raise UsageError(f"{self.name!r} is a registry smash datum, "
                             f"expected an algebra")
        if self.name is not None:
            return self._registry("builtin_algebras", self.rng)[self.name]
        algs = self.file.algebras()
        if len(algs) != 1:
            raise UsageError(
                f"input declares {len(algs)} algebras, expected exactly one")
        return next(iter(algs.values()))

    def twist(self, name):
        if self.file is not None and ("twist", name) in self.file.blocks:
            return self.file.twist(name)
        table = self._registry("builtin_twists", self.rng,
                               self._registry("builtin_algebras", self.rng))
        if name in table:
            return table[name]
        raise UsageError(f"unknown twist {name!r} "
                         f"(file blocks and registry searched)")

    def smap(self, name, algebra=None):
        if self.file is not None and ("smap", name) in self.file.blocks:
            return self.file.smap(name)
        if name == "identity" and algebra is not None:
            return registry.identity_smap(algebra)
        table = self._registry("builtin_smaps", self.rng)
        if name in table:
            return table[name]
        raise UsageError(f"unknown S-map {name!r}")

    def smash_halves(self):
        """(ModuleAlgebraData, ComoduleAlgebraData) from a registry datum or
        a file holding one action and one coaction block."""
        if self.name in registry.ALGEBRA_NAMES:
            raise UsageError(f"{self.name!r} is a registry algebra, "
                             f"expected a smash datum")
        if self.name is not None:
            d = self._registry("builtin_smash")[self.name]
            return d.action, d.coaction
        actions = [n for (k, n) in self.file.blocks if k == "action"]
        coactions = [n for (k, n) in self.file.blocks if k == "coaction"]
        act = self.file.action(actions[0]) if actions else None
        coact = self.file.coaction(coactions[0]) if coactions else None
        return act, coact


# ---------------------------------------------------------------------------
# suites


def _suite_nva(alg, kmax):
    rep = CheckReport(f"{alg.name}: nonlocal-vertex-algebra suite")
    rep.extend(check_vacuum(alg))
    rep.extend(check_weak_associativity(alg, kmax))
    rep.extend(check_D_bracket(alg))
    return rep


def _suite_twist(inputs, args):
    if not args.twist:
        raise UsageError("--suite twist requires --twist NAME")
    t = inputs.twist(args.twist)
    from .twist import check_twisting_axioms

    return check_twisting_axioms(t)


def _suite_qva(inputs, alg, args, kmax):
    from .quantum import (
        check_S_locality, check_S_skew, check_qva_axioms, check_qyb_unitarity,
    )

    if not args.smap:
        raise UsageError("--suite qva requires --smap NAME")
    s = inputs.smap(args.smap, alg)
    if s.algebra.space != alg.space:
        raise UsageError(f"S-map {s.name} is for {s.algebra.name}")
    rep = CheckReport(f"{alg.name}/{s.name}: quantum suite")
    rep.extend(check_qyb_unitarity(s))
    rep.extend(check_S_locality(alg, s, kmax))
    rep.extend(check_S_skew(alg, s))
    rep.extend(check_qva_axioms(alg, s))
    return rep


def _suite_product_props(inputs, args, kmax):
    from .products import (
        build_twisted_tensor, check_embeddings, check_invertible_relations,
        check_product_nva, check_product_properties,
    )
    from .twist import NotInvertibleError, with_inverse

    if not args.twist:
        raise UsageError("--suite product-props requires --twist NAME")
    t = inputs.twist(args.twist)
    try:  # the product carries the inverse its invertible relations read
        t = with_inverse(t)
    except NotInvertibleError:
        pass
    p = build_twisted_tensor(t.first, t.second, t)
    rep = CheckReport(f"{p.nva.name}: product suite")
    rep.extend(check_product_nva(p, kmax))
    rep.extend(check_embeddings(p))
    rep.extend(check_product_properties(p))
    if t.inverse is not None:
        rep.extend(check_invertible_relations(p, kmax))
    return rep


def _suite_smash(inputs, kmax):
    from .smash import SmashDatum, check_smash_datum

    act, coact = inputs.smash_halves()
    if act is None or coact is None:
        raise UsageError("--suite smash needs an action and a coaction")
    datum = SmashDatum(inputs.name or "file", act.bialgebra, act, coact)
    return check_smash_datum(datum, kmax)


def _suite_module(inputs, alg, kmax):
    rep = CheckReport(f"{alg.name}: module suite")
    mods = []
    if inputs.file is not None:
        mods = [inputs.file.module(n)
                for (k, n) in inputs.file.blocks if k == "module"]
    if not mods:
        mods = [adjoint_module(alg)]
    for mod in mods:
        rep.extend(check_module(mod, kmax))
    return rep


# ---------------------------------------------------------------------------
# commands


def cmd_check(args):
    kmax = args.kmax
    inputs = Inputs(args.input, args.window)
    # only the suites that read the input's algebra build it
    if args.suite == "smash":
        rep = _suite_smash(inputs, kmax)
    elif args.suite == "twist":
        rep = _suite_twist(inputs, args)
    elif args.suite == "product-props":
        rep = _suite_product_props(inputs, args, kmax)
    else:
        alg = inputs.algebra()
        if args.suite == "nva":
            rep = _suite_nva(alg, kmax)
        elif args.suite == "qva":
            rep = _suite_qva(inputs, alg, args, kmax)
        elif args.suite == "module":
            rep = _suite_module(inputs, alg, kmax)
        else:
            raise UsageError(f"unknown suite {args.suite!r}")
    _report(rep, args, args.window, suite=args.suite)
    return 0 if rep.ok else 1


def cmd_product(args):
    from .products import build_twisted_tensor, check_product_nva

    inputs_u = Inputs(args.first, args.window)
    inputs_v = Inputs(args.second, args.window, inputs_u.tables)
    twist = inputs_u.twist(args.twist)
    first, second = inputs_u.algebra(), inputs_v.algebra()
    if twist.first.space != first.space or twist.second.space != second.space:
        raise UsageError(
            f"twist {twist.name} is for ({twist.first.name},{twist.second.name})")
    p = build_twisted_tensor(first, second, twist)
    rep = check_product_nva(p, args.kmax)
    _report(rep, args, args.window, suite="product")
    if args.output and rep.ok:
        from .fileformat import emit_nva

        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(emit_nva(p.nva))
    return 0 if rep.ok else 1


def cmd_smash(args):
    from .products import PreconditionError, check_product_nva
    from .smash import build_smash, check_comodule_algebra, check_module_algebra

    action = Inputs(args.action, args.window)
    act, _ = action.smash_halves()
    _, coact = Inputs(args.coaction, args.window, action.tables).smash_halves()
    if act is None or coact is None:
        raise UsageError("need one action block and one coaction block")
    p = build_smash(act, coact)
    for label, pre in (
            ("module-algebra", check_module_algebra(act, args.kmax)),
            ("comodule-algebra", check_comodule_algebra(coact))):
        if not pre.ok:
            raise PreconditionError(f"{label} axioms", pre.failures()[0].name)
    rep = check_product_nva(p, args.kmax)
    _report(rep, args, args.window, suite="smash")
    if args.output and rep.ok:
        from .fileformat import emit_nva

        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(emit_nva(p.nva))
    return 0 if rep.ok else 1


def cmd_extract_twist(args):
    from .products import extract_twisting
    from .linalg import UniqueSolution

    host = Inputs(args.input, args.window).algebra()
    res = extract_twisting(host, _split_labels(args.u), _split_labels(args.v))
    rep = CheckReport(f"{host.name}: twisting-operator extraction")
    from .nva import Outcome

    rep.add("linear solve", Outcome.EXACT_PASS
            if isinstance(res.solve, UniqueSolution) else Outcome.FAIL,
            type(res.solve).__name__)
    for sub in (res.axioms, res.theta, res.z2):
        if sub is not None:
            rep.extend(sub)
    _report(rep, args, args.window, suite="extract-twist")
    if res.twist is not None and args.output:
        from .fileformat import emit_twist

        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(emit_twist(res.twist))
    return 0 if res.ok else 1


def cmd_extract_smap(args):
    from .quantum import extract_S
    from .linalg import UniqueSolution
    from .nva import Outcome

    alg = Inputs(args.input, args.window).algebra()
    res = extract_S(alg)
    rep = CheckReport(f"{alg.name}: S-map extraction")
    rep.add("columnwise solve", Outcome.EXACT_PASS
            if isinstance(res.solve, UniqueSolution) else Outcome.FAIL,
            type(res.solve).__name__)
    for sub in (res.axioms, res.d_relation, res.z2):
        if sub is not None:
            rep.extend(sub)
    _report(rep, args, args.window, suite="extract-smap")
    if res.smap is not None and args.output:
        from .fileformat import emit_smap

        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(emit_smap(res.smap))
    return 0 if res.ok else 1


def cmd_list(args):
    print("algebras:  " + " ".join(sorted(registry.builtin_algebras())))
    print("twists:    " + " ".join(sorted(registry.builtin_twists())))
    print("smaps:     " + " ".join(sorted(registry.builtin_smaps())) +
          "  (plus 'identity' for any algebra)")
    print("smash:     " + " ".join(sorted(registry.builtin_smash())))
    return 0


def _report(rep, args, rng, suite):
    path = getattr(args, "json", None)
    if path:  # the runs' items are built once, for summary and payload
        rep._entries = list(rep.items)
    print(rep.summary())
    if path:
        payload = [
            {
                "suite": suite,
                "identity": item.name,
                "verdict": item.outcome.name,
                "detail": item.detail,
                "window": list(rng),
            }
            for item in rep.items
        ]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, indent=2))


# ---------------------------------------------------------------------------


def build_parser():
    ap = argparse.ArgumentParser(
        prog="nvaw",
        description="exact checks for nonlocal vertex algebras, twisted "
                    "tensor products, S-maps and smash products")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, kmax=True):
        p.add_argument("--window", type=_parse_window, metavar="LO..HI",
                       default=f"{DEFAULT_RANGE[0]}..{DEFAULT_RANGE[1]}",
                       help="truncation window of every table, written "
                            "--window=LO..HI with LO <= 0 <= HI "
                            "(default %(default)s)")
        if kmax:
            p.add_argument("--kmax", type=_parse_kmax, default=DEFAULT_KMAX,
                           help="largest clearing exponent k searched, "
                                ">= 0 (default %(default)s)")
        p.add_argument("--json", default=None)

    p = sub.add_parser("check", help="run a check suite on an input")
    p.add_argument("input")
    p.add_argument("--suite", required=True,
                   choices=["nva", "twist", "qva", "smash", "product-props",
                            "module"])
    p.add_argument("--twist", default=None)
    p.add_argument("--smap", default=None)
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("product", help="build a twisted tensor product")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--twist", required=True)
    p.add_argument("-o", "--output", default=None)
    common(p)
    p.set_defaults(fn=cmd_product)

    p = sub.add_parser("smash", help="build a smash product")
    p.add_argument("action")
    p.add_argument("coaction")
    p.add_argument("-o", "--output", default=None)
    common(p)
    p.set_defaults(fn=cmd_smash)

    p = sub.add_parser("extract-twist",
                       help="solve for the twisting operator of a product")
    p.add_argument("input")
    p.add_argument("--u", required=True, help="comma-joined factor labels")
    p.add_argument("--v", required=True, help="comma-joined factor labels")
    p.add_argument("-o", "--output", default=None)
    common(p, kmax=False)
    p.set_defaults(fn=cmd_extract_twist)

    p = sub.add_parser("extract-smap", help="solve for the S-map")
    p.add_argument("input")
    p.add_argument("-o", "--output", default=None)
    common(p, kmax=False)
    p.set_defaults(fn=cmd_extract_smap)

    p = sub.add_parser("list", help="list registry instances")
    p.set_defaults(fn=cmd_list)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        # an output path is refused before any work
        for path in (getattr(args, "output", None), getattr(args, "json", None)):
            if path and (os.path.isdir(path) or not os.path.isdir(
                    os.path.dirname(path) or ".")):
                raise UsageError(f"cannot write {path}: a directory, or in none")
        return args.fn(args)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # products and fileformat, with PreconditionError and ParseError,
        # are imported only by the commands that build a product or read
        # or write a file
        from .products import PreconditionError

        if isinstance(exc, PreconditionError):
            print(f"precondition failed: {exc}", file=sys.stderr)
            return 1
        from .fileformat import ParseError

        if not isinstance(exc, ParseError):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
