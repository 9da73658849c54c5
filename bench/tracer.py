"""Spans around nvaw's public functions, installed from outside the package.

`Tracer.install()` replaces each function in TARGETS by a wrapper that
records one span per call.  It also rebinds every other reference to the
same function object: a module that ran `from .linalg import solve_linear`
holds its own binding, and a class may alias a method (`__radd__ =
__add__`).  `uninstall()` puts every original back.

A layer's self time is a span's duration minus the time covered by the
spans it encloses.  Spans of the hot, fine-grained functions (HOT) are only
aggregated; the others are kept in memory with their parent and written out
by `dump()` at the end of a run.
"""

import importlib
import json
import time

# (module, attribute or Class.attribute, span name)
TARGETS = (
    ("nvaw.series", "Series.__mul__", "series.mul"),
    ("nvaw.series", "Series.__add__", "series.add"),
    ("nvaw.series", "Series.substitute_sum", "series.substitute_sum"),
    ("nvaw.series", "Series.rename", "series.rename"),
    ("nvaw.linalg", "SeriesMap.apply", "linalg.apply"),
    ("nvaw.linalg", "SeriesMap.compose", "linalg.compose"),
    ("nvaw.linalg", "solve_linear", "linalg.solve_linear"),
    ("nvaw.linalg", "matrix_rank", "linalg.matrix_rank"),
    ("nvaw.linalg", "matrix_inverse", "linalg.matrix_inverse"),
    ("nvaw.nva", "check_weak_associativity", "nva.check_weak_associativity"),
    ("nvaw.nva", "check_D_bracket", "nva.check_D_bracket"),
    ("nvaw.nva", "window_equal_vec", "nva.window_equal_vec"),
    ("nvaw.twist", "check_twisting_axioms", "twist.check_twisting_axioms"),
    ("nvaw.twist", "invert_twisting", "twist.invert_twisting"),
    ("nvaw.products", "build_twisted_tensor", "products.build_twisted_tensor"),
    ("nvaw.products", "extract_twisting", "products.extract_twisting"),
    ("nvaw.products", "check_Z2_injectivity", "products.check_Z2_injectivity"),
    ("nvaw.quantum", "extract_S", "quantum.extract_S"),
    ("nvaw.quantum", "check_S_locality", "quantum.check_S_locality"),
    ("nvaw.smash", "check_smash_datum", "smash.check_smash_datum"),
    ("nvaw.smash", "build_smash", "smash.build_smash"),
    ("nvaw.fileformat", "parse_file", "fileformat.parse_file"),
    ("nvaw.fileformat", "emit_nva", "fileformat.emit_nva"),
    ("nvaw.registry", "builtin_algebras", "registry.builtin_algebras"),
    ("nvaw.cli", "main", "cli.main"),
)
LAYERS = ("series", "linalg", "nva", "twist", "products", "quantum", "smash",
          "fileformat", "registry", "cli")
HOT = frozenset({"series.mul", "series.add", "series.substitute_sum",
                 "series.rename", "linalg.apply", "nva.window_equal_vec"})


def _terms_out(args, kwargs, result):
    return {"series.terms_out": len(result.coeffs)}


def _unknowns(args, kwargs, result):
    unknowns = args[1] if len(args) > 1 else kwargs["unknowns"]
    return {"linalg.solve_linear.unknowns": len(unknowns)}


def _cells(args, kwargs, result):
    rows = args[0]
    return {"linalg.matrix_rank.cells": len(rows) * (len(rows[0]) if rows else 0)}


def _parsed_bytes(args, kwargs, result):
    return {"fileformat.parse_file.bytes": len(args[0].encode("utf-8"))}


# Extra counts taken at a boundary, from (args, kwargs, result).
COUNTS = {
    "series.mul": _terms_out,
    "series.add": _terms_out,
    "series.substitute_sum": _terms_out,
    "series.rename": _terms_out,
    "linalg.solve_linear": _unknowns,
    "linalg.matrix_rank": _cells,
    "fileformat.parse_file": _parsed_bytes,
}


def nvaw_modules():
    return [importlib.import_module(m) for m in sorted({t[0] for t in TARGETS})]


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0.0] for (_, _, name) in TARGETS}  # calls, self_s
        self.counts = {}
        self.covered_s = 0.0  # time inside outermost spans
        self.excluded_s = 0.0  # time inside spans spent outside nvaw
        self.spans = []  # [id, parent id, name, start, end] of non-HOT spans
        self._stack = []  # [child time, span id or None] per open span
        self._open_ids = []  # ids of open non-HOT spans
        self._saved = []  # (owner, attribute, original)

    # -- installation --------------------------------------------------------

    def install(self):
        modules = nvaw_modules()
        for modname, attr, name in TARGETS:
            owner = importlib.import_module(modname)
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            # every alias of the original: same module or class, and the
            # names other nvaw modules imported
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._saved.append((holder, key, original))
                        setattr(holder, key, wrapper)
        return self

    def uninstall(self):
        for holder, key, original in reversed(self._saved):
            setattr(holder, key, original)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name, fn):
        stat = self.stats[name]
        stack = self._stack
        open_ids = self._open_ids
        spans = self.spans
        count = COUNTS.get(name)
        keep = name not in HOT
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0, None]
            if keep:
                frame[1] = len(spans)
                spans.append([frame[1], open_ids[-1] if open_ids else None,
                              name, 0.0, 0.0])
                open_ids.append(frame[1])
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if keep:
                    open_ids.pop()
                    spans[frame[1]][3:] = [start, end]
                took = end - start
                stat[0] += 1
                stat[1] += took - frame[0]
                if stack:
                    stack[-1][0] += took
                else:
                    self.covered_s += took
            if count is not None:
                for key, n in count(args, kwargs, result).items():
                    self.counts[key] = self.counts.get(key, 0) + n
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def exclude(self, took):
        """Leave `took` seconds just spent outside nvaw (a speed-probe run
        from a signal handler) out of the open spans' self time."""
        if self._stack:
            self._stack[-1][0] += took
            self.excluded_s += took

    # -- results -------------------------------------------------------------

    def summary(self):
        """Aggregates as plain data: per-function calls and self time, the
        extra counts, and the time inside outermost spans."""
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "counts": dict(self.counts),
                "covered_s": self.covered_s - self.excluded_s}

    def merge(self, summary):
        """Add the aggregates of another tracer (e.g. a child process)."""
        for k, (calls, self_s) in summary["stats"].items():
            self.stats[k][0] += calls
            self.stats[k][1] += self_s
        for k, n in summary["counts"].items():
            self.counts[k] = self.counts.get(k, 0) + n
        self.covered_s += summary["covered_s"]

    def dump(self, path, extra=None):
        record = dict(self.summary(), spans=self.spans, **(extra or {}))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


# Extra counts reported per layer, with their units.
COUNT_UNITS = {"series.terms_out": "count", "linalg.solve_linear.unknowns": "count",
               "linalg.matrix_rank.cells": "count",
               "fileformat.parse_file.bytes": "bytes"}


def layer_metrics(stats, counts):
    """Per-layer metrics {name: (value, unit)} from aggregates: calls and
    self time per wrapped function, self time per layer, extra counts."""
    out = {}
    for name, (calls, self_s) in sorted(stats.items()):
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (
            sum(s for n, (_, s) in stats.items() if n.split(".")[0] == layer), "s")
    for key, unit in COUNT_UNITS.items():
        out[key] = (counts.get(key, 0), unit)
    return out
