"""Fixtures shared by the test modules."""

import pytest

from nvaw.nva import CheckReport, Outcome


def entries(vec):
    return [(k, s.variables, s.coeffs, s.window, s.exact)
            for k, s in vec.entries.items()]


class MapComparisons:
    """What CheckReport.compare_maps was given, as (key, lhs map, rhs map)
    per item, and the vectors CheckReport.compare compared, by item name."""

    def __init__(self):
        self.clear()

    def clear(self):
        self.mapped, self.compared = [], {}

    def match(self, items, want):
        """Check the items of one report against an oracle that compared
        every key vector by vector, want holding its (name, key, lhs, rhs)
        per item: the same names and keys in the same order; where both
        oracle sides are zero, an exact-pass item with no detail, the key
        in neither map and nothing compared; elsewhere the oracle's
        vectors compared.  Returns the number of zero items."""
        assert len(items) == len(self.mapped) == len(want)
        assert [(i.name, m[0]) for i, m in zip(items, self.mapped)] == [
            w[:2] for w in want]
        zero = 0
        for item, (key, lhs_map, rhs_map), (name, _, lhs0, rhs0) in zip(
                items, self.mapped, want):
            if lhs0.is_zero() and rhs0.is_zero():
                zero += 1
                assert (item.outcome, item.detail) == (
                    Outcome.EXACT_PASS, ""), name
                assert key not in lhs_map.columns, name
                assert key not in rhs_map.columns, name
                assert name not in self.compared, name
            else:
                lhs, rhs = self.compared[name]
                assert entries(lhs) == entries(lhs0), name
                assert entries(rhs) == entries(rhs0), name
        return zero


@pytest.fixture
def map_comparisons(monkeypatch):
    """A MapComparisons that records every CheckReport.compare_maps and
    CheckReport.compare call while the test runs."""
    rec = MapComparisons()
    real_compare, real_maps = CheckReport.compare, CheckReport.compare_maps

    def compare(self, name, lhs, rhs):
        rec.compared[name] = (lhs, rhs)
        return real_compare(self, name, lhs, rhs)

    def compare_maps(self, names, lhs, rhs):
        names = list(names)
        rec.mapped.extend((key, lhs, rhs) for _, key in names)
        return real_maps(self, names, lhs, rhs)

    monkeypatch.setattr(CheckReport, "compare", compare)
    monkeypatch.setattr(CheckReport, "compare_maps", compare_maps)
    return rec
