"""Fixtures shared by the test modules."""

import pytest

from nvaw import nva
from nvaw.nva import CheckReport, Outcome, find_clearing_k

from apply_chains import entries


class MapComparisons:
    """What CheckReport.compare_maps was given, its (name, key, lhs map,
    rhs map) items, and the vectors CheckReport.compare compared, by item
    name."""

    def __init__(self):
        self.clear()

    def clear(self):
        self.mapped, self.compared = [], {}

    def match(self, items, want):
        """Check the items of one report against an oracle that compared
        every key vector by vector, want holding its (name, key, lhs, rhs)
        per item: the items of want's names, in the report and among the
        compare_maps items, have want's names in want's order, the latter
        with want's keys; where both oracle sides are zero, an exact-pass
        item with no detail, the key in neither map and nothing compared;
        elsewhere the oracle's vectors compared.  items is None for a
        report that the check keeps to itself.  Returns the number of
        zero items."""
        names = {w[0] for w in want}
        mapped = [m for m in self.mapped if m[0] in names]
        assert [m[:2] for m in mapped] == [w[:2] for w in want]
        if items is not None:
            items = [i for i in items if i.name in names]
            assert [i.name for i in items] == [w[0] for w in want]
        zero = 0
        for i, ((name, key, lhs_map, rhs_map), (_, _, lhs0, rhs0)) in enumerate(
                zip(mapped, want)):
            if lhs0.is_zero() and rhs0.is_zero():
                zero += 1
                assert items is None or (items[i].outcome, items[i].detail) == (
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

    def compare_maps(self, items):
        items = list(items)
        rec.mapped.extend(items)
        return real_maps(self, items)

    monkeypatch.setattr(CheckReport, "compare", compare)
    monkeypatch.setattr(CheckReport, "compare_maps", compare_maps)
    return rec


class KSearches:
    """The sides of every find_clearing_k call of nva.clearing_k_items."""

    def __init__(self):
        self.calls = []

    def match(self, items, want, kmax):
        """Check the items of one k-searched report against an oracle that
        searched k over every key, want holding its (name, sides) per
        identity: the same items in the same order, and the sides searched
        the oracle's that are not 0 == 0, an identity with none searched
        nowhere.  Returns the number of identities searched nowhere."""
        rep = CheckReport("oracle")
        live = []
        for name, sides in want:
            k, res = find_clearing_k(sides, kmax)
            if k is None:
                rep.add(name, Outcome.NO_K_FOUND, f"no k <= {kmax}")
            else:
                rep.verdict(f"{name} k={k}", res)
            live.append([(lhs, rhs) for lhs, rhs in sides
                         if not (lhs.is_zero() and rhs.is_zero())])
        assert [(i.name, i.outcome, i.detail) for i in items] == [
            (i.name, i.outcome, i.detail) for i in rep.items]
        searched = [sides for sides in live if sides]
        assert len(self.calls) == len(searched)
        for got, sides in zip(self.calls, searched):
            assert [(entries(lhs), entries(rhs)) for lhs, rhs in got] == [
                (entries(lhs), entries(rhs)) for lhs, rhs in sides]
        return len(live) - len(searched)


@pytest.fixture
def k_searches(monkeypatch):
    """A KSearches that records every k search while the test runs."""
    rec = KSearches()

    def spy(sides, kmax):
        rec.calls.append(list(sides))
        return find_clearing_k(rec.calls[-1], kmax)

    monkeypatch.setattr(nva, "find_clearing_k", spy)
    return rec
