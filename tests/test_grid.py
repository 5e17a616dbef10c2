"""The count-grid transform (`grid.transform_grids`) against the word-level
BNC recursion (`cumulants.transform_rows`), with which it shares no code,
the count-class invariance that lets a pair's law live on its grid, and
the face moments against the fixed point of the free relation, bit for bit."""

import pytest
from hypothesis import given, settings, strategies as st

from bipoisson.cumulants import Alphabet, all_words, transform_rows
from bipoisson import grid
from bipoisson.grid import transform_grids
from bipoisson.poisson import JumpLaw
from oracles import free_moments_fixed_point

PAIR = Alphabet(("zl",), ("zr",))
# (jump law, rate): the point mass (1, 1), a correlated law with weights 1/2,
# and a signed, non-dyadic law
LAWS = {
    "point_mass": (JumpLaw(PAIR, ((1.0, 1.0),), (1.0,)), 1.0),
    "correlated": (JumpLaw(PAIR, ((1.0, 0.5), (2.0, 3.0)), (0.5, 0.5)), 1.0),
    "signed": (JumpLaw(PAIR, ((0.7, -1.3), (1.9, 0.4), (-0.6, 2.2)),
                       (0.3, 0.45, 0.25)), 1.7),
}


def classes(cap: int) -> list[tuple[int, int]]:
    """Each word's (left, right) letter counts, in `all_words` order."""
    return [(w.count("zl"), w.count("zr")) for w in all_words(PAIR, cap)]


def words_transform(grid: dict, cap: int, to_cumulants: bool) -> dict:
    """The word recursion on the grid's word row, read back as a grid."""
    (row,) = transform_rows(PAIR, cap, [[grid[c] for c in classes(cap)]], to_cumulants)
    return dict(zip(classes(cap), row))


def cumulant_grid(name: str, cap: int) -> dict:
    law, rate = LAWS[name]
    return {c: rate * x for c, x in law.grid(cap).items()}


@pytest.mark.parametrize("cap", [1, 2, 5, 8, 10])
@pytest.mark.parametrize("name", LAWS)
class TestAgainstWords:
    def test_moments(self, name, cap):
        kappa = cumulant_grid(name, cap)
        (by_grid,) = transform_grids([kappa], False)
        by_words = words_transform(kappa, cap, False)
        assert by_grid.keys() == by_words.keys()
        assert [c for c, x in by_words.items() if abs(by_grid[c] - x) > 1e-12 * abs(x)] == []

    def test_cumulants(self, name, cap):
        # Both transforms invert the word recursion's moments of the law. A
        # cumulant is ill-conditioned in its moments, so the tolerance is the
        # law's own loss on the way kappa -> phi -> kappa through the two
        # transforms, one each way (zero on the dyadic laws, where every
        # value is exact).
        kappa = cumulant_grid(name, cap)
        phi_words = words_transform(kappa, cap, False)
        (phi_grid,) = transform_grids([kappa], False)
        (crossed,) = transform_grids([phi_words], True)
        residual = max(max(abs(x - kappa[c]) for c, x in crossed.items()),
                       max(abs(x - kappa[c])
                           for c, x in words_transform(phi_grid, cap, True).items()))
        by_words = words_transform(phi_words, cap, True)
        assert max(abs(crossed[c] - x) for c, x in by_words.items()) <= residual
        if name != "signed":
            assert residual == 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8), st.data())
def test_count_only_tables_stay_count_only(cap, data):
    # a table whose values depend on letter counts alone maps, both ways, to
    # one whose values do: every word of a count class gets the same bits
    grid = {c: data.draw(st.floats(-2, 2)) for c in sorted(set(classes(cap)))}
    for to_cumulants in (True, False):
        (row,) = transform_rows(PAIR, cap, [[grid[c] for c in classes(cap)]], to_cumulants)
        values = {}
        for c, x in zip(classes(cap), row):
            values.setdefault(c, set()).add(x.hex())
        assert [c for c, bits in values.items() if len(bits) > 1] == []


def test_grid_sizes():
    # (cap+1)(cap+2)/2 - 1 values where a word row holds 2^(cap+1) - 2
    kappa = cumulant_grid("signed", 10)
    assert len(kappa) == 65 and len(classes(10)) == 2046
    assert [len(g) for g in transform_grids([kappa, kappa], True)] == [65, 65]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.data())
def test_free_moments_are_the_fixed_point(cap, data):
    # the same products added in the same order: equal bits, signed zeros too
    kappa = [0.0] + data.draw(st.lists(st.floats(-8, 8), min_size=cap, max_size=cap))
    assert ([x.hex() for x in grid._free_moments(kappa)]
            == [x.hex() for x in free_moments_fixed_point(kappa)])
