"""The surface records: every row is a degeneration of the plane, every toric
row comes from a Markov pair with the moment triangle of H, and the generic
germs at the order-25 point of P(1,4,25) are the hand-typed level sets."""

from __future__ import annotations

import oracles
import pytest

from kwall import fixtures

_ROWS = {"P2": fixtures._P2, "P114": fixtures._P114, "P1425": fixtures._P1425, "X26": fixtures._X26}
_TORIC = {name: s for name, s in _ROWS.items() if s.triangle is not None}


def test_every_row_keeps_the_intersection_numbers_of_the_plane():
    assert sorted(_TORIC) == ["P114", "P1425", "P2"]
    for name, s in _ROWS.items():
        # K^2 = alpha^2 (H^2), D^2 / d^2 = k^2 (H^2) and -K.D / d = alpha k (H^2)
        assert (s.alpha ** 2 * s.h2, s.k ** 2 * s.h2, s.alpha * s.k * s.h2) == (9, 1, 3), name


def test_every_toric_row_comes_from_a_markov_pair():
    for name, s in _TORIC.items():
        k = int(s.k)
        args = [(b, c) for b in range(1, k + 1) for c in range(b, k + 1)
                if b * c == k and fixtures._manetti(b, c) == s]
        assert len(args) == 1, name
        (b, c), = args
        assert 1 + b * b + c * c == 3 * b * c, name


def test_each_moment_triangle_has_twice_its_area_as_h2():
    for name, s in _TORIC.items():
        area, _ = oracles.area_centroid(s.triangle)
        assert 2 * area == s.h2, name


@pytest.mark.parametrize("d, levels", [(1, (10,)), (2, (20,)), (4, (40, 15)), (7, (70, 45, 20))])
def test_generic_germs_are_the_level_sets(d, levels):
    assert fixtures.LCT_FIXTURES[f"p1425-d{10 * d}"].support == oracles.line_support(*levels)
