"""Shared fixtures: a hand-transcribed reference coloring of a 2x2 box."""

import pytest

from chromatile.grid import Box
from chromatile.rectcolor import C, EdgeColoring, P


@pytest.fixture
def reference_2x2_box():
    return Box((-1, -1), (2, 2))


@pytest.fixture
def reference_2x2_coloring():
    """A known-good boundary-condition coloring of the box [-1,1]^2.

    Transcribed by hand and verified manually; note the interior
    vertical edge carrying the horizontal direction color c1, which the
    conditions permit.
    """
    horizontal = {
        (-2, 1): C(1), (-1, 1): P(1), (0, 1): P(2), (1, 1): C(1),
        (-2, 0): C(1), (-1, 0): P(2), (0, 0): P(1), (1, 0): C(1),
        (-2, -1): C(1), (-1, -1): P(2), (0, -1): P(1), (1, -1): C(1),
    }
    vertical = {
        (-1, -2): C(2), (-1, -1): P(1), (-1, 0): P(3), (-1, 1): C(2),
        (0, -2): C(2), (0, -1): C(1), (0, 0): P(3), (0, 1): C(2),
        (1, -2): C(2), (1, -1): P(2), (1, 0): P(3), (1, 1): C(2),
    }
    coloring = EdgeColoring()
    for base, color in horizontal.items():
        coloring.write((base, 1), color)
    for base, color in vertical.items():
        coloring.write((base, 2), color)
    return coloring
