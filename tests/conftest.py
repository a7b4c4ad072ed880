"""Shared fixtures: a hand-transcribed reference coloring of a 2x2 box,
and a patch that makes two regions disagree on a crossing edge."""

import pytest

from chromatile import tiling
from chromatile.grid import Box, _strides
from chromatile.rectcolor import C, P, palette


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
    coloring = {(base, 1): color for base, color in horizontal.items()}
    coloring.update(((base, 2), color) for base, color in vertical.items())
    return coloring


@pytest.fixture
def force_conflict(monkeypatch):
    """Patch ``local_edges`` where the level placer looks it up, so that
    every region writes its lower adjacent edge along axis 1 at its
    origin as the plain color 1 in place of c1.  The region across that
    edge still writes c1 there, so the two writes disagree."""
    original = tiling.local_edges

    def recolored(sizes, plain, shift):
        n = len(sizes)
        first, *rest = original(sizes, plain, shift)
        # the frame starts at -1 on every axis, so the base (-1, 0, ..., 0)
        # sits at offset (0, 1, ..., 1); a byte is a palette slot plus 1
        target = sum(_strides([a + 2 for a in sizes])[1:])
        colors = palette(n)
        assert colors[first[target] - 1] == C(1)
        first = bytearray(first)
        first[target] = colors.index(P(1)) + 1
        return (bytes(first), *rest)

    monkeypatch.setattr(tiling, "local_edges", recolored)
