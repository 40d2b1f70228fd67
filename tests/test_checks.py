import numpy as np
import pytest

from deltacolor import build_graph, canonical_palettes, verify_coloring


@pytest.mark.parametrize("palette_kind", ["range", "list"])
def test_verify_coloring_reports_uncolored_and_foreign_colors(palette_kind):
    g = build_graph([(0, 1), (1, 2)])  # path 0-1-2, palettes of size 3
    palettes = canonical_palettes(g)
    if palette_kind == "list":
        palettes = [[2, 5, 9], [1, 5, 9], [2, 5, 7]]
    good = {"range": [1, 2, 1], "list": [2, 1, 2]}[palette_kind]
    assert verify_coloring(g, palettes, np.array(good)) == []
    assert verify_coloring(g, palettes, {0: good[0], 1: good[1]}) == ["vertex 2 is uncolored"]
    assert verify_coloring(g, palettes, np.array([good[0], good[1], 4])) == [
        "vertex 2 wears color 4 outside its own palette"
    ]
