import numpy as np
import pytest

from pdmph import default_probes, make_grid


@pytest.mark.parametrize("count", range(1, 11))
def test_default_probes_returns_count(count):
    g = make_grid(-3.0, 5.0, 101)
    probes = default_probes(g, count)
    assert len(probes) == count
    s = (g.x - g.xmin) / (g.xmax - g.xmin)
    for i, v in enumerate(probes):
        k = i // 2 + 1
        want = (np.sin(2.0 * np.pi * k * s + 0.3 * k) if i % 2 == 0
                else np.cos(2.0 * np.pi * k * s - 0.2 * k))
        assert np.array_equal(v, want)
