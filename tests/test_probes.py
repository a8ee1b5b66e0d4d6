import json

import numpy as np
import pytest

from pdmph import default_probes, make_grid
from pdmph.cli import main


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


@pytest.mark.parametrize("probes", [0, 1])
def test_fewer_than_two_probes_exit_2(tmp_path, probes):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"probes": probes}))
    assert main(["verify", "--config", str(cfg), "--refine", "101,201,401",
                 "--out", str(tmp_path / "r.json")]) == 2
    assert not (tmp_path / "r.json").exists()
