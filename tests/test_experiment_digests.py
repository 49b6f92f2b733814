"""Golden digests of every gated experiment's smoke cells.

``experiment_digests.json`` pins one digest per smoke cell (the
harness's canonical digest of the cell's result dataclass), taken from
the experiments' own matrices before they moved onto the harness.  Each
test runs one smoke matrix through the runner (every cell twice, plus
the acceptance check) and requires the digests to match: a change that
moves any simulated value of a gated experiment fails here.
"""

import json
from pathlib import Path

import pytest

from repro.experiments import harness

GOLDEN = json.loads(
    (Path(__file__).parent / "experiment_digests.json").read_text()
)
SPECS = harness.specs()


def test_every_gated_experiment_has_golden_digests():
    assert set(SPECS) == set(GOLDEN)


@pytest.mark.parametrize("name", list(SPECS))
def test_smoke_cells_match_golden_digests(name):
    cells, failures = harness.run(SPECS[name], smoke=True)
    assert failures == []
    assert {cell.key: cell.digest for cell in cells} == GOLDEN[name]
