"""The experiment harness: canonical digests, drift detection, artifacts,
and the CLI's rejection of flags that would have no effect."""

import dataclasses
import itertools
import math
from dataclasses import dataclass, field
from typing import List

import pytest

from repro.__main__ import main
from repro.experiments import harness


@dataclass
class Point:
    name: str
    value: float
    counts: List[int] = field(default_factory=list)
    vm: object = harness.handle()


def test_digest_stable_for_equal_values_and_sensitive_to_the_last_bit():
    a = Point("p", 0.1, [1, 2], vm=object())
    b = Point("p", 0.1, [1, 2], vm=object())
    assert harness.digest(a) == harness.digest(b)  # handles are skipped
    nudged = Point("p", math.nextafter(0.1, 1.0), [1, 2])
    assert nudged.value != a.value
    assert harness.digest(nudged) != harness.digest(a)
    # A list of dataclasses digests like the dataclasses it holds.
    assert harness.digest([a]) == harness.digest([b])
    assert harness.digest((a,)) == harness.digest([a])


def _spec(run_cell, **kwargs):
    return harness.Spec(
        name="fake",
        description="fake",
        cells=lambda smoke: [(f"c{i}", dict(i=i)) for i in range(2)],
        run_cell=run_cell,
        check=lambda cells: [],
        report=lambda cells: "\n".join(c.key for c in cells),
        **kwargs,
    )


def test_nondeterministic_cell_is_reported_as_drift():
    ticks = itertools.count()
    spec = _spec(lambda i: Point(f"c{i}", float(next(ticks))))
    cells, failures = harness.run(spec)
    assert [c.key for c in cells] == ["c0", "c1"]
    assert failures == [
        "c0: digest differs across reruns",
        "c1: digest differs across reruns",
    ]
    assert harness.run_cli(spec) == 1


def test_deterministic_fake_passes_and_releases_handles():
    spec = _spec(lambda i: Point(f"c{i}", 1.0, vm=object()))
    cells, failures = harness.run(spec)
    assert failures == []
    assert all(c.result.vm is None for c in cells)


@pytest.mark.parametrize(
    "name",
    [name for name, spec in harness.specs().items() if spec.csv],
)
def test_artifacts_come_from_cells_already_run(name, tmp_path, capsys):
    spec = harness.specs()[name]
    calls = []

    def counted(**params):
        calls.append(params)
        return spec.run_cell(**params)

    csv_out, trace_out = tmp_path / "out.csv", tmp_path / "out.json"
    status = harness.run_cli(
        dataclasses.replace(spec, run_cell=counted),
        smoke=True,
        csv_out=str(csv_out),
        trace_out=str(trace_out),
    )
    assert status == 0
    assert len(calls) == 2 * len(spec.cells(True))
    assert csv_out.read_text().count("\n") > 1
    assert trace_out.read_text().startswith("{")


def test_fault_rate_without_faults_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table5", "--fault-rate", "0.05"])
    assert exc.value.code == 2
    assert "--fault-rate" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--csv-out", "--trace-out"])
@pytest.mark.parametrize("name", ["brownout", "chaoskill", "gcscale"])
def test_artifact_flags_rejected_without_an_exporter(name, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([name, "--smoke", flag, "out"])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
