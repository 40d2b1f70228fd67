"""The benchmark's probes name package functions by module and attribute
(``perfbench/layers.py``); a rename in the package leaves a probe that
times nothing. This loads the probe table, which runs no workload, and
checks that every target still resolves."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# Absent since the function was deleted; the probe is to be repaired with
# the benchmark (ROADMAP Open item 1).
ABSENT = {("deltacolor.decomposition", "common_neighbor_counts")}


def _probes():
    """(module, attribute) of every probe, read with perfbench on the path;
    the perfbench modules are unloaded again afterwards."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
        layers = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(layers)
        return [(probe.module, probe.attr) for probe in layers.PROBES]
    finally:
        sys.path.remove(str(PERFBENCH))
        for name, module in list(sys.modules.items()):
            if PERFBENCH in Path(getattr(module, "__file__", None) or "/").parents:
                del sys.modules[name]


PROBES = _probes()


def test_the_absent_targets_are_still_probed():
    assert ABSENT <= set(PROBES)


@pytest.mark.parametrize(
    "module, attr",
    [
        pytest.param(
            *target,
            marks=pytest.mark.xfail(strict=True, reason="ROADMAP Open item 1: the probed function is gone"),
        )
        if target in ABSENT
        else target
        for target in PROBES
    ],
    ids=[f"{module}.{attr}" for module, attr in PROBES],
)
def test_every_probe_target_resolves(module, attr):
    assert hasattr(importlib.import_module(module), attr)
