"""Detection results match the checked-in golden digests byte for byte.

``tests/data/golden_records.json`` pins ``pair_records()``, the exact
hazard verdicts, the flagged pairs and the incremental counters over the
matrix of :mod:`tests.oracles.golden`: the ``small`` suite ladder x every
hazard mode x serial / two workers x fresh / incremental / ECO runs, plus
the k=3 cycle detector.  Any executor change that moves a record, a
verdict or an inheritance count fails here.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench_gen.suite import suite

from tests.oracles.golden import HAZARD_MODES, WORKER_MODES, compute

GOLDEN = json.loads(
    (Path(__file__).parent.parent / "data" / "golden_records.json").read_text()
)
CIRCUITS = {circuit.name: circuit for circuit in suite("small")}


@pytest.mark.parametrize("workers", list(WORKER_MODES))
@pytest.mark.parametrize("hazard", [*HAZARD_MODES, "kcycle3"])
@pytest.mark.parametrize("name", list(CIRCUITS))
def test_matches_golden(name, hazard, workers):
    runs = compute(CIRCUITS[name], hazard, workers)
    expected = {
        key.rsplit("/", 1)[1]: value
        for key, value in GOLDEN.items()
        if key.startswith(f"{name}/{hazard}/{workers}/")
    }
    assert expected
    assert runs == expected
