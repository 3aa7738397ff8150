"""The committed records stay in contract with the current specs.

These are the cheap halves of the regression gate: no re-measurement,
just the committed ``results/experiments/*.json`` checked for fingerprint
skew, invariant violations and artifact/docs staleness.  The expensive
half (fresh runs diffed cell-by-cell) lives in ``scripts/check.sh`` via
``python -m repro experiments --check``.
"""

import os

import pytest

from repro.experiments import check_artifacts, evaluate_invariants
from repro.experiments.cli import DEFAULT_RESULTS_DIR
from repro.experiments.docgen import check_docs
from repro.experiments.engine import ExperimentEngine
from repro.experiments.registry import all_specs, get_spec, smoke_specs, spec_names

ENGINE = ExperimentEngine(DEFAULT_RESULTS_DIR)


@pytest.mark.parametrize("name", spec_names())
def test_committed_record_matches_spec_contract(name):
    spec = get_spec(name)
    record = ENGINE.load_record(name)
    assert record.fingerprint == spec.fingerprint(), (
        f"{name}: the grid contract changed since the record was written; "
        f"regenerate with `python -m repro experiments --run {name}`"
    )
    assert record.cell_ids() == [spec.cell_id(p) for p in spec.grid()]
    assert evaluate_invariants(spec, record) == []


@pytest.mark.parametrize("name", spec_names())
def test_committed_artifacts_render_from_the_record(name):
    spec = get_spec(name)
    record = ENGINE.load_record(name)
    assert check_artifacts(spec, record, DEFAULT_RESULTS_DIR) == []


def test_experiments_md_is_fresh():
    assert check_docs(DEFAULT_RESULTS_DIR) == []


def test_smoke_subset_is_cheap_and_nonempty():
    smoke = list(smoke_specs())
    assert smoke, "CI smoke gate would be vacuous"
    assert all(len(spec.grid()) <= 4 for spec in smoke)
    assert {spec.name for spec in smoke} < {spec.name for spec in all_specs()}


def test_every_results_file_has_one_owner():
    """Each file directly under results/ is one spec's artifact (or a
    report the lint and conformance gates own), so a deleted spec cannot
    leave an orphan behind."""
    owners: dict[str, list[str]] = {}
    for spec in all_specs():
        for name in spec.artifacts(ENGINE.load_record(spec.name)):
            owners.setdefault(name, []).append(spec.name)
    shared = {name: specs for name, specs in owners.items() if len(specs) > 1}
    assert shared == {}
    committed = {
        entry.name for entry in os.scandir(DEFAULT_RESULTS_DIR) if entry.is_file()
    }
    orphans = committed - set(owners) - {"lint_report.json", "conformance_summary.json"}
    assert orphans == set()
