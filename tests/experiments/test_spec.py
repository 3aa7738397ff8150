"""Spec declaration validation, grid expansion and invariant evaluation."""

import dataclasses

import pytest

from repro.experiments import (
    Axis,
    PairOrdering,
    Predicate,
    SpecError,
    evaluate_invariants,
    make_record,
    run_in_memory,
)
from tests.experiments.conftest import make_toy_spec, toy_measure


class TestAxis:
    def test_rejects_bad_names(self):
        for name in ("", "Mode", "mode-x", "mode x"):
            with pytest.raises(SpecError):
                Axis(name, ("a",))

    def test_rejects_empty_and_duplicate_values(self):
        with pytest.raises(SpecError, match="no values"):
            Axis("mode", ())
        with pytest.raises(SpecError, match="duplicate"):
            Axis("mode", ("a", "a"))

    def test_rejects_non_scalar_values(self):
        with pytest.raises(SpecError, match="not a JSON scalar"):
            Axis("mode", (("tuple",),))


class TestSpecShape:
    def test_grid_is_outer_axis_slowest(self):
        spec = make_toy_spec()
        assert [p["mode"] for p in spec.grid()] == ["none", "none", "x509", "x509"]

    def test_cell_id_requires_every_axis(self):
        spec = make_toy_spec()
        with pytest.raises(SpecError, match="do not cover"):
            spec.cell_id({"mode": "none"})
        assert spec.cell_id({"mode": "none", "stack": "wsrf"}) == "mode=none,stack=wsrf"

    def test_duplicate_axis_names_rejected(self):
        with pytest.raises(SpecError, match="duplicate axis"):
            make_toy_spec(axes=(Axis("mode", ("a",)), Axis("mode", ("b",))))

    def test_fingerprint_tracks_the_grid_contract(self):
        base = make_toy_spec()
        assert base.fingerprint() == make_toy_spec().fingerprint()
        assert base.fingerprint() != make_toy_spec(seed=1).fingerprint()
        assert base.fingerprint() != make_toy_spec(config={"k": 1}).fingerprint()
        assert (
            base.fingerprint()
            != make_toy_spec(
                axes=(Axis("mode", ("none",)), Axis("stack", ("wsrf", "transfer")))
            ).fingerprint()
        )
        # The measurement *code* is not part of the contract.
        assert base.fingerprint() == make_toy_spec(measure=lambda p, s: {}).fingerprint()


class TestInvariants:
    def test_clean_record_has_no_violations(self):
        spec = make_toy_spec()
        assert evaluate_invariants(spec, run_in_memory(spec)) == []

    def test_ordering_violation_is_reported_per_leaf(self):
        # An inverted measurement: x509 *cheaper* than none.
        def inverted(params, seed):
            values = toy_measure(params, seed)
            if params["mode"] == "x509":
                values["get_ms"] = 1.0
            return values

        spec = make_toy_spec(measure=inverted)
        violations = evaluate_invariants(spec, run_in_memory(spec))
        assert len(violations) == 2  # one per stack
        assert all("x509_slower" in v for v in violations)

    def test_zero_pair_selector_is_itself_a_violation(self):
        spec = make_toy_spec()
        ghost = PairOrdering(
            name="ghost",
            metric="get_ms",
            greater={"mode": "tls13"},
            lesser={"mode": "none"},
        )
        flagged = dataclasses.replace(spec, invariants=(ghost,))
        violations = evaluate_invariants(flagged, run_in_memory(flagged))
        assert violations == ["ghost: selector matched no cell pairs"]

    def test_ordering_factor_demands_a_margin(self):
        spec = make_toy_spec()
        steep = PairOrdering(
            name="x509_much_slower",
            metric="get_ms",
            greater={"mode": "x509"},
            lesser={"mode": "none"},
            factor=100.0,
        )
        demanding = dataclasses.replace(spec, invariants=(steep,))
        assert evaluate_invariants(demanding, run_in_memory(demanding))

    def test_mismatched_selector_axes_rejected(self):
        with pytest.raises(SpecError, match="same axes"):
            PairOrdering(name="bad", greater={"mode": "x509"}, lesser={"stack": "wsrf"})

    def test_predicate_violations_carry_the_invariant_name(self):
        spec = make_toy_spec()
        failing = Predicate(name="nope", fn=lambda record: ["always wrong"])
        record = run_in_memory(spec)
        assert evaluate_invariants(
            dataclasses.replace(spec, invariants=(failing,)), record
        ) == ["nope: always wrong"]


class TestArtifacts:
    def test_figure_csv_artifact_is_slugified(self):
        spec = make_toy_spec()
        record = run_in_memory(spec)
        names = list(spec.artifacts(record))
        assert names == ["toy_hello_world_shaped_grid.csv"]

    def test_extra_artifacts_merge_in(self):
        spec = make_toy_spec(
            extra_artifacts=lambda record: {"BENCH_toy.json": "{}\n"}
        )
        record = run_in_memory(spec)
        assert set(spec.artifacts(record)) == {
            "toy_hello_world_shaped_grid.csv",
            "BENCH_toy.json",
        }

    def test_make_record_carries_fingerprint_and_config(self):
        spec = make_toy_spec(config={"k": 3})
        record = make_record(spec, [])
        assert record.fingerprint == spec.fingerprint()
        assert record.config == {"k": 3}
