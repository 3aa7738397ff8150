"""Regression gate: a fresh run must equal the recorded trajectory.

Three failure classes, in the order they are reported:

* **structural** — the spec's grid contract (fingerprint) moved, or
  cells are missing from or extra to the fresh run;
* **invariant violations** — the spec's declared shape claims
  (x509 > https > none, distributed > colocated, Create slowest, …)
  no longer hold on the fresh run;
* **mismatches** — a fresh cell's values are not equal to the recorded
  ones.  Every number in a record is a pure function of the code, so
  the gate demands equality on every leaf — numbers, strings and bools —
  and lists each leaf that changed, appeared or vanished.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.experiments.schema import RunRecord, dumps_canonical, leaves
from repro.experiments.spec import ExperimentSpec, evaluate_invariants


@dataclass
class GateReport:
    """The outcome of one spec's check, partitioned by failure class."""

    spec: str
    structural_problems: list[str] = field(default_factory=list)
    invariant_violations: list[str] = field(default_factory=list)
    mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (
            self.structural_problems or self.invariant_violations or self.mismatches
        )

    def lines(self) -> list[str]:
        out: list[str] = []
        for label, problems in (
            ("structural", self.structural_problems),
            ("invariant", self.invariant_violations),
            ("mismatch", self.mismatches),
        ):
            out.extend(f"{self.spec}: {label}: {problem}" for problem in problems)
        return out


def diff_leaves(recorded: dict, fresh: dict) -> list[str]:
    """Every leaf whose JSON form differs between two cell payloads."""
    was = {path: json.dumps(leaf) for path, leaf in leaves(recorded).items()}
    now = {path: json.dumps(leaf) for path, leaf in leaves(fresh).items()}
    problems: list[str] = []
    for path in sorted(set(was) | set(now)):
        if path not in was:
            problems.append(f"{path} appeared (= {now[path]})")
        elif path not in now:
            problems.append(f"{path} vanished (was {was[path]})")
        elif was[path] != now[path]:
            problems.append(f"{path}: {was[path]} → {now[path]}")
    return problems


def check_against_record(
    spec: ExperimentSpec, recorded: RunRecord, fresh: RunRecord
) -> GateReport:
    """Gate one fresh run against its recorded trajectory."""
    report = GateReport(spec=spec.name)
    if recorded.fingerprint != fresh.fingerprint:
        report.structural_problems.append(
            f"spec fingerprint changed ({recorded.fingerprint} → "
            f"{fresh.fingerprint}); the grid contract moved — regenerate the "
            f"record with `python -m repro experiments --run {spec.name}`"
        )
        return report
    missing = [c for c in recorded.cell_ids() if c not in fresh.cell_ids()]
    extra = [c for c in fresh.cell_ids() if c not in recorded.cell_ids()]
    if missing:
        report.structural_problems.append(f"cells missing from fresh run: {missing}")
    if extra:
        report.structural_problems.append(f"cells not in the record: {extra}")
    report.invariant_violations = evaluate_invariants(spec, fresh)
    fresh_cells = {cell.cell_id: cell for cell in fresh.cells}
    for cell in recorded.cells:
        new = fresh_cells.get(cell.cell_id)
        # Canonical JSON: what the record holds, so 1 vs 1.0 vs True differ.
        if new is None or dumps_canonical(cell.values) == dumps_canonical(new.values):
            continue
        lines = diff_leaves(cell.values, new.values) or ["values differ in nesting"]
        report.mismatches.extend(f"{cell.cell_id}:{line}" for line in lines)
    return report


def check_artifacts(
    spec: ExperimentSpec, record: RunRecord, results_dir: str
) -> list[str]:
    """Committed artifact files that differ from what ``record`` renders.

    The staleness gate: every ``results/*.csv`` / ``BENCH_*.json`` a spec
    publishes must be exactly what its committed record produces.
    """
    import os

    problems: list[str] = []
    for name, text in spec.artifacts(record).items():
        path = os.path.join(results_dir, name)
        if not os.path.exists(path):
            problems.append(f"{spec.name}: artifact {name} is missing")
            continue
        with open(path, encoding="utf-8") as fh:
            committed = fh.read()
        if committed != text:
            problems.append(
                f"{spec.name}: artifact {name} is stale (regenerate with "
                f"`python -m repro experiments --run {spec.name}`)"
            )
    return problems
