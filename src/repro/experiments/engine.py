"""The sweep engine: deterministic, seeded, resumable grid execution.

Cells run in grid order (outer axes slowest).  After each cell the
result is checkpointed to
``<results>/experiments/.cells/<spec>/<cell>.json`` — a crash or kill
between cells loses at most the cell in flight, and a ``--resume`` run
loads completed checkpoints instead of re-measuring, completing the grid
bit-identically to an uninterrupted run (the resumability tests pin
exactly that).  Checkpoints carry the spec fingerprint; a spec whose
axes/seed/config changed silently invalidates its old checkpoints.

A completed grid is consolidated into ``<results>/experiments/<spec>.json``
(the unified :mod:`~repro.experiments.schema` record) and the spec's
published artifacts (``results/*.csv``, ``BENCH_*.json``) are rewritten
from the record — the record is the single source every number flows
through.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

from repro.experiments.schema import (
    CellResult,
    RunRecord,
    SchemaError,
    dumps_canonical,
)
from repro.experiments.spec import ExperimentSpec, make_record


class EngineError(RuntimeError):
    """A run that cannot proceed (bad spec state, broken checkpoint dir)."""


@dataclass
class RunStats:
    """What one engine run actually did (for progress reporting)."""

    measured: int = 0
    resumed: int = 0

    @property
    def total(self) -> int:
        return self.measured + self.resumed


class ExperimentEngine:
    """Runs specs against a results directory.

    ``results_dir`` is the repo's ``results/``; records land in
    ``results/experiments/`` and artifacts in ``results/`` itself.  Pass
    ``persist=False`` for a purely in-memory run (no checkpoints, no
    record, no artifacts) — what the check gates and tests use.
    """

    def __init__(self, results_dir: str, *, persist: bool = True) -> None:
        self.results_dir = results_dir
        self.persist = persist

    # -- paths -------------------------------------------------------------

    def record_path(self, spec_name: str) -> str:
        return os.path.join(self.results_dir, "experiments", f"{spec_name}.json")

    def checkpoint_dir(self, spec_name: str) -> str:
        return os.path.join(self.results_dir, "experiments", ".cells", spec_name)

    def checkpoint_path(self, spec: ExperimentSpec, cell_id: str) -> str:
        from repro.bench.report import slugify

        return os.path.join(self.checkpoint_dir(spec.name), f"{slugify(cell_id)}.json")

    # -- checkpoints -------------------------------------------------------

    def _load_checkpoint(self, spec: ExperimentSpec, cell_id: str) -> CellResult | None:
        path = self.checkpoint_path(spec, cell_id)
        if not os.path.exists(path):
            return None
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            if payload.get("fingerprint") != spec.fingerprint():
                return None  # stale: the spec changed under the checkpoint
            cell = CellResult.from_json(payload["cell"])
        except (OSError, ValueError, KeyError, SchemaError):
            return None  # unreadable/torn checkpoint: re-measure the cell
        if cell.cell_id != cell_id:
            return None
        return cell

    def _save_checkpoint(self, spec: ExperimentSpec, cell: CellResult) -> None:
        directory = self.checkpoint_dir(spec.name)
        os.makedirs(directory, exist_ok=True)
        path = self.checkpoint_path(spec, cell.cell_id)
        payload = {"fingerprint": spec.fingerprint(), "cell": cell.to_json()}
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(dumps_canonical(payload))
        os.replace(tmp, path)  # atomic: a kill mid-write never tears a cell

    def clear_checkpoints(self, spec: ExperimentSpec) -> None:
        directory = self.checkpoint_dir(spec.name)
        if not os.path.isdir(directory):
            return
        for name in os.listdir(directory):
            if name.endswith(".json") or name.endswith(".tmp"):
                os.unlink(os.path.join(directory, name))

    # -- running -----------------------------------------------------------

    def run(
        self,
        spec: ExperimentSpec,
        *,
        resume: bool = False,
        max_cells: int | None = None,
        on_cell: Callable[[CellResult, bool], None] | None = None,
    ) -> RunRecord:
        """Run ``spec``'s grid and return the consolidated record.

        ``resume=True`` loads checkpointed cells instead of re-measuring
        them.  ``max_cells`` stops (with :class:`GridIncomplete`) after
        measuring that many *new* cells — the hook the resumability tests
        use to simulate a kill.  ``on_cell(cell, was_resumed)`` fires
        after every completed cell.
        """
        stats = RunStats()
        # Published up front (and filled in place) so nothing mutates the
        # engine after the on_cell fan-out below (RPO12).
        self.last_stats = stats
        cells: list[CellResult] = []
        for params in spec.grid():
            cell_id = spec.cell_id(params)
            cell = self._load_checkpoint(spec, cell_id) if resume else None
            resumed = cell is not None
            if cell is None:
                if max_cells is not None and stats.measured >= max_cells:
                    raise GridIncomplete(spec.name, [c.cell_id for c in cells])
                seed = spec.cell_seed(cell_id)
                values = spec.measure(dict(params), seed)
                if not isinstance(values, dict):
                    raise EngineError(
                        f"{spec.name}:{cell_id} measure returned "
                        f"{type(values).__name__}, expected dict"
                    )
                cell = CellResult(
                    cell_id=cell_id, params=dict(params), seed=seed, values=values
                )
                if self.persist:
                    self._save_checkpoint(spec, cell)
                stats.measured += 1
            else:
                stats.resumed += 1
            cells.append(cell)
            if on_cell is not None:
                on_cell(cell, resumed)
        record = make_record(spec, cells)
        if self.persist:
            self._write_outputs(spec, record)
        return record

    def _write_outputs(self, spec: ExperimentSpec, record: RunRecord) -> None:
        os.makedirs(os.path.join(self.results_dir, "experiments"), exist_ok=True)
        record.save(self.record_path(spec.name))
        for name, text in spec.artifacts(record).items():
            path = os.path.join(self.results_dir, name)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)

    # -- records -----------------------------------------------------------

    def load_record(self, spec_name: str) -> RunRecord:
        path = self.record_path(spec_name)
        if not os.path.exists(path):
            raise EngineError(
                f"no recorded run for {spec_name!r} at {path}; "
                f"run `python -m repro experiments --run {spec_name}` first"
            )
        return RunRecord.load(path)


class GridIncomplete(EngineError):
    """Raised when ``max_cells`` stopped a run before the grid finished."""

    def __init__(self, spec_name: str, completed: list[str]) -> None:
        super().__init__(
            f"{spec_name}: stopped after {len(completed)} cells (resumable)"
        )
        self.spec_name = spec_name
        self.completed = completed


def run_in_memory(spec: ExperimentSpec) -> RunRecord:
    """One fresh, checkpoint-free run (what the gates and tests use)."""
    return ExperimentEngine(results_dir=".", persist=False).run(spec)
