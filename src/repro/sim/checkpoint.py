"""Campaign checkpointing: per-cell durability for multi-day sweeps.

A 20-day campaign that loses every completed cell to one SIGKILL is not
a harness, it's a liability. The checkpoint protocol makes campaign
progress durable at cell granularity with nothing but atomic file
renames:

- ``manifest.json`` -- written once when a checkpointed campaign begins.
  Carries a fingerprint of the cell grid and run configuration, so a
  resume against a *different* campaign is refused instead of silently
  splicing unrelated rows together.
- ``cell_00042.json`` -- one file per completed cell, written atomically
  *after* the cell finishes. Contains the stable row document
  (:func:`~repro.analysis.serialize.campaign_row_to_dict`) plus, when
  telemetry was on, the cell's metrics-registry snapshot.

Because every write is write-temp-then-rename, a kill at any instant
leaves the directory in one of exactly two states per cell: complete row
file or no row file. Resume (:meth:`CampaignCheckpoint.load_completed`)
therefore never sees torn state; it re-runs any cell without a file and
replays the rest byte-identically -- row documents serialize floats
verbatim (``repr`` round-trip), so a resumed campaign's CSV is
byte-identical to an uninterrupted run's (proven in
``tests/test_crash_resume.py``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
from pathlib import Path
from typing import Dict, Sequence, Set, Union

from repro.durability.atomic import atomic_write_text
from repro.sim.campaign import CampaignCell, CampaignRow, CampaignRunConfig

logger = logging.getLogger(__name__)

#: Manifest schema version; bump on incompatible layout changes.
CHECKPOINT_VERSION = 1

MANIFEST_NAME = "manifest.json"


class CheckpointError(RuntimeError):
    """The checkpoint directory is unusable for this campaign."""


def campaign_fingerprint(
    cells: Sequence[CampaignCell], run_config: CampaignRunConfig
) -> str:
    """Deterministic identity of (grid, configuration).

    Dataclass ``repr`` is stable (fixed field order, ``repr`` floats),
    covers nested configs (faults, safety, fleet, workloads) and needs
    no bespoke serializer for every config field ever added.
    """
    text = repr((list(cells), run_config))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _legacy_fingerprints(
    cells: Sequence[CampaignCell], run_config: CampaignRunConfig
) -> Set[str]:
    """Fingerprints the same campaign had under an ``engine_backend`` field.

    Builds with a switchable engine carried that run-config field just
    before ``tenancy``; every value it could hold ran the same
    trajectories, so manifests written under any of them still resume.
    """
    fields = dataclasses.fields(run_config)
    parts = [f"{f.name}={getattr(run_config, f.name)!r}" for f in fields]
    at = [f.name for f in fields].index("tenancy")
    cells_text = repr(list(cells))
    fingerprints = set()
    for label in (None, "object", "vectorized"):
        legacy = parts[:at] + [f"engine_backend={label!r}"] + parts[at:]
        text = f"({cells_text}, {type(run_config).__name__}({', '.join(legacy)}))"
        fingerprints.add(hashlib.sha256(text.encode("utf-8")).hexdigest())
    return fingerprints


def _cell_filename(index: int) -> str:
    return f"cell_{index:05d}.json"


class CampaignCheckpoint:
    """One campaign's checkpoint directory."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)

    # ------------------------------------------------------------------
    def initialize(
        self,
        cells: Sequence[CampaignCell],
        run_config: CampaignRunConfig,
        resume: bool = False,
    ) -> Dict[int, CampaignRow]:
        """Prepare the directory; returns already-completed rows by index.

        Fresh start (``resume=False``) requires a directory without a
        manifest (an existing one means a previous campaign lives here
        -- refusing beats silently clobbering durable progress). Resume
        validates the manifest fingerprint against *this* campaign and
        loads every completed cell file.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        manifest_path = self.directory / MANIFEST_NAME
        fingerprint = campaign_fingerprint(cells, run_config)
        if manifest_path.exists():
            if not resume:
                raise CheckpointError(
                    f"{manifest_path} already exists; pass resume=True to "
                    "continue that campaign or use a fresh directory"
                )
            manifest = json.loads(manifest_path.read_text())
            if manifest.get("version") != CHECKPOINT_VERSION:
                raise CheckpointError(
                    f"checkpoint version {manifest.get('version')!r} is not "
                    f"supported (this build writes {CHECKPOINT_VERSION})"
                )
            if manifest.get("fingerprint") not in {
                fingerprint,
                *_legacy_fingerprints(cells, run_config),
            }:
                raise CheckpointError(
                    "checkpoint fingerprint mismatch: the directory belongs "
                    "to a different campaign (grid or run configuration "
                    "changed since the checkpoint was written)"
                )
            completed = self.load_completed(len(cells))
            logger.info(
                "resuming campaign from %s: %d/%d cells already complete",
                self.directory,
                len(completed),
                len(cells),
            )
            return completed
        if resume:
            # A resume against an empty directory is a fresh start; write
            # the manifest and run everything (kill-before-manifest case).
            logger.info(
                "resume requested but %s has no manifest; starting fresh",
                self.directory,
            )
        manifest = {
            "version": CHECKPOINT_VERSION,
            "fingerprint": fingerprint,
            "n_cells": len(cells),
            "cells": [cell.label() for cell in cells],
        }
        atomic_write_text(manifest_path, json.dumps(manifest, indent=2) + "\n")
        return {}

    # ------------------------------------------------------------------
    def record(self, index: int, row: CampaignRow) -> None:
        """Durably record one completed cell (atomic, crash-consistent)."""
        from repro.analysis.serialize import campaign_row_to_dict

        doc = campaign_row_to_dict(row)
        if row.telemetry is not None:
            from repro.telemetry import snapshot as registry_snapshot

            doc["telemetry"] = registry_snapshot(row.telemetry)
        atomic_write_text(
            self.directory / _cell_filename(index),
            json.dumps(doc, indent=2, sort_keys=False) + "\n",
        )

    def load_completed(self, n_cells: int) -> Dict[int, CampaignRow]:
        """Rows already durably recorded, keyed by cell index."""
        from repro.analysis.serialize import campaign_row_from_dict

        completed: Dict[int, CampaignRow] = {}
        for index in range(n_cells):
            path = self.directory / _cell_filename(index)
            if not path.exists():
                continue
            doc = json.loads(path.read_text())
            row = campaign_row_from_dict(doc)
            if "telemetry" in doc:
                from repro.telemetry import registry_from_snapshot

                row.telemetry = registry_from_snapshot(doc["telemetry"])
            completed[index] = row
        return completed


__all__ = [
    "CHECKPOINT_VERSION",
    "CampaignCheckpoint",
    "CheckpointError",
    "campaign_fingerprint",
]
