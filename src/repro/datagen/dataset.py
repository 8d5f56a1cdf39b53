"""Dataset container and top-level generation entry point.

:class:`TrafficDataset` bundles everything the analysis pipeline consumes:
the antenna/site metadata, the service catalog, the study calendar, the
N x M totals matrix, and an on-demand hourly synthesizer.  The companion
outdoor population is generated separately via :meth:`TrafficDataset.outdoor`.

Datasets save to the CRC-checked checkpoint archive
(:mod:`repro.stream.checkpoint`: totals, plus metadata and master seed
as JSON), so a damaged file fails with
:class:`~repro.relia.errors.CheckpointCorrupt`; loading reconstructs the
deterministic :class:`~repro.datagen.traffic.TrafficModel` so hourly
series remain available after a round trip.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.datagen.antennas import Antenna, Site, generate_layout
from repro.datagen.archetypes import Archetype
from repro.datagen.calendar import StudyCalendar
from repro.datagen.environments import EnvironmentSpec, EnvironmentType, Surrounding
from repro.datagen.outdoor import (
    DEFAULT_OUTDOOR_COUNT,
    OutdoorAntenna,
    generate_outdoor,
)
from repro.datagen.services import ServiceCatalog, default_catalog
from repro.datagen.traffic import TrafficModel


@dataclass
class TrafficDataset:
    """A generated nationwide ICN measurement dataset.

    Attributes:
        sites: indoor deployment sites.
        antennas: indoor antennas (row order of ``totals``).
        catalog: the M-service catalog (column order of ``totals``).
        calendar: the hourly study calendar.
        totals: N x M two-month traffic totals in MB.
        model: deterministic synthesizer for hourly series.
        master_seed: seed the dataset was generated from.
    """

    sites: List[Site]
    antennas: List[Antenna]
    catalog: ServiceCatalog
    calendar: StudyCalendar
    totals: np.ndarray
    model: TrafficModel
    master_seed: int

    def __post_init__(self) -> None:
        n, m = self.totals.shape
        if n != len(self.antennas):
            raise ValueError(
                f"totals has {n} rows but dataset has {len(self.antennas)} antennas"
            )
        if m != len(self.catalog):
            raise ValueError(
                f"totals has {m} columns but catalog has {len(self.catalog)} services"
            )

    # ------------------------------------------------------------------
    # Convenience views
    # ------------------------------------------------------------------

    @property
    def n_antennas(self) -> int:
        """Number of indoor antennas N."""
        return len(self.antennas)

    @property
    def n_services(self) -> int:
        """Number of mobile services M."""
        return len(self.catalog)

    @property
    def service_names(self) -> List[str]:
        """Service names in column order."""
        return self.catalog.names

    def archetypes(self) -> np.ndarray:
        """Latent ground-truth archetype per antenna (evaluation only)."""
        return np.array([int(a.archetype) for a in self.antennas], dtype=int)

    def environment_types(self) -> List[EnvironmentType]:
        """Environment type per antenna, row order."""
        return [a.env_type for a in self.antennas]

    def antenna_names(self) -> List[str]:
        """Generated BS names per antenna, row order."""
        return [a.name for a in self.antennas]

    def paris_mask(self) -> np.ndarray:
        """Boolean mask of antennas located in metropolitan Paris."""
        return np.array([a.is_paris for a in self.antennas], dtype=bool)

    # ------------------------------------------------------------------
    # Hourly access (delegated to the model)
    # ------------------------------------------------------------------

    def hourly_service(
        self,
        service: str,
        antenna_ids: Optional[Sequence[int]] = None,
        window: Optional[slice] = None,
    ) -> np.ndarray:
        """Hourly traffic of one service; see ``TrafficModel.hourly_service``."""
        return self.model.hourly_service(service, antenna_ids, window)

    def hourly_total(
        self,
        antenna_ids: Optional[Sequence[int]] = None,
        window: Optional[slice] = None,
    ) -> np.ndarray:
        """Hourly all-services traffic; see ``TrafficModel.hourly_total``."""
        return self.model.hourly_total(antenna_ids, window)

    def temporal_window(self) -> slice:
        """Calendar slice for the paper's Fig. 10/11 window."""
        return self.calendar.temporal_window()

    # ------------------------------------------------------------------
    # Outdoor companion population
    # ------------------------------------------------------------------

    def outdoor(
        self, count: int = DEFAULT_OUTDOOR_COUNT
    ) -> Tuple[List[OutdoorAntenna], np.ndarray]:
        """Generate the outdoor macro population anchored to this dataset."""
        return generate_outdoor(
            self.sites, self.catalog, master_seed=self.master_seed, count=count
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def save(self, path) -> None:
        """Write totals, metadata and seed through the checkpoint writer."""
        # repro.stream imports this module, so import its writer here.
        from repro.stream.checkpoint import save_state

        antenna_meta = [
            {
                "antenna_id": a.antenna_id,
                "name": a.name,
                "site_id": a.site_id,
                "env_type": a.env_type.value,
                "city": a.city,
                "is_paris": a.is_paris,
                "surrounding": a.surrounding.value,
                "lat": a.lat,
                "lon": a.lon,
                "archetype": int(a.archetype),
                "technology": a.technology,
            }
            for a in self.antennas
        ]
        site_meta = [
            {
                "site_id": s.site_id,
                "name": s.name,
                "env_type": s.env_type.value,
                "city": s.city,
                "is_paris": s.is_paris,
                "surrounding": s.surrounding.value,
                "lat": s.lat,
                "lon": s.lon,
            }
            for s in self.sites
        ]
        meta = {
            "master_seed": self.master_seed,
            "calendar_start": str(self.calendar.start),
            "calendar_end": str(self.calendar.end),
            "antennas": antenna_meta,
            "sites": site_meta,
        }
        save_state(path, {"totals": self.totals, "meta": json.dumps(meta)},
                   keep_backup=False)

    @classmethod
    def load(cls, path) -> "TrafficDataset":
        """Load a dataset previously written by :meth:`save`.

        Raises:
            CheckpointCorrupt: when the archive fails validation (see
                :func:`~repro.stream.checkpoint.load_state`) or is a valid
                archive of another kind (a key is missing).
            FileNotFoundError: when no file exists at ``path``.
        """
        from repro.stream.checkpoint import load_state, require_keys

        state = load_state(path)
        require_keys(state, path, ("totals", "meta"), "dataset")
        totals = np.asarray(state["totals"], dtype=float)
        meta = json.loads(state["meta"])
        sites = [
            Site(
                site_id=s["site_id"],
                name=s["name"],
                env_type=EnvironmentType(s["env_type"]),
                city=s["city"],
                is_paris=bool(s["is_paris"]),
                surrounding=Surrounding(s["surrounding"]),
                lat=float(s["lat"]),
                lon=float(s["lon"]),
            )
            for s in meta["sites"]
        ]
        antennas = [
            Antenna(
                antenna_id=a["antenna_id"],
                name=a["name"],
                site_id=a["site_id"],
                env_type=EnvironmentType(a["env_type"]),
                city=a["city"],
                is_paris=bool(a["is_paris"]),
                surrounding=Surrounding(a["surrounding"]),
                lat=float(a["lat"]),
                lon=float(a["lon"]),
                archetype=Archetype(a["archetype"]),
                technology=a["technology"],
            )
            for a in meta["antennas"]
        ]
        catalog = default_catalog()
        calendar = StudyCalendar(
            np.datetime64(meta["calendar_start"]), np.datetime64(meta["calendar_end"])
        )
        model = TrafficModel(
            catalog, sites, antennas, calendar, master_seed=meta["master_seed"]
        )
        model._totals = totals
        return cls(
            sites=sites,
            antennas=antennas,
            catalog=catalog,
            calendar=calendar,
            totals=totals,
            model=model,
            master_seed=int(meta["master_seed"]),
        )


def generate_dataset(
    master_seed: int = 0,
    specs: Optional[Sequence[EnvironmentSpec]] = None,
    catalog: Optional[ServiceCatalog] = None,
    calendar: Optional[StudyCalendar] = None,
    share_noise_sigma: Optional[float] = None,
) -> TrafficDataset:
    """Generate a full synthetic nationwide ICN dataset.

    This is the library's main data entry point; with the default
    arguments it produces the paper-scale deployment (4,762 indoor
    antennas, 73 services, the 2022-11-21..2023-01-24 hourly calendar).

    Args:
        master_seed: seed controlling all randomness.
        specs: per-environment deployment specs (defaults to Table 1).
        catalog: service catalog (defaults to the 73-service catalog).
        calendar: study calendar (defaults to the paper's full period).
        share_noise_sigma: override of the per-antenna service-mix noise
            (used by the robustness ablation; default per TrafficModel).
    """
    catalog = catalog if catalog is not None else default_catalog()
    calendar = calendar if calendar is not None else StudyCalendar()
    sites, antennas = generate_layout(master_seed=master_seed, specs=specs)
    model_kwargs = {}
    if share_noise_sigma is not None:
        model_kwargs["share_noise_sigma"] = share_noise_sigma
    model = TrafficModel(
        catalog, sites, antennas, calendar, master_seed=master_seed,
        **model_kwargs,
    )
    return TrafficDataset(
        sites=sites,
        antennas=antennas,
        catalog=catalog,
        calendar=calendar,
        totals=model.totals(),
        model=model,
        master_seed=master_seed,
    )
