"""Synthetic nationwide ICN trace generator.

Substitutes the paper's proprietary operator traces (see DESIGN.md
section 2).  The main entry point is :func:`generate_dataset`.
"""

from repro.datagen.services import (
    Service,
    ServiceCatalog,
    ServiceCategory,
    TemporalClass,
    default_catalog,
)
from repro.datagen.environments import (
    EnvironmentSpec,
    EnvironmentType,
    Surrounding,
    TABLE1_COUNTS,
    TOTAL_INDOOR_ANTENNAS,
    default_specs,
    spec_for,
)
from repro.datagen.archetypes import (
    Archetype,
    ArchetypeProfile,
    GREEN_GROUP,
    GROUP_OF,
    ORANGE_GROUP,
    RED_GROUP,
    default_profiles,
)
from repro.datagen.calendar import (
    Event,
    STRIKE_DAY,
    StudyCalendar,
    TEMPORAL_WINDOW_END,
    TEMPORAL_WINDOW_START,
)
from repro.datagen.antennas import Antenna, Site, generate_layout
from repro.datagen.temporal import TemporalModel
from repro.datagen.traffic import TrafficModel
from repro.datagen.outdoor import OutdoorAntenna, generate_outdoor, neighbours_within
from repro.datagen.dataset import TrafficDataset, generate_dataset
from repro.datagen.scenarios import (
    available_scenarios,
    scaled_specs,
    scenario,
)
from repro.datagen.sessions import (
    Session,
    SessionGenerator,
    session_statistics,
)
from repro.datagen.validate import (
    CheckResult,
    validate_dataset,
    validation_report,
)

__all__ = [
    "Service",
    "ServiceCatalog",
    "ServiceCategory",
    "TemporalClass",
    "default_catalog",
    "EnvironmentSpec",
    "EnvironmentType",
    "Surrounding",
    "TABLE1_COUNTS",
    "TOTAL_INDOOR_ANTENNAS",
    "default_specs",
    "spec_for",
    "Archetype",
    "ArchetypeProfile",
    "ORANGE_GROUP",
    "GREEN_GROUP",
    "RED_GROUP",
    "GROUP_OF",
    "default_profiles",
    "Event",
    "STRIKE_DAY",
    "StudyCalendar",
    "TEMPORAL_WINDOW_START",
    "TEMPORAL_WINDOW_END",
    "Antenna",
    "Site",
    "generate_layout",
    "TemporalModel",
    "TrafficModel",
    "OutdoorAntenna",
    "generate_outdoor",
    "neighbours_within",
    "TrafficDataset",
    "generate_dataset",
    "CheckResult",
    "validate_dataset",
    "validation_report",
    "Session",
    "SessionGenerator",
    "session_statistics",
    "scenario",
    "available_scenarios",
    "scaled_specs",
]
