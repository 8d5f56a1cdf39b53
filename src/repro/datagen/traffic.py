"""Traffic synthesis: two-month totals and on-demand hourly series.

The synthesizer is the library's stand-in for the operator's measurement
pipeline (DESIGN.md section 2).  It produces:

* the N x M **totals matrix** ``T`` (MB over the full study period) that
  feeds the RCA/RSCA transforms of Section 4.1;
* **hourly series** for any subset of antennas and any service (or the
  all-services total) over any window, used by the temporal analysis of
  Section 6 — re-synthesized deterministically from the master seed rather
  than stored (the full hourly tensor would be ~540M samples).

The hourly series of a pair (antenna ``i``, service ``j``) is the totals
entry ``T[i, j]`` spread over the study hours proportionally to the
temporal-model profile for (archetype_i, temporal_class_j), perturbed by
multiplicative log-normal noise and renormalized, so hourly series sum
exactly back to the totals matrix.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.datagen.antennas import Antenna, Site
from repro.datagen.archetypes import Archetype, ArchetypeProfile, default_profiles
from repro.datagen.calendar import (
    Event,
    StudyCalendar,
    nba_paris_event,
    random_expo_events,
    random_stadium_events,
    sirha_lyon_events,
)
from repro.datagen.environments import EnvironmentType, spec_for
from repro.datagen.services import ServiceCatalog, TemporalClass
from repro.datagen.temporal import TemporalModel
from repro.utils.rng import derive_rng

#: Default log-space sigma of per-(antenna, service) share noise.
SHARE_NOISE_SIGMA = 0.35
#: Default log-space sigma of per-antenna volume noise.
VOLUME_NOISE_SIGMA = 0.8
#: Default log-space sigma of per-hour multiplicative noise.
HOURLY_NOISE_SIGMA = 0.30


class TrafficModel:
    """Deterministic synthetic traffic source for one generated deployment.

    All randomness derives from ``master_seed`` via key paths, so any slice
    of the data can be re-synthesized independently and reproducibly.
    """

    def __init__(
        self,
        catalog: ServiceCatalog,
        sites: Sequence[Site],
        antennas: Sequence[Antenna],
        calendar: Optional[StudyCalendar] = None,
        profiles: Optional[Mapping[Archetype, ArchetypeProfile]] = None,
        master_seed: int = 0,
        share_noise_sigma: float = SHARE_NOISE_SIGMA,
        volume_noise_sigma: float = VOLUME_NOISE_SIGMA,
        hourly_noise_sigma: float = HOURLY_NOISE_SIGMA,
    ) -> None:
        if share_noise_sigma < 0 or volume_noise_sigma < 0 or hourly_noise_sigma < 0:
            raise ValueError("noise sigmas must be non-negative")
        self.catalog = catalog
        self.sites = list(sites)
        self.antennas = list(antennas)
        self.calendar = calendar if calendar is not None else StudyCalendar()
        self.profiles = dict(default_profiles() if profiles is None else profiles)
        self.master_seed = int(master_seed)
        self.share_noise_sigma = float(share_noise_sigma)
        self.volume_noise_sigma = float(volume_noise_sigma)
        self.hourly_noise_sigma = float(hourly_noise_sigma)
        self.temporal = TemporalModel(self.calendar)
        self._site_events = self._build_site_events()
        self._totals: Optional[np.ndarray] = None
        self._profile_cache: Dict[Tuple[int, int], Dict[TemporalClass, np.ndarray]] = {}

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------

    def _build_site_events(self) -> Dict[int, List[Event]]:
        """Attach event calendars to event-driven venues.

        Every stadium gets a match schedule and every expo centre a fair
        schedule.  One Paris stadium site hosts the 19 Jan NBA game and
        one Lyon expo site hosts the Sirha fair (paper Section 6.0.1).
        """
        events: Dict[int, List[Event]] = {}
        paris_stadiums = [
            s for s in self.sites
            if s.env_type == EnvironmentType.STADIUM and s.is_paris
        ]
        lyon_expos = [
            s for s in self.sites
            if s.env_type == EnvironmentType.EXPO and s.city == "Lyon"
        ]
        nba_site = paris_stadiums[0].site_id if paris_stadiums else None
        sirha_site = lyon_expos[0].site_id if lyon_expos else None
        for site in self.sites:
            rng = derive_rng(self.master_seed, "events", site.site_id)
            site_events: List[Event] = []
            if site.env_type == EnvironmentType.STADIUM:
                site_events = random_stadium_events(self.calendar, rng)
            elif site.env_type == EnvironmentType.EXPO:
                site_events = random_expo_events(self.calendar, rng)
            if site.site_id == nba_site:
                site_events.append(nba_paris_event())
            if site.site_id == sirha_site:
                site_events.extend(sirha_lyon_events())
            if site_events:
                events[site.site_id] = site_events
        return events

    def events_for_site(self, site_id: int) -> List[Event]:
        """Event calendar of one site (empty for non-venue sites)."""
        return list(self._site_events.get(site_id, ()))

    # ------------------------------------------------------------------
    # Totals
    # ------------------------------------------------------------------

    def service_shares(self) -> np.ndarray:
        """N x M matrix of per-antenna service shares (rows sum to 1)."""
        n_services = len(self.catalog)
        shares = np.empty((len(self.antennas), n_services))
        expected: Dict[Archetype, np.ndarray] = {
            arch: prof.service_weights(self.catalog)
            for arch, prof in self.profiles.items()
        }
        for i, antenna in enumerate(self.antennas):
            rng = derive_rng(self.master_seed, "shares", antenna.antenna_id)
            noise = rng.lognormal(0.0, self.share_noise_sigma, size=n_services)
            weights = expected[antenna.archetype] * noise
            shares[i] = weights / weights.sum()
        return shares

    def volumes(self) -> np.ndarray:
        """Per-antenna two-month total volume in MB (heavy-tailed)."""
        vols = np.empty(len(self.antennas))
        for i, antenna in enumerate(self.antennas):
            rng = derive_rng(self.master_seed, "volume", antenna.antenna_id)
            median = spec_for(antenna.env_type).volume_scale
            vols[i] = median * rng.lognormal(0.0, self.volume_noise_sigma)
        return vols

    def totals(self) -> np.ndarray:
        """The N x M totals matrix T (MB over the whole study period)."""
        if self._totals is None:
            self._totals = self.volumes()[:, None] * self.service_shares()
        return self._totals

    def window_totals(self, window: slice) -> np.ndarray:
        """Expected N x M totals restricted to a calendar window.

        Computed analytically (per-class temporal-profile mass inside the
        window), so it is cheap enough to split the study period — e.g.
        month-over-month stability analyses — without synthesizing the
        per-service hourly noise for every (antenna, service) pair.
        """
        indices = range(*window.indices(self.calendar.n_hours))
        if len(indices) == 0:
            raise ValueError("window selects no hours")
        totals = self.totals()
        out = np.zeros_like(totals)
        class_columns: Dict[TemporalClass, np.ndarray] = {
            tclass: np.array(
                [j for j, svc in enumerate(self.catalog)
                 if svc.temporal_class is tclass],
                dtype=int,
            )
            for tclass in TemporalClass
        }
        for i, antenna in enumerate(self.antennas):
            profiles = self._antenna_profiles(antenna)
            for tclass, cols in class_columns.items():
                if cols.size == 0:
                    continue
                profile = profiles[tclass]
                mass = profile.sum()
                if mass <= 0:
                    continue
                fraction = profile[window].sum() / mass
                out[i, cols] = totals[antenna.antenna_id, cols] * fraction
        return out

    # ------------------------------------------------------------------
    # Hourly series
    # ------------------------------------------------------------------

    def _antenna_profiles(self, antenna: Antenna) -> Dict[TemporalClass, np.ndarray]:
        """Cached temporal profiles for one antenna's (archetype, site)."""
        key = (int(antenna.archetype), antenna.site_id)
        cached = self._profile_cache.get(key)
        if cached is None:
            events = self._site_events.get(antenna.site_id, ())
            cached = self.temporal.profiles_by_class(antenna.archetype, events)
            self._profile_cache[key] = cached
        return cached

    def _resolve_antennas(
        self, antenna_ids: Optional[Sequence[int]]
    ) -> List[Antenna]:
        if antenna_ids is None:
            return self.antennas
        by_id = {a.antenna_id: a for a in self.antennas}
        try:
            return [by_id[int(i)] for i in antenna_ids]
        except KeyError as exc:
            raise KeyError(f"unknown antenna id {exc.args[0]}") from None

    def hourly_service(
        self,
        service: str,
        antenna_ids: Optional[Sequence[int]] = None,
        window: Optional[slice] = None,
    ) -> np.ndarray:
        """Hourly traffic (MB) of one service at the selected antennas.

        Args:
            service: service name from the catalog.
            antenna_ids: antenna ids (defaults to all antennas, row order).
            window: slice over the calendar hour grid (defaults to all).

        Returns:
            array of shape ``(n_antennas, n_hours_in_window)``.  Summed
            over the *full* calendar, each row equals the totals entry.
        """
        j = self.catalog.index_of(service)
        tclass = self.catalog[j].temporal_class
        selected = self._resolve_antennas(antenna_ids)
        window = window if window is not None else slice(0, self.calendar.n_hours)
        totals = self.totals()
        out = np.empty((len(selected), len(range(*window.indices(self.calendar.n_hours)))))
        for row, antenna in enumerate(selected):
            profile = self._antenna_profiles(antenna)[tclass]
            rng = derive_rng(
                self.master_seed, "hourly", antenna.antenna_id, j
            )
            noisy = profile * rng.lognormal(0.0, self.hourly_noise_sigma, profile.shape)
            noisy_sum = noisy.sum()
            if noisy_sum <= 0:
                out[row] = 0.0
                continue
            series = totals[antenna.antenna_id, j] * noisy / noisy_sum
            out[row] = series[window]
        return out

    def hourly_total(
        self,
        antenna_ids: Optional[Sequence[int]] = None,
        window: Optional[slice] = None,
    ) -> np.ndarray:
        """Hourly all-services traffic (MB) at the selected antennas.

        Computed as the expectation over services (per temporal class) with
        antenna-level hourly noise — equivalent in distribution to summing
        the 73 per-service series, at 1/73rd the cost.
        """
        selected = self._resolve_antennas(antenna_ids)
        window = window if window is not None else slice(0, self.calendar.n_hours)
        totals = self.totals()
        class_columns: Dict[TemporalClass, np.ndarray] = {}
        for tclass in TemporalClass:
            cols = [
                j for j, svc in enumerate(self.catalog)
                if svc.temporal_class is tclass
            ]
            class_columns[tclass] = np.array(cols, dtype=int)
        n_window = len(range(*window.indices(self.calendar.n_hours)))
        out = np.empty((len(selected), n_window))
        for row, antenna in enumerate(selected):
            profiles = self._antenna_profiles(antenna)
            series = np.zeros(self.calendar.n_hours)
            for tclass, cols in class_columns.items():
                if cols.size == 0:
                    continue
                class_total = totals[antenna.antenna_id, cols].sum()
                profile = profiles[tclass]
                psum = profile.sum()
                if psum > 0:
                    series += class_total * profile / psum
            rng = derive_rng(self.master_seed, "hourly-total", antenna.antenna_id)
            series = series * rng.lognormal(0.0, self.hourly_noise_sigma / 2, series.shape)
            out[row] = series[window]
        return out
