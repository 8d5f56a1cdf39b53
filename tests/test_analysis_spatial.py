"""Tests for the spatial (city/surrounding) cluster analysis."""

import numpy as np
import pytest

from repro.analysis.spatial import SpatialBreakdown, spatial_breakdown
from repro.datagen.antennas import Antenna
from repro.datagen.archetypes import Archetype
from repro.datagen.environments import EnvironmentType, Surrounding


def make_antenna(i, city, is_paris, surrounding=Surrounding.URBAN):
    return Antenna(
        antenna_id=i, name=f"{city.upper()}-METRO-{i:04d}", site_id=0,
        env_type=EnvironmentType.METRO, city=city, is_paris=is_paris,
        surrounding=surrounding, lat=48.0, lon=2.0,
        archetype=Archetype.GENERAL_USE,
    )


def paper_geography_checks(breakdown: SpatialBreakdown,
                           commuter_threshold: float = 0.85):
    """Evaluate the paper's Section 5.2.2 geography statements.

    Returns a named dict of booleans, one per claim (with the cluster ids
    aligned to the paper numbering):

    * ``paris_commuters``: clusters 0 and 4 are predominantly Parisian
      (paper: >92%).
    * ``provincial_metro``: cluster 7 has no Parisian antennas.
    * ``provincial_retail``: cluster 2 is predominantly outside Paris
      (paper: ~92% outside).
    * ``paris_offices``: cluster 3 is mostly Parisian (paper: ~70%).
    * ``stadium_split``: cluster 6 is non-capital while cluster 8 is
      majority-Paris (paper: ~60%).
    """
    shares = breakdown.paris_shares
    required = {0, 2, 3, 4, 6, 7, 8}
    missing = required - set(shares)
    if missing:
        raise ValueError(f"breakdown lacks clusters {sorted(missing)}")
    return {
        "paris_commuters": (
            shares[0] > commuter_threshold and shares[4] > commuter_threshold
        ),
        "provincial_metro": shares[7] < 0.02,
        "provincial_retail": shares[2] < 0.3,
        "paris_offices": shares[3] > 0.55,
        "stadium_split": shares[6] < 0.2 and shares[8] > 0.5,
    }


class TestSpatialBreakdown:
    @pytest.fixture()
    def toy(self):
        antennas = [
            make_antenna(0, "Paris", True),
            make_antenna(1, "Paris", True),
            make_antenna(2, "Lyon", False, Surrounding.SUBURBAN),
            make_antenna(3, "Lille", False),
        ]
        labels = [0, 0, 1, 1]
        return spatial_breakdown(antennas, labels)

    def test_paris_shares(self, toy):
        assert toy.paris_shares[0] == 1.0
        assert toy.paris_shares[1] == 0.0

    def test_city_shares(self, toy):
        assert toy.city_shares[0] == {"Paris": 1.0}
        assert toy.city_shares[1] == {"Lyon": 0.5, "Lille": 0.5}

    def test_surrounding_shares(self, toy):
        assert toy.surrounding_shares[1][Surrounding.SUBURBAN] == 0.5

    def test_top_city(self, toy):
        assert toy.top_city(0) == ("Paris", 1.0)
        with pytest.raises(KeyError):
            toy.top_city(9)

    def test_capital_classification(self, toy):
        assert toy.is_capital_cluster(0)
        assert not toy.is_capital_cluster(1)
        assert toy.non_capital_clusters() == [1]

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="labels length"):
            spatial_breakdown([make_antenna(0, "Paris", True)], [0, 1])

    def test_on_generated_profile(self, small_dataset, small_profile):
        breakdown = spatial_breakdown(small_dataset.antennas,
                                      small_profile.labels)
        # The ~480-antenna run has more sampling noise than the full
        # deployment, so the commuter Paris threshold is relaxed a touch.
        checks = paper_geography_checks(breakdown, commuter_threshold=0.75)
        failed = [name for name, ok in checks.items() if not ok]
        assert not failed, f"failed geography checks: {failed}"

    def test_cluster7_cities_are_metro_cities(self, small_dataset,
                                              small_profile):
        breakdown = spatial_breakdown(small_dataset.antennas,
                                      small_profile.labels)
        assert set(breakdown.city_shares[7]) <= {
            "Lille", "Lyon", "Rennes", "Toulouse"
        }


class TestGeographyChecks:
    def test_missing_cluster_rejected(self):
        antennas = [make_antenna(0, "Paris", True)]
        breakdown = spatial_breakdown(antennas, [0])
        with pytest.raises(ValueError, match="lacks clusters"):
            paper_geography_checks(breakdown)
