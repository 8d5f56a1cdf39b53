"""Shared fixtures: scaled-down and full-scale synthetic datasets.

The full paper-scale dataset (4,762 antennas) and its fitted profile are
expensive, so they are session-scoped and only built by the integration
tests that need them; unit tests use a ~1/10-scale deployment that keeps
every environment type and archetype present.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import ICNProfiler
from repro.datagen.calendar import StudyCalendar
from repro.datagen.dataset import generate_dataset
from repro.datagen.scenarios import scaled_specs as _library_scaled_specs


def scaled_specs(scale: float = 0.1, minimum: int = 6):
    """Table 1 deployment scaled down, every environment kept non-trivial."""
    return _library_scaled_specs(scale, minimum_per_environment=minimum)


@pytest.fixture(scope="session")
def small_dataset():
    """~480-antenna deployment over the full study calendar."""
    return generate_dataset(master_seed=7, specs=scaled_specs(0.1))


@pytest.fixture(scope="session")
def small_profile(small_dataset):
    """Fitted pipeline on the small dataset, aligned to the archetypes."""
    profiler = ICNProfiler(n_clusters=9, surrogate_trees=30)
    return profiler.fit(small_dataset, align_to=small_dataset.archetypes())


@pytest.fixture(scope="session")
def full_dataset():
    """The paper-scale deployment (4,762 antennas, 73 services)."""
    return generate_dataset(master_seed=0)


@pytest.fixture(scope="session")
def full_profile(full_dataset):
    """Fitted paper-scale pipeline, aligned to the archetypes."""
    profiler = ICNProfiler(n_clusters=9)
    return profiler.fit(full_dataset, align_to=full_dataset.archetypes())


@pytest.fixture(scope="session")
def short_calendar():
    """A one-week calendar covering the strike day, for temporal tests."""
    return StudyCalendar(
        np.datetime64("2023-01-16T00", "h"), np.datetime64("2023-01-22T23", "h")
    )


@pytest.fixture()
def rng():
    """Fresh deterministic generator per test."""
    return np.random.default_rng(1234)


def build_frozen_profile(n_antennas=120, n_services=12, n_clusters=4,
                         seed=0, label_shift=0):
    """A small synthetic FrozenProfile for serving-layer tests.

    Built directly from lognormal traffic (no dataset generation), so the
    serve tests stay fast.  ``label_shift`` relabels the clusters — two
    profiles built with different shifts disagree on every answer, which
    the hot-swap tests use to detect version mixing.
    """
    from repro.core.cluster import AgglomerativeClustering
    from repro.core.rca import rsca
    from repro.ml.forest import RandomForestClassifier
    from repro.stream.frozen import FrozenProfile

    gen = np.random.default_rng(seed)
    totals = gen.lognormal(1.0, 1.0, size=(n_antennas, n_services))
    features = rsca(totals)
    labels = AgglomerativeClustering(
        n_clusters=n_clusters, linkage="ward"
    ).fit_predict(features) + int(label_shift)
    forest = RandomForestClassifier(n_estimators=10, max_depth=5,
                                    random_state=0)
    forest.fit(features, labels)
    clusters = np.unique(labels)
    centroids = np.vstack(
        [features[labels == c].mean(axis=0) for c in clusters]
    )
    return FrozenProfile(
        features=features,
        labels=labels,
        antenna_ids=np.arange(n_antennas, dtype=np.int64),
        clusters=clusters,
        centroids=centroids,
        service_names=tuple(f"service_{j}" for j in range(n_services)),
        surrogate=forest,
        service_totals=totals.sum(axis=0),
    ), totals


@pytest.fixture(scope="session")
def tiny_frozen():
    """Session-shared small frozen profile plus its raw totals."""
    return build_frozen_profile()


class SLOCounts:
    """The good/total counters a test SLO reads, set to cumulative values.

    ``update(good=G, total=T)`` raises the two registry counters to ``G``
    and ``T``; the SLO declares ``good=SLOCounts.GOOD`` and
    ``total=SLOCounts.TOTAL``.
    """

    GOOD = "slo_good_total"
    TOTAL = "slo_events_total"

    def __init__(self, registry) -> None:
        self._good = registry.counter(self.GOOD, "good events")
        self._total = registry.counter(self.TOTAL, "all events")

    def update(self, good: float, total: float) -> None:
        self._good.inc(good - self._good.value)
        self._total.inc(total - self._total.value)


def tsdb_history(tsdb, name):
    """Every recorded ``(t, value)`` sample of the one series ``name``."""
    [series] = tsdb.query(name)["series"]
    return [tuple(sample) for sample in series["samples"]]
