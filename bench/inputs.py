"""Seeded inputs shared by the workloads: the dataset and the served profile."""

from __future__ import annotations

import dataclasses
import time
from typing import Tuple

import numpy as np

from repro import ICNProfiler, TrafficDataset, generate_dataset
from repro.datagen.scenarios import scaled_specs
from repro.obs import span
from repro.stream import FrozenProfile

#: Cluster count the paper selects (Section 4.3).
N_CLUSTERS = 9

#: Antennas the served profile is fitted on.  A fit on all 4,762 costs
#: about 9 s and would be paid in the set-up of three workloads on every
#: run; a seeded 1,200-antenna sample costs about 2.5 s.  Both give a
#: 100-tree, depth-6 forest; ``python -m bench fit-sample`` measures what
#: each costs the online workloads per row.
REFERENCE_ANTENNAS = 1200


def dataset(seed: int, smoke: bool) -> Tuple[TrafficDataset, float]:
    """The paper-scale dataset of ``seed`` (about 240 antennas in smoke
    mode), with the seconds it took to generate."""
    specs = scaled_specs(0.05, minimum_per_environment=6) if smoke else None
    start = time.perf_counter()
    with span("bench.generate_dataset", seed=seed):
        ds = generate_dataset(master_seed=seed, specs=specs)
    return ds, time.perf_counter() - start


def popularity(totals: np.ndarray) -> np.ndarray:
    """How often the serve workloads query each antenna: in proportion to
    its total traffic volume, so antennas that carry more traffic are
    looked up more often."""
    volume = totals.sum(axis=1)
    return volume / volume.sum()


def frozen_profile(ds: TrafficDataset, seed: int) -> FrozenProfile:
    """Fit the paper's 9-cluster profile on a seeded antenna sample and
    freeze it for serving and streaming."""
    rng = np.random.default_rng([seed, 5])
    ids = np.sort(rng.choice(ds.n_antennas, min(REFERENCE_ANTENNAS, ds.n_antennas),
                             replace=False))
    totals = ds.totals[ids]
    with span("bench.fit", antennas=int(ids.size)):
        profile = ICNProfiler(n_clusters=N_CLUSTERS).fit(totals)
    # A matrix fit names its columns service_0..; streamed batches carry
    # the catalog's names.
    profile = dataclasses.replace(profile, service_names=list(ds.service_names))
    with span("bench.freeze"):
        return profile.freeze(antenna_ids=ids, service_totals=totals.sum(axis=0))
