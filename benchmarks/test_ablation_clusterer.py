"""Ablation — clustering algorithm: agglomerative/Ward vs k-means.

The paper picks agglomerative clustering "due to its comprehensibility"
(the dendrogram gives the group structure of Fig. 3).  This ablation
checks the cost of that choice: k-means on the same RSCA features should
recover the same partition (so the paper's findings are not an artefact
of the algorithm), while only the hierarchy yields the 3-group view.
"""

import numpy as np

from repro.core.cluster import AgglomerativeClustering
from repro.core.compare import KMeans, adjusted_rand_index
from repro.core.rca import rsca

from conftest import run_once


def test_ablation_clustering_algorithm(benchmark, dataset):
    features = rsca(dataset.totals)
    reference = dataset.archetypes()

    kmeans_labels = run_once(
        benchmark,
        lambda: KMeans(n_clusters=9, n_init=5, random_state=0).fit_predict(
            features
        ),
    )
    ward_labels = AgglomerativeClustering(n_clusters=9).fit_predict(features)

    # Spectral clustering on a subsample (its dense eigendecomposition is
    # O(N^3); 1,500 antennas suffice for the agreement check).
    from repro.core.spectral import SpectralClustering

    rng = np.random.default_rng(0)
    subsample = rng.choice(features.shape[0], size=1500, replace=False)
    spectral_labels = SpectralClustering(
        n_clusters=9, random_state=0
    ).fit_predict(features[subsample])

    ari_kmeans = adjusted_rand_index(kmeans_labels, reference)
    ari_ward = adjusted_rand_index(ward_labels, reference)
    ari_cross = adjusted_rand_index(kmeans_labels, ward_labels)
    ari_spectral = adjusted_rand_index(spectral_labels, reference[subsample])

    # All three algorithm families recover the latent structure.
    assert ari_ward > 0.95
    assert ari_kmeans > 0.9
    assert ari_cross > 0.9
    assert ari_spectral > 0.8

    print(f"\n[ablation/clusterer] ARI vs archetypes: ward {ari_ward:.3f}, "
          f"kmeans {ari_kmeans:.3f}, spectral {ari_spectral:.3f} "
          f"(1.5k subsample); ward-vs-kmeans {ari_cross:.3f}")
    print("[ablation/clusterer] conclusion: the partition is algorithm-"
          "robust; the dendrogram (Fig. 3 groups) is what Ward adds")
