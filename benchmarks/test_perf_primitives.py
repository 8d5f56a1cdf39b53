"""Performance benchmarks of the core primitives (multi-round timings).

Unlike the figure-regeneration benches (single measured round over the
full deployment), these time the hot primitives statistically on reduced
inputs, so regressions in the from-scratch implementations show up in the
pytest-benchmark table.
"""

import numpy as np
import pytest

from repro.core.cluster import linkage, pairwise_distances
from repro.core.rca import rsca
from repro.core.validation import silhouette_score
from repro.explain.treeshap import TreeExplainer
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier


@pytest.fixture(scope="module")
def medium_features():
    rng = np.random.default_rng(0)
    totals = rng.lognormal(3.0, 1.0, size=(800, 73))
    return rsca(totals)


@pytest.fixture(scope="module")
def medium_labels(medium_features):
    rng = np.random.default_rng(1)
    return rng.integers(0, 9, size=medium_features.shape[0])


def test_perf_rsca(benchmark):
    rng = np.random.default_rng(0)
    totals = rng.lognormal(3.0, 1.0, size=(4762, 73))
    result = benchmark(rsca, totals)
    assert result.shape == (4762, 73)


def test_perf_pairwise_distances(benchmark, medium_features):
    result = benchmark(pairwise_distances, medium_features)
    assert result.shape == (800, 800)


def test_perf_ward_linkage(benchmark, medium_features):
    result = benchmark(linkage, medium_features, "ward")
    assert result.shape == (799, 4)


def test_perf_silhouette(benchmark, medium_features, medium_labels):
    value = benchmark(silhouette_score, medium_features, medium_labels)
    assert -1.0 <= value <= 1.0


def test_perf_tree_fit(benchmark, medium_features, medium_labels):
    def fit():
        return DecisionTreeClassifier(max_depth=6, max_features="sqrt",
                                      random_state=0).fit(
            medium_features, medium_labels
        )

    tree = benchmark(fit)
    assert tree.tree_ is not None


def test_perf_forest_predict(benchmark, medium_features, medium_labels):
    forest = RandomForestClassifier(n_estimators=20, max_depth=6,
                                    random_state=0).fit(
        medium_features, medium_labels
    )
    proba = benchmark(forest.predict_proba, medium_features[:200])
    assert proba.shape[0] == 200


def test_perf_treeshap_per_sample(benchmark, medium_features, medium_labels):
    forest = RandomForestClassifier(n_estimators=10, max_depth=6,
                                    random_state=0).fit(
        medium_features, medium_labels
    )
    explainer = TreeExplainer(forest)
    row = medium_features[:1]
    values = benchmark(explainer.shap_values, row)
    assert values.shape[0] == 1


def test_perf_kmeans(benchmark, medium_features):
    from repro.core.compare import KMeans

    def fit():
        return KMeans(n_clusters=9, n_init=3, random_state=0).fit(
            medium_features
        )

    model = benchmark(fit)
    assert model.labels_ is not None


def test_perf_spectral(benchmark, medium_features):
    from repro.core.spectral import SpectralClustering

    def fit():
        return SpectralClustering(n_clusters=9, random_state=0).fit(
            medium_features[:400]
        )

    model = benchmark(fit)
    assert model.labels_ is not None


def test_perf_kernel_shap(benchmark):
    from repro.explain.kernel import kernel_shap

    rng = np.random.default_rng(0)
    background = rng.normal(size=(40, 8))
    x = rng.normal(size=8)
    model = lambda rows: np.tanh(rows).sum(axis=1)
    phi = benchmark(kernel_shap, model, x, background, 200)
    assert phi.shape == (8,)
