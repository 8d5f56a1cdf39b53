"""repro: reproduction of "Characterizing Mobile Service Demands at Indoor
Cellular Networks" (IMC '23).

The package implements the paper's full analysis pipeline — RCA/RSCA
traffic transforms, agglomerative clustering with validity indices, a
random-forest surrogate with SHAP explanations, indoor-environment and
outdoor-comparison analyses, and temporal profiling — together with a
synthetic nationwide trace generator standing in for the proprietary
operator data (see DESIGN.md).

Quickstart::

    from repro import generate_dataset, ICNProfiler

    dataset = generate_dataset(master_seed=0)
    profiler = ICNProfiler(n_clusters=9)
    result = profiler.fit(dataset)
    print(result.summary())
"""

from repro.datagen import (
    Archetype,
    EnvironmentType,
    ServiceCatalog,
    TrafficDataset,
    default_catalog,
    generate_dataset,
)
from repro.core import (
    AgglomerativeClustering,
    ICNProfiler,
    KMeans,
    dunn_index,
    rca,
    rsca,
    silhouette_score,
)

__version__ = "1.0.0"

__all__ = [
    "Archetype",
    "EnvironmentType",
    "ServiceCatalog",
    "TrafficDataset",
    "default_catalog",
    "generate_dataset",
    "AgglomerativeClustering",
    "ICNProfiler",
    "KMeans",
    "rca",
    "rsca",
    "silhouette_score",
    "dunn_index",
    "__version__",
]
