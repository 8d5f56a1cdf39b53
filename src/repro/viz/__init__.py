"""Terminal figure renderers (matplotlib-free)."""

from repro.viz.image import (
    matrix_to_image,
    save_rsca_figure,
    save_temporal_figure,
    write_ppm,
)
from repro.viz.render import (
    render_beeswarm_table,
    render_dendrogram_summary,
    render_distribution,
    render_heatmap,
    render_histogram,
    render_rsca_heatmap,
    render_sankey,
    render_scan,
)

__all__ = [
    "render_beeswarm_table",
    "render_dendrogram_summary",
    "render_distribution",
    "render_heatmap",
    "render_histogram",
    "render_rsca_heatmap",
    "render_sankey",
    "render_scan",
    "matrix_to_image",
    "write_ppm",
    "save_rsca_figure",
    "save_temporal_figure",
]
