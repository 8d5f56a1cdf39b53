"""Figure export as PPM images (no plotting library required).

The reproduction environment has no matplotlib, but the binary PPM (P6)
format is simple enough to write directly, so the heatmap figures can be
regenerated as real image files: a diverging blue-white-red colormap for
RSCA (Fig. 4's blue = over-utilization, red = under), and a sequential
colormap for the temporal heatmaps (Figs. 10-11).  Any image viewer or
converter (ImageMagick, Pillow, browsers via conversion) opens PPM.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.utils.checks import check_matrix


def _lerp(a: Tuple[int, int, int], b: Tuple[int, int, int],
          t: np.ndarray) -> np.ndarray:
    """Linear interpolation between two RGB colours for t in [0, 1]."""
    a_arr = np.array(a, dtype=float)
    b_arr = np.array(b, dtype=float)
    return a_arr[None, :] + (b_arr - a_arr)[None, :] * t[:, None]


def diverging_colormap(values: np.ndarray) -> np.ndarray:
    """Blue-white-red map for values in [-1, 1] (RSCA semantics).

    Positive (over-utilization) maps to blue, negative to red — matching
    the colour semantics of the paper's Fig. 4.
    """
    v = np.clip(np.asarray(values, dtype=float).ravel(), -1.0, 1.0)
    out = np.empty((v.size, 3))
    positive = v >= 0
    white = (255, 255, 255)
    blue = (33, 102, 172)
    red = (178, 24, 43)
    out[positive] = _lerp(white, blue, v[positive])
    out[~positive] = _lerp(white, red, -v[~positive])
    return out.astype(np.uint8)


def sequential_colormap(values: np.ndarray) -> np.ndarray:
    """White-to-dark-blue map for values in [0, 1] (load heatmaps)."""
    v = np.clip(np.asarray(values, dtype=float).ravel(), 0.0, 1.0)
    light = (247, 251, 255)
    dark = (8, 48, 107)
    return _lerp(light, dark, v).astype(np.uint8)


def write_ppm(path, pixels: np.ndarray) -> None:
    """Write an (H, W, 3) uint8 array as a binary PPM (P6) file."""
    image = np.asarray(pixels)
    if image.ndim != 3 or image.shape[2] != 3 or image.dtype != np.uint8:
        raise ValueError(
            f"pixels must be (H, W, 3) uint8, got {image.shape} {image.dtype}"
        )
    path = Path(path)
    with path.open("wb") as handle:
        handle.write(f"P6\n{image.shape[1]} {image.shape[0]}\n255\n".encode())
        handle.write(image.tobytes())


def matrix_to_image(
    matrix: np.ndarray,
    colormap: str = "sequential",
    cell_size: int = 4,
) -> np.ndarray:
    """Render a matrix as an RGB pixel array with block cells.

    Args:
        matrix: 2-D values; range [-1, 1] for ``"diverging"``, [0, 1] for
            ``"sequential"``.
        colormap: ``"sequential"`` or ``"diverging"``.
        cell_size: square pixels per matrix cell.
    """
    grid = check_matrix(matrix, "matrix")
    if cell_size < 1:
        raise ValueError(f"cell_size must be >= 1, got {cell_size}")
    if colormap == "diverging":
        colours = diverging_colormap(grid)
    elif colormap == "sequential":
        colours = sequential_colormap(grid)
    else:
        raise ValueError(
            f"unknown colormap {colormap!r}; use 'sequential' or 'diverging'"
        )
    image = colours.reshape(grid.shape[0], grid.shape[1], 3)
    return np.repeat(np.repeat(image, cell_size, axis=0), cell_size, axis=1)


def save_rsca_figure(
    path,
    rsca_matrix: np.ndarray,
    labels: Sequence[int],
    max_width: int = 1200,
) -> None:
    """Save the Fig. 4 RSCA heatmap (services x cluster-sorted antennas).

    Antenna columns are ordered by cluster; column blocks are averaged
    down to at most ``max_width`` pixels.
    """
    matrix = check_matrix(rsca_matrix, "rsca_matrix")
    labels = np.asarray(labels, dtype=int)
    if labels.shape[0] != matrix.shape[0]:
        raise ValueError("one label per antenna row is required")
    order = np.argsort(labels, kind="stable")
    blocks = np.array_split(order, min(max_width, order.size))
    compressed = np.stack(
        [matrix[idx].mean(axis=0) for idx in blocks], axis=1
    )  # services x column-blocks
    write_ppm(path, matrix_to_image(compressed, "diverging", cell_size=4))


def save_temporal_figure(path, heatmap, cell_size: int = 8) -> None:
    """Save a Fig. 10/11 temporal heatmap (days x hours) as PPM."""
    write_ppm(
        path, matrix_to_image(heatmap.values, "sequential", cell_size)
    )
