"""Tests for the PPM image export."""

from pathlib import Path

import numpy as np
import pytest

from repro.viz.image import (
    diverging_colormap,
    matrix_to_image,
    save_rsca_figure,
    save_temporal_figure,
    sequential_colormap,
    write_ppm,
)


def read_ppm(path) -> np.ndarray:
    """Read back a binary PPM written by ``write_ppm``."""
    data = Path(path).read_bytes()
    if not data.startswith(b"P6"):
        raise ValueError("not a binary PPM (P6) file")
    parts = data.split(b"\n", 3)
    if len(parts) < 4:
        raise ValueError("truncated PPM header")
    width, height = (int(x) for x in parts[1].split())
    pixels = np.frombuffer(parts[3], dtype=np.uint8,
                           count=width * height * 3)
    return pixels.reshape(height, width, 3)


class TestColormaps:
    def test_diverging_endpoints(self):
        colours = diverging_colormap(np.array([-1.0, 0.0, 1.0]))
        # -1 -> red, 0 -> white, +1 -> blue (paper Fig. 4 semantics).
        assert colours[0][0] > colours[0][2]  # red channel dominates
        np.testing.assert_array_equal(colours[1], [255, 255, 255])
        assert colours[2][2] > colours[2][0]  # blue channel dominates

    def test_diverging_clips(self):
        colours = diverging_colormap(np.array([-5.0, 5.0]))
        np.testing.assert_array_equal(
            colours, diverging_colormap(np.array([-1.0, 1.0]))
        )

    def test_sequential_monotone_darkness(self):
        colours = sequential_colormap(np.linspace(0, 1, 5))
        brightness = colours.astype(int).sum(axis=1)
        assert np.all(np.diff(brightness) < 0)

    def test_uint8_output(self):
        assert diverging_colormap(np.array([0.3])).dtype == np.uint8
        assert sequential_colormap(np.array([0.3])).dtype == np.uint8


class TestPpmRoundtrip:
    def test_write_and_read(self, tmp_path, rng):
        pixels = rng.integers(0, 256, size=(10, 16, 3), dtype=np.uint8)
        path = tmp_path / "img.ppm"
        write_ppm(path, pixels)
        recovered = read_ppm(path)
        np.testing.assert_array_equal(recovered, pixels)

    def test_write_rejects_bad_shape(self, tmp_path):
        with pytest.raises(ValueError, match="uint8"):
            write_ppm(tmp_path / "x.ppm", np.zeros((4, 4), dtype=np.uint8))

    def test_read_rejects_non_ppm(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"GIF89a...")
        with pytest.raises(ValueError, match="P6"):
            read_ppm(path)


class TestMatrixToImage:
    def test_cell_scaling(self):
        image = matrix_to_image(np.zeros((3, 5)), cell_size=4)
        assert image.shape == (12, 20, 3)

    def test_colormap_selection(self):
        seq = matrix_to_image(np.array([[0.0, 1.0]]), "sequential", 1)
        div = matrix_to_image(np.array([[0.0, 1.0]]), "diverging", 1)
        assert not np.array_equal(seq, div)
        with pytest.raises(ValueError, match="colormap"):
            matrix_to_image(np.zeros((2, 2)), "rainbow")

    def test_cell_size_validated(self):
        with pytest.raises(ValueError, match="cell_size"):
            matrix_to_image(np.zeros((2, 2)), cell_size=0)


class TestFigureExports:
    def test_rsca_figure(self, tmp_path, small_profile):
        path = tmp_path / "fig4.ppm"
        save_rsca_figure(path, small_profile.features, small_profile.labels,
                         max_width=120)
        image = read_ppm(path)
        assert image.shape[0] == 73 * 4  # one row block per service
        assert image.shape[2] == 3

    def test_temporal_figure(self, tmp_path, small_dataset, small_profile):
        from repro.analysis.temporal import cluster_temporal_heatmap

        heatmap = cluster_temporal_heatmap(
            small_dataset, small_profile.labels, 0, max_antennas=10
        )
        path = tmp_path / "fig10_c0.ppm"
        save_temporal_figure(path, heatmap, cell_size=6)
        image = read_ppm(path)
        assert image.shape == (21 * 6, 24 * 6, 3)
