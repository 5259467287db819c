"""Canopy structure, lodging/weed severity, and head-density features.

Canopy height is the per-cell difference DSM - DEM with a small noise floor:
differences in [-floor, 0) clamp to 0 (registration jitter), anything below
-floor becomes nodata. Canopy volume is the cut-and-fill volume against two
horizontal reference planes (the plot's lowest and mean elevation), averaged.
Lodging and weed levels are pixel-ratio classifications with lower-exclusive,
upper-inclusive interval boundaries; their label rules are exposed as pure
functions of the ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._io import csv_rows
from .errors import EmptyInput, EmptyPlot, InvalidInput, ParseError
from .geodata import (
    PlotCells, PlotGeometry, RasterGrid, UnionRegion, plot_cells, require_same_geometry,
)
from .spectral import PlotStatistic

DEFAULT_NOISE_FLOOR_M = 0.05


@dataclass(frozen=True)
class CategoricalLevel:
    """A ratio-derived severity label for lodging (PL) or weeds (WL)."""

    kind: str
    ratio: float
    special: bool = False  # PL only: the special flag overrides the ratio

    def __post_init__(self):
        if self.kind not in ("PL", "WL"):
            raise InvalidInput(f"kind must be PL or WL, got {self.kind!r}")
        if not (0.0 <= self.ratio <= 1.0):
            raise InvalidInput(f"ratio must be in [0, 1], got {self.ratio}")
        if self.special and self.kind != "PL":
            raise InvalidInput("only a PL level can be special")

    @property
    def level(self) -> str:
        return lodging_level(self.ratio, self.special) if self.kind == "PL" else weed_level(self.ratio)


@dataclass(frozen=True)
class CanopyVolumeResult:
    """Cut-and-fill volumes against the two reference planes, plus their mean."""

    volume_lowest_plane: float
    volume_mean_plane: float

    def __post_init__(self):
        if self.volume_lowest_plane < 0 or self.volume_mean_plane < 0:
            raise InvalidInput("component volumes must be >= 0")

    @property
    def volume(self) -> float:
        return (self.volume_lowest_plane + self.volume_mean_plane) / 2.0


@dataclass(frozen=True)
class WheatHeadDensity:
    """Mean detected heads per image over the image ground footprint."""

    heads_per_image: float
    ground_area: float

    def __post_init__(self):
        if not self.ground_area > 0:
            raise InvalidInput("ground_area must be > 0")

    @property
    def density(self) -> float:
        return self.heads_per_image / self.ground_area


def canopy_height_model(
    dsm: RasterGrid,
    dem: RasterGrid,
    noise_floor: float = DEFAULT_NOISE_FLOOR_M,
) -> RasterGrid:
    """Canopy height CH = DSM - DEM per cell (meters), with negative-noise handling.

    CH is defined where DSM and DEM both are. Differences below
    ``-noise_floor`` are treated as registration error and become nodata;
    differences in [-noise_floor, 0) clamp to 0.
    """
    require_same_geometry(dsm, dem)
    if noise_floor < 0:
        raise InvalidInput("noise_floor must be >= 0")
    diff = dsm.values - dem.values
    defined = dsm.defined & dem.defined & (diff >= -noise_floor)
    clamped = np.maximum(diff, 0.0)
    values = np.where(defined, clamped, dsm.nodata)
    return dsm.with_values(values)


def nearest_rank_percentile(values: np.ndarray, percentile: float) -> float:
    """Nearest-rank percentile: the ceil(p*n)-th smallest value."""
    if not (0.0 < percentile <= 1.0):
        raise InvalidInput(f"percentile must be in (0, 1], got {percentile}")
    ordered = np.sort(np.asarray(values, dtype=np.float64).ravel())
    if ordered.size == 0:
        raise InvalidInput("percentile of an empty set")
    rank = max(1, math.ceil(percentile * ordered.size))
    return float(ordered[rank - 1])


def plot_canopy_height(
    chm: RasterGrid,
    plot: PlotGeometry | PlotCells,
    percentile: float = 0.95,
) -> PlotStatistic:
    """Percentile of canopy height over the plot cells (nearest-rank)."""
    cells = plot_cells(chm, plot)
    vals = cells.values(chm)
    if vals.size == 0:
        raise EmptyPlot(f"plot {cells.plot_id}: no defined canopy-height cells")
    return PlotStatistic(
        plot_id=cells.plot_id,
        feature_name="CH",
        value=nearest_rank_percentile(vals, percentile),
        n_cells=int(vals.size),
    )


def canopy_volume(surface: RasterGrid, plot: PlotGeometry | PlotCells) -> CanopyVolumeResult:
    """Cut-and-fill volume of a surface over a plot.

    For each reference plane z_ref in {min z, mean z over the plot cells},
    volume = sum over cells of |z - z_ref| * cell_area; the reported volume
    is the average of the two.
    """
    cells = plot_cells(surface, plot)
    z = cells.values(surface)
    if z.size == 0:
        raise EmptyPlot(f"plot {cells.plot_id}: no defined surface cells")
    cell_area = surface.cell_size * surface.cell_size
    v_low = float(np.sum(np.abs(z - z.min())) * cell_area)
    v_mean = float(np.sum(np.abs(z - np.mean(z))) * cell_area)
    return CanopyVolumeResult(volume_lowest_plane=v_low, volume_mean_plane=v_mean)


def lodging_level(ratio: float, special: bool = False) -> str:
    """PL label for a lodged-area ratio; the special flag overrides."""
    if special:
        return "special"
    if not (0.0 <= ratio <= 1.0):
        raise InvalidInput(f"lodging ratio must be in [0, 1], got {ratio}")
    if ratio == 0.0:
        return "no_lodging"
    if ratio <= 0.5:
        return "slight"
    return "severe"


def weed_level(ratio: float) -> str:
    """WL label for a weed-pixel ratio."""
    if not (0.0 <= ratio <= 1.0):
        raise InvalidInput(f"weed ratio must be in [0, 1], got {ratio}")
    if ratio <= 0.10:
        return "no_weeds"
    if ratio <= 0.40:
        return "slight"
    if ratio <= 0.70:
        return "moderate"
    return "severe"


def _region_ratio(mask: RasterGrid, region) -> float:
    """1-cells of the binary ``mask`` / all cells, over the region's cells."""
    n_pos, n_all = plot_cells(mask, region).count(mask)
    return n_pos / n_all


def classify_lodging(
    lodging_mask: RasterGrid,
    plot: PlotGeometry | PlotCells,
    special: bool = False,
) -> CategoricalLevel:
    """Lodging level from the lodged-pixel ratio inside the plot."""
    ratio = _region_ratio(lodging_mask, plot)
    return CategoricalLevel(kind="PL", ratio=ratio, special=special)


def classify_weed(weed_mask: RasterGrid, region: UnionRegion | PlotCells) -> CategoricalLevel:
    """Weed level from the weed-pixel ratio over a plot plus its outer ring.

    ``region``: the UnionRegion of the plot and its ring, or its PlotCells.
    """
    ratio = _region_ratio(weed_mask, region)
    return CategoricalLevel(kind="WL", ratio=ratio)


def wheat_head_density(
    head_counts,
    altitude: float,
    fov_h: float,
    fov_v: float,
) -> WheatHeadDensity:
    """Heads per square meter from per-image counts and the camera footprint.

    The footprint assumes a nadir camera over flat ground:
    width = 2 * altitude * tan(fov/2) per axis, FOV in degrees.
    """
    counts = list(head_counts)
    if not counts:
        raise InvalidInput("head_counts must be non-empty")
    if any(c < 0 for c in counts):
        raise InvalidInput("head counts must be >= 0")
    if not altitude > 0:
        raise InvalidInput(f"altitude must be > 0, got {altitude}")
    for fov in (fov_h, fov_v):
        if not (0.0 < fov < 180.0):
            raise InvalidInput(f"field of view must be in (0, 180) degrees, got {fov}")
    width = 2.0 * altitude * math.tan(math.radians(fov_h) / 2.0)
    height = 2.0 * altitude * math.tan(math.radians(fov_v) / 2.0)
    area = width * height
    mean_heads = float(np.mean(np.asarray(counts, dtype=np.float64)))
    return WheatHeadDensity(heads_per_image=mean_heads, ground_area=area)


def load_head_counts(path) -> dict:
    """Read per-image head counts from CSV (plot_id, image_id, count).

    Returns plot_id -> list of counts in file order. An empty plot_id or a
    repeated (plot_id, image_id) is a ParseError at its line.
    """
    counts: dict[str, list[int]] = {}
    seen = set()
    for i, (plot_id, image_id, count) in csv_rows(path, ("plot_id", "image_id", "count")):
        plot_id, image_id = plot_id.strip(), image_id.strip()
        if not plot_id:
            raise ParseError("empty plot_id", line=i)
        if (plot_id, image_id) in seen:
            raise ParseError(f"plot {plot_id}: duplicate image_id {image_id}", line=i)
        seen.add((plot_id, image_id))
        try:
            value = int(count)
        except ValueError:
            raise ParseError(f"non-integer count {count!r}", line=i)
        if value < 0:
            raise ParseError("count must be >= 0", line=i)
        counts.setdefault(plot_id, []).append(value)
    if not counts:
        raise EmptyInput(f"no head-count rows in {path}")
    return counts
