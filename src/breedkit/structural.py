"""Canopy structure, lodging/weed severity, and head-density features.

Canopy height is the per-cell difference DSM - DEM with a small noise floor:
differences in [-floor, 0) clamp to 0 (registration jitter), anything below
-floor becomes nodata. Canopy volume is the cut-and-fill volume against two
horizontal reference planes (the plot's lowest and mean elevation), averaged.
Lodging and weed levels are pixel-ratio classifications with lower-exclusive,
upper-inclusive interval boundaries; their label rules are exposed as pure
functions of the ratio.

``plot_canopy_heights`` and ``canopy_volumes`` reduce every plot of a
``geodata.PlotCellStack`` at once and return (values, counts, failure), as
``spectral.plot_statistics`` does; ``plot_canopy_height`` and
``canopy_volume`` are their one-region case, as ``classify_lodging`` and
``classify_weed`` are of ``PlotCellStack.ratios``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._io import csv_rows, finite_number, integer
from .errors import EmptyInput, EmptyPlot, InvalidInput, ParseError
from .geodata import (
    PlotCellStack, PlotGeometry, PlotWithRing, RasterGrid, require_same_geometry, stack_cells,
)
from .spectral import PlotStatistic, fvc, plot_means, rows_by_size

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


def nearest_rank_percentiles(values: np.ndarray, sizes: np.ndarray, percentile: float) -> np.ndarray:
    """Each region's nearest-rank percentile: its ceil(p*n)-th smallest value (NaN for none).

    ``values`` holds ``sizes[i]`` values of each region i, one region after
    another; regions with the same count are sorted as one block.
    """
    if not (0.0 < percentile <= 1.0):
        raise InvalidInput(f"percentile must be in (0, 1], got {percentile}")
    out = np.full(len(sizes), np.nan)
    for regions, block in rows_by_size(values, sizes):
        n = block.shape[1]
        out[regions] = np.sort(block, axis=1)[:, max(1, math.ceil(percentile * n)) - 1]
    return out


def _no_canopy_height(plot_id: str) -> EmptyPlot:
    return EmptyPlot(f"plot {plot_id}: no defined canopy-height cells")


def _no_surface(plot_id: str) -> EmptyPlot:
    return EmptyPlot(f"plot {plot_id}: no defined surface cells")


def plot_canopy_height(
    chm: RasterGrid,
    plot: PlotGeometry,
    percentile: float = 0.95,
) -> PlotStatistic:
    """Percentile of canopy height over the plot cells (nearest-rank).

    ``plot_canopy_heights`` of one plot.
    """
    (height,), (n_cells,), failure = plot_canopy_heights(chm, stack_cells(chm, [plot]), percentile)
    if failure is not None:
        raise failure[1]
    return PlotStatistic(plot_id=plot.plot_id, feature_name="CH", value=float(height),
                         n_cells=int(n_cells))


def plot_canopy_heights(
    chm: RasterGrid,
    cells: PlotCellStack,
    percentile: float = 0.95,
) -> tuple[np.ndarray, np.ndarray, tuple | None]:
    """``plot_canopy_height`` of every region of ``cells``: (values, counts, failure).

    As ``spectral.plot_statistics``; a percentile out of range fails every
    region, after its own checks for cells.
    """
    values, counts = cells.values(chm)
    undefined = (counts == 0, lambda i: _no_canopy_height(cells.plot_ids[i]))
    try:
        heights = nearest_rank_percentiles(values, counts, percentile)
    except InvalidInput as exc:
        return (np.full(counts.shape, np.nan), counts,
                cells.first_failure(undefined, (True, lambda i: exc)))
    return heights, counts, cells.first_failure(undefined)


def _cut_and_fill(z: np.ndarray, sizes: np.ndarray, cell_area: float) -> tuple[np.ndarray, np.ndarray]:
    """Each region's cut-and-fill volumes against its lowest and its mean elevation (NaN for none).

    ``z`` holds ``sizes[i]`` elevations of each region i, one region after another.
    """
    planes = plot_means(z, sizes)
    low, mean = np.full(len(sizes), np.nan), np.full(len(sizes), np.nan)
    for regions, block in rows_by_size(z, sizes):
        low[regions] = np.add.reduce(np.abs(block - block.min(axis=1, keepdims=True)), axis=1)
        mean[regions] = np.add.reduce(np.abs(block - planes[regions, None]), axis=1)
    return low * cell_area, mean * cell_area


def canopy_volume(surface: RasterGrid, plot: PlotGeometry) -> CanopyVolumeResult:
    """Cut-and-fill volume of a surface over a plot.

    For each reference plane z_ref in {min z, mean z over the plot cells},
    volume = sum over cells of |z - z_ref| * cell_area; the reported volume
    is the average of the two, as ``canopy_volumes`` gives it for every plot.
    """
    cells = stack_cells(surface, [plot])
    z, counts = cells.values(surface)
    failure = cells.first_failure((counts == 0, lambda i: _no_surface(plot.plot_id)))
    if failure is not None:
        raise failure[1]
    (low,), (mean,) = _cut_and_fill(z, counts, surface.cell_size * surface.cell_size)
    return CanopyVolumeResult(volume_lowest_plane=float(low), volume_mean_plane=float(mean))


def canopy_volumes(surface: RasterGrid,
                   cells: PlotCellStack) -> tuple[np.ndarray, np.ndarray, tuple | None]:
    """``canopy_volume(...).volume`` of every region of ``cells``: (values, counts, failure).

    As ``spectral.plot_statistics``; a volume that overflows is not finite, and gives no warning.
    """
    z, counts = cells.values(surface)
    with np.errstate(over="ignore", invalid="ignore"):
        low, mean = _cut_and_fill(z, counts, surface.cell_size * surface.cell_size)
        volumes = (low + mean) / 2.0
    return volumes, counts, cells.first_failure(
        (counts == 0, lambda i: _no_surface(cells.plot_ids[i])))


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


def classify_lodging(
    lodging_mask: RasterGrid,
    plot: PlotGeometry,
    special: bool = False,
) -> CategoricalLevel:
    """Lodging level from the lodged-pixel ratio inside the plot, the mask's ``fvc``."""
    return CategoricalLevel(kind="PL", ratio=fvc(lodging_mask, plot).value, special=special)


def classify_weed(weed_mask: RasterGrid, region: PlotWithRing) -> CategoricalLevel:
    """Weed level from the weed-pixel ratio over a plot plus its outer ring.

    ``region``: the PlotWithRing of the plot and its ring. The ratio is the
    mask's ``fvc`` of the region.
    """
    return CategoricalLevel(kind="WL", ratio=fvc(weed_mask, region).value)


def camera_footprint(altitude: float, fov_h: float, fov_v: float) -> float:
    """Ground area in square meters of one image: the footprint of a nadir camera over flat ground.

    width = 2 * altitude * tan(fov/2) per axis, FOV in degrees. InvalidInput
    for a bad flight, or for an area that underflows to 0.
    """
    if not altitude > 0:
        raise InvalidInput(f"altitude must be > 0, got {altitude}")
    for fov in (fov_h, fov_v):
        if not (0.0 < fov < 180.0):
            raise InvalidInput(f"field of view must be in (0, 180) degrees, got {fov}")
    width = 2.0 * altitude * math.tan(math.radians(fov_h) / 2.0)
    height = 2.0 * altitude * math.tan(math.radians(fov_v) / 2.0)
    area = width * height
    if not area > 0:
        raise InvalidInput("ground_area must be > 0")
    return area


def wheat_head_density(head_counts, altitude: float, fov_h: float, fov_v: float) -> WheatHeadDensity:
    """Heads per square meter from per-image counts and the ``camera_footprint``."""
    counts = list(head_counts)
    if not counts:
        raise InvalidInput("head_counts must be non-empty")
    if any(c < 0 for c in counts):
        raise InvalidInput("head counts must be >= 0")
    return WheatHeadDensity(ground_area=camera_footprint(altitude, fov_h, fov_v),
                            heads_per_image=float(np.mean(np.asarray(counts, dtype=np.float64))))


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
            value = integer(count)
        except ValueError:
            raise ParseError(f"non-integer count {count!r}", line=i)
        if value < 0:
            raise ParseError("count must be >= 0", line=i)
        finite_number(count, "count", i)  # extract averages the counts as float64
        counts.setdefault(plot_id, []).append(value)
    if not counts:
        raise EmptyInput(f"no head-count rows in {path}")
    return counts
