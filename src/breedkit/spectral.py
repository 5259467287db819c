"""Per-pixel vegetation indices and plot-level spectral aggregation.

Index formulas (R, G, NIR are band reflectances):

    NDVI  = (NIR - R) / (NIR + R)
    SAVI  = (1 + L) * (NIR - R) / (NIR + R + L),  L = 0.5 by default
    kNDVI = tanh(((NIR - R) / (2 sigma))^2); with sigma = 0.5 (NIR + R)
            this simplifies to tanh(NDVI^2), the default here
    NIRv  = NIR * NDVI
    PSRI  = (R - G) / NIR           (multispectral form)
    PSRI  = (R680 - R500) / R750    (hyperspectral form)

Cells where a formula's denominator is zero hold nodata instead of raising,
so an isolated bad pixel cannot abort a plot. Plot aggregation is the
arithmetic mean over the selected non-nodata cells.

The grouped reductions reduce every plot of a ``geodata.PlotCellStack`` at
once: ``plot_means`` over values laid out region after region, and
``plot_statistics`` over a layer, which returns (values, counts, failure) as
``PlotCellStack.ratios`` does. Plots with the same number of usable cells are
reduced as one block (``rows_by_size``), bit for bit as one plot at a time.
The per-plot functions ``plot_statistic`` and ``fvc`` are their one-region
case: they check a mask and take its 1-cells with ``geodata.binary_mask``,
take the value and ``n_cells`` of one plot's stack, and raise the failure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyPlot, InvalidInput, MissingBand
from .geodata import (
    MS_BAND_CENTERS_NM, BandSet, PlotCellStack, PlotGeometry, PlotWithRing, RasterGrid,
    binary_mask, stack_cells,
)

VI_NAMES = ("NDVI", "SAVI", "kNDVI", "NIRv", "PSRI")

HS_TOLERANCE_NM = 10.0

PSRI_HS_TARGETS = (680.0, 500.0, 750.0)

# every wavelength an index resolves in an HS set: vi_map's red, green and
# nir centres (``_band_values``), then psri_hs's targets
HS_INDEX_TARGETS_NM = (*(MS_BAND_CENTERS_NM[name] for name in ("red", "green", "nir")),
                       *PSRI_HS_TARGETS)


@dataclass(frozen=True)
class PlotStatistic:
    """One aggregated feature value for one plot."""

    plot_id: str
    feature_name: str
    value: float
    n_cells: int

    def __post_init__(self):
        if self.n_cells < 1:
            raise InvalidInput("n_cells must be >= 1")
        if not np.isfinite(self.value):
            raise _not_finite(self.feature_name, self.plot_id)


def _not_finite(feature_name: str, plot_id: str) -> InvalidInput:
    return InvalidInput(f"{feature_name} for plot {plot_id} is not finite")


def _no_usable_cells(feature_name: str, plot_id: str) -> EmptyPlot:
    return EmptyPlot(f"plot {plot_id}: no usable cells for {feature_name}")


def resolve_band(bands: BandSet, target_nm: float) -> str:
    """Name of the band whose center wavelength is nearest ``target_nm``.

    Only bands within ``HS_TOLERANCE_NM`` qualify; ties go to the lower
    wavelength. Raises MissingBand(target_nm) when nothing is close enough.
    """
    best_name = None
    best_key = None
    for name, (_, wavelength) in bands.bands.items():
        if wavelength is None:
            continue
        dist = abs(wavelength - target_nm)
        if dist > HS_TOLERANCE_NM:
            continue
        key = (dist, wavelength)
        if best_key is None or key < best_key:
            best_key = key
            best_name = name
    if best_name is None:
        raise MissingBand(target_nm)
    return best_name


def _band_values(bands: BandSet, name: str) -> tuple[np.ndarray, np.ndarray]:
    """(values, defined) for a band resolved by MS name or HS wavelength."""
    if bands.sensor_kind == "MS":
        grid = bands.grid(name)
    else:
        grid = bands.grid(resolve_band(bands, MS_BAND_CENTERS_NM[name]))
    return grid.values, grid.defined


def vi_map(
    bands: BandSet,
    index_name: str,
    L: float = 0.5,
    kndvi_sigma: float | None = None,
) -> RasterGrid:
    """Compute one vegetation index over every cell of the band set.

    ``kndvi_sigma``: fixed length scale for kNDVI; None selects the
    per-pixel sigma = 0.5 (NIR + R) simplification, i.e. tanh(NDVI^2).
    """
    if index_name not in VI_NAMES:
        raise InvalidInput(f"unknown index {index_name!r}, expected one of {VI_NAMES}")
    ref = bands.geometry_reference()
    nodata = ref.nodata

    red, red_ok = _band_values(bands, "red")
    nir, nir_ok = _band_values(bands, "nir")
    defined = red_ok & nir_ok

    with np.errstate(divide="ignore", invalid="ignore"):
        if index_name == "NDVI":
            out = (nir - red) / (nir + red)
            defined &= (nir + red) != 0.0
        elif index_name == "SAVI":
            if not np.isfinite(L):
                raise InvalidInput("SAVI soil factor L must be finite")
            out = (1.0 + L) * (nir - red) / (nir + red + L)
            defined &= (nir + red + L) != 0.0
        elif index_name == "kNDVI":
            if kndvi_sigma is None:
                ndvi = (nir - red) / (nir + red)
                defined &= (nir + red) != 0.0
                out = np.tanh(ndvi * ndvi)
            else:
                if not kndvi_sigma > 0:
                    raise InvalidInput("kndvi_sigma must be > 0")
                ratio = (nir - red) / (2.0 * kndvi_sigma)
                out = np.tanh(ratio * ratio)
        elif index_name == "NIRv":
            ndvi = (nir - red) / (nir + red)
            defined &= (nir + red) != 0.0
            out = nir * ndvi
        else:  # PSRI, multispectral form
            green, green_ok = _band_values(bands, "green")
            out = (red - green) / nir
            defined &= green_ok & (nir != 0.0)

    values = np.where(defined, out, nodata)
    return ref.with_values(values)


def psri_hs(bands: BandSet) -> RasterGrid:
    """Hyperspectral senescence index (R680 - R500) / R750.

    Each target wavelength resolves to the nearest band within +-10 nm
    (ties toward the lower wavelength).
    """
    if bands.sensor_kind != "HS":
        raise InvalidInput("psri_hs needs an HS band set")
    t680, t500, t750 = PSRI_HS_TARGETS
    g680 = bands.grid(resolve_band(bands, t680))
    g500 = bands.grid(resolve_band(bands, t500))
    g750 = bands.grid(resolve_band(bands, t750))

    defined = g680.defined & g500.defined & g750.defined & (g750.values != 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (g680.values - g500.values) / g750.values
    values = np.where(defined, out, g680.nodata)
    return g680.with_values(values)


def rows_by_size(values: np.ndarray, sizes: np.ndarray):
    """Yield (regions, block) for each size n > 0 in ``sizes``, smallest first.

    ``values`` holds ``sizes[i]`` values of each region i, one region after
    another, as ``PlotCellStack.values`` returns them. ``block`` is the
    C-contiguous [regions x n] array of the values of the regions with n
    values, one row each: a view where those regions follow one another,
    else a copy. numpy reduces such a block along axis 1 row by row, each
    row with the arithmetic of a 1-D reduction of it, so a reduction over a
    block is bit-identical to one over each region on its own.
    """
    sizes = np.asarray(sizes)
    starts = np.cumsum(sizes) - sizes
    order = np.argsort(sizes, kind="stable")
    for regions in np.split(order, np.flatnonzero(np.diff(sizes[order])) + 1):
        if regions.size == 0 or sizes[regions[0]] == 0:
            continue
        n, first = int(sizes[regions[0]]), starts[regions[0]]
        if regions[-1] - regions[0] == regions.size - 1:
            yield regions, values[first:first + regions.size * n].reshape(regions.size, n)
        else:
            yield regions, values[starts[regions][:, None] + np.arange(n)]


def plot_means(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The mean of each region's values, NaN for a region with none.

    ``values`` holds ``sizes[i]`` values of each region i, one region after
    another. Regions with the same count are summed as one block, bit for
    bit as ``np.mean`` of each region's values.
    """
    means = np.full(len(sizes), np.nan)
    for regions, block in rows_by_size(values, sizes):
        means[regions] = np.add.reduce(block, axis=1) / block.shape[1]
    return means


def plot_statistic(
    grid: RasterGrid,
    plot: PlotGeometry,
    restrict_to: RasterGrid | None = None,
    feature_name: str = "value",
) -> PlotStatistic:
    """Mean of a layer over the plot's cells: ``plot_statistics`` of one plot.

    ``restrict_to``: optional binary mask (e.g. vegetation segmentation) on
    the same geometry; when given, only cells where it equals 1 participate,
    and InvalidMask unless each of its cells is 0, 1 or nodata.
    """
    cells = stack_cells(grid, [plot])
    failure = cells.first_failure()  # a plot with no cell fails before a mask of another geometry
    if failure is None:
        if restrict_to is not None:
            cells.gather(restrict_to)  # a mask of another geometry fails before a non-binary one
            restrict_to = binary_mask(restrict_to)
        (mean,), (n_cells,), failure = plot_statistics(grid, cells, restrict_to, feature_name)
    if failure is not None:
        raise failure[1]
    return PlotStatistic(plot_id=plot.plot_id, feature_name=feature_name, value=float(mean),
                         n_cells=int(n_cells))


def plot_statistics(
    grid: RasterGrid,
    cells: PlotCellStack,
    restrict_to: RasterGrid | None = None,
    feature_name: str = "value",
) -> tuple[np.ndarray, np.ndarray, tuple | None]:
    """``plot_statistic`` of every region of ``cells``: (values, counts, failure).

    Its values are the means, NaN where a region has no usable cell; its
    counts are each region's usable cells; its failure is the first region
    ``plot_statistic`` raises for, with its error. ``restrict_to`` is a
    ``geodata.binary_mask`` grid; on another geometry it raises
    GeometryMismatch, and any other grid InvalidMask. An overflowing mean is
    a failure, not a warning.
    """
    values, counts = cells.values(grid, restrict_to)
    with np.errstate(over="ignore", invalid="ignore"):
        means = plot_means(values, counts)
    return means, counts, cells.first_failure(
        (counts == 0, lambda i: _no_usable_cells(feature_name, cells.plot_ids[i])),
        (~np.isfinite(means), lambda i: _not_finite(feature_name, cells.plot_ids[i])),
    )


def fvc(vegetation_mask: RasterGrid, plot: PlotGeometry | PlotWithRing) -> PlotStatistic:
    """Fractional vegetation cover: vegetation cells / all plot cells.

    Nodata cells count in the denominator as non-vegetation; InvalidMask
    unless every cell of the mask is 0, 1 or nodata. The FVC of every plot
    at once is ``PlotCellStack.ratios``, which also gives the lodging and
    weed ratios.
    """
    cells = stack_cells(vegetation_mask, [plot])
    failure = cells.first_failure()
    if failure is not None:
        raise failure[1]
    (ratio,), (n_cells,), _ = cells.ratios(binary_mask(vegetation_mask))
    return PlotStatistic(plot_id=plot.plot_id, feature_name="FVC", value=float(ratio),
                         n_cells=int(n_cells))
