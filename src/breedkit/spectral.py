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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyPlot, InvalidInput, MissingBand
from .geodata import MS_BAND_CENTERS_NM, BandSet, PlotCells, PlotGeometry, RasterGrid, plot_cells

VI_NAMES = ("NDVI", "SAVI", "kNDVI", "NIRv", "PSRI")

HS_TOLERANCE_NM = 10.0

PSRI_HS_TARGETS = (680.0, 500.0, 750.0)


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
            raise InvalidInput(f"{self.feature_name} for plot {self.plot_id} is not finite")


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


def plot_statistic(
    grid: RasterGrid,
    plot: PlotGeometry | PlotCells,
    restrict_to: RasterGrid | None = None,
    feature_name: str = "value",
) -> PlotStatistic:
    """Mean of a layer over the plot's cells.

    ``plot``: a PlotGeometry, or its PlotCells on the grid's geometry.
    ``restrict_to``: optional binary mask (e.g. vegetation segmentation) on
    the same geometry; when given, only cells where it equals 1 participate.
    """
    cells = plot_cells(grid, plot)
    vals = cells.values(grid, restrict_to)
    if vals.size == 0:
        raise EmptyPlot(f"plot {cells.plot_id}: no usable cells for {feature_name}")
    return PlotStatistic(
        plot_id=cells.plot_id,
        feature_name=feature_name,
        value=float(np.mean(vals)),
        n_cells=int(vals.size),
    )


def fvc(vegetation_mask: RasterGrid, plot: PlotGeometry | PlotCells) -> PlotStatistic:
    """Fractional vegetation cover: vegetation cells / all plot cells.

    Nodata cells count in the denominator as non-vegetation.
    """
    cells = plot_cells(vegetation_mask, plot)
    n_veg, n_plot = cells.count(vegetation_mask)
    return PlotStatistic(
        plot_id=cells.plot_id,
        feature_name="FVC",
        value=n_veg / n_plot,
        n_cells=n_plot,
    )
