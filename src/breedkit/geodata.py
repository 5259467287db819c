"""Georeferenced rasters, point clouds, and plot polygons.

Field layers (spectral bands, elevation models, segmentation masks) travel as
ESRI-style ASCII grids; canopy structure arrives as whitespace-delimited x/y/z
point clouds; plot footprints are simple polygons read from CSV. All types are
immutable after construction and every operation is a pure function, so they
are safe to use from multiple threads.

Georeferencing convention: a grid's origin is the lower-left corner of the
lower-left cell; row 0 of ``values`` is the top row (highest y), matching the
file layout. The center of cell (row, col) is

    x = origin_x + (col + 0.5) * cell_size
    y = origin_y + (n_rows - row - 0.5) * cell_size

Layers that enter one plot computation must share georeferencing exactly;
nothing here resamples implicitly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._io import csv_rows, decoding, finite_number, replacing
from .errors import (
    EmptyInput,
    EmptyPlot,
    GeometryMismatch,
    InvalidInput,
    InvalidMask,
    MissingBand,
    ParseError,
)

DEFAULT_NODATA = -9999.0

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize")


@dataclass(frozen=True)
class RasterGrid:
    """A georeferenced 2-D grid of scalar values with a nodata sentinel.

    ``values`` has shape (n_rows, n_cols); row 0 is the top row (highest y).
    """

    values: np.ndarray
    cell_size: float
    origin_x: float
    origin_y: float
    nodata: float = DEFAULT_NODATA

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2 or arr.size == 0:
            raise InvalidInput("grid values must be a non-empty 2-D array")
        if not self.cell_size > 0:
            raise InvalidInput(f"cell_size must be > 0, got {self.cell_size}")
        if not np.isfinite(self.nodata):
            raise InvalidInput("nodata sentinel must be finite")
        # nodata is finite, so this is the same check as on the cells other than nodata
        if not np.isfinite(arr).all():
            raise InvalidInput("grid values must be finite or the nodata sentinel")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    @property
    def defined(self) -> np.ndarray:
        """Boolean array, True where a cell holds real data."""
        return self.values != self.nodata

    @property
    def geometry(self) -> tuple:
        """(shape, cell_size, origin_x, origin_y): the georeferencing layers must share."""
        return (self.values.shape, self.cell_size, self.origin_x, self.origin_y)

    def same_geometry(self, other: "RasterGrid") -> bool:
        return self.geometry == other.geometry

    def cell_centers(
        self, rows: slice = slice(None), cols: slice = slice(None)
    ) -> tuple[np.ndarray, np.ndarray]:
        """(X, Y) arrays of cell-center coordinates over the ``rows`` x ``cols`` window.

        The default window is the whole grid, shape (n_rows, n_cols).
        """
        x, y = self._center_axes()
        return np.meshgrid(x[cols], y[rows])

    def _center_axes(self) -> tuple[np.ndarray, np.ndarray]:
        """(x of every column's centers, y of every row's centers), by the module formula."""
        cols = np.arange(self.n_cols, dtype=np.float64)
        rows = np.arange(self.n_rows, dtype=np.float64)
        x = self.origin_x + (cols + 0.5) * self.cell_size
        y = self.origin_y + (self.n_rows - rows - 0.5) * self.cell_size
        return x, y

    def with_values(self, values: np.ndarray) -> "RasterGrid":
        """A new grid sharing this grid's georeferencing and nodata value."""
        return RasterGrid(
            values=values,
            cell_size=self.cell_size,
            origin_x=self.origin_x,
            origin_y=self.origin_y,
            nodata=self.nodata,
        )


def require_same_geometry(*grids: RasterGrid) -> None:
    first = grids[0]
    for g in grids[1:]:
        if not first.same_geometry(g):
            raise GeometryMismatch(
                f"grids do not share georeferencing: "
                f"{first.values.shape}/{first.cell_size}/({first.origin_x},{first.origin_y}) vs "
                f"{g.values.shape}/{g.cell_size}/({g.origin_x},{g.origin_y})"
            )


@dataclass(frozen=True)
class PointCloud:
    """An x/y/z point list (meters). Non-empty, finite coordinates."""

    points: np.ndarray  # shape (n, 3)

    def __post_init__(self):
        arr = np.asarray(self.points, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 3 or arr.shape[0] == 0:
            raise EmptyInput("point cloud must be a non-empty (n, 3) array")
        if not np.isfinite(arr).all():
            raise InvalidInput("point cloud coordinates must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "points", arr)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class PlotGeometry:
    """A plot footprint: a simple polygon with identity metadata."""

    plot_id: str
    germplasm_id: str
    vertices: np.ndarray  # shape (n, 2)

    def __post_init__(self):
        arr = np.asarray(self.vertices, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 3:
            raise InvalidInput(f"plot {self.plot_id}: polygon needs >= 3 (x, y) vertices")
        if not np.isfinite(arr).all():
            raise InvalidInput(f"plot {self.plot_id}: vertices must be finite")
        if _polygon_area(arr) <= 0.0:
            raise InvalidInput(f"plot {self.plot_id}: polygon area must be > 0")
        if _has_degenerate_edge(arr):
            raise InvalidInput(f"plot {self.plot_id}: repeated consecutive vertices")
        if not _polygon_is_simple(arr):
            raise InvalidInput(f"plot {self.plot_id}: polygon is self-intersecting")
        arr.setflags(write=False)
        object.__setattr__(self, "vertices", arr)

    def area(self) -> float:
        return _polygon_area(self.vertices)

    def bounds(self) -> tuple[float, float, float, float]:
        """(min x, min y, max x, max y) of the vertices."""
        lo = self.vertices.min(axis=0)
        hi = self.vertices.max(axis=0)
        return float(lo[0]), float(lo[1]), float(hi[0]), float(hi[1])


def _polygon_area(vertices: np.ndarray) -> float:
    x = vertices[:, 0]
    y = vertices[:, 1]
    nxt = [*range(1, len(x)), 0]  # each vertex's successor
    return 0.5 * abs(float(np.dot(x, y[nxt]) - np.dot(x[nxt], y)))


def _has_degenerate_edge(vertices: np.ndarray) -> bool:
    nxt = vertices[[*range(1, len(vertices)), 0]]
    return bool(np.any(np.all(vertices == nxt, axis=1)))


def _orient(ax, ay, bx, by, cx, cy):
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _on_segment(ax, ay, bx, by, px, py):
    return min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by)


def _segments_intersect(p1, p2, p3, p4) -> bool:
    d1 = _orient(*p3, *p4, *p1)
    d2 = _orient(*p3, *p4, *p2)
    d3 = _orient(*p1, *p2, *p3)
    d4 = _orient(*p1, *p2, *p4)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0:
        return True
    if d1 == 0 and _on_segment(*p3, *p4, *p1):
        return True
    if d2 == 0 and _on_segment(*p3, *p4, *p2):
        return True
    if d3 == 0 and _on_segment(*p1, *p2, *p3):
        return True
    if d4 == 0 and _on_segment(*p1, *p2, *p4):
        return True
    return False


def _polygon_is_simple(vertices: np.ndarray) -> bool:
    n = vertices.shape[0]
    edges = [(tuple(vertices[i]), tuple(vertices[(i + 1) % n])) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            # adjacent edges share an endpoint by construction
            if j == i + 1 or (i == 0 and j == n - 1):
                continue
            if _segments_intersect(edges[i][0], edges[i][1], edges[j][0], edges[j][1]):
                return False
    return True


def _edges(px, py, vertices):
    """(px, py, result shape, [(x1, y1, x2, y2) of edge k = vertex k to k + 1 (mod n)]).

    The points become float64 arrays, and the edge endpoints are shaped so a
    stack's leading axes pair with the points' leading axes.
    """
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    *lead, n, _ = vertices.shape
    points = np.broadcast(px, py)
    v = vertices.reshape((*lead, *(1,) * (points.ndim - len(lead)), n, 2))
    shape = np.broadcast_shapes(points.shape, v.shape[:-2])
    x, y = v[..., 0], v[..., 1]
    edges = [(x[..., k], y[..., k], x[..., (k + 1) % n], y[..., (k + 1) % n]) for k in range(n)]
    return px, py, shape, edges


def point_in_polygon(px, py, vertices: np.ndarray) -> np.ndarray:
    """Even-odd point-in-polygon test with the boundary counted as inside.

    Accepts scalars or arrays for ``px``/``py``; broadcasting applies.
    ``vertices`` is one polygon, shape (n, 2), or a stack of polygons with
    the same vertex count, shape (..., n, 2); a stack's leading axes pair
    with the leading axes of ``px``/``py`` (e.g. P polygons against points
    shaped (P, 1, w) and (P, h, 1)). Every element gets the arithmetic a
    single-polygon call would give it.
    """
    px, py, shape, edges = _edges(px, py, vertices)
    inside = np.zeros(shape, dtype=bool)
    on_edge = np.zeros_like(inside)
    for x1, y1, x2, y2 in edges:
        cross = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
        in_box = (
            (px >= np.minimum(x1, x2))
            & (px <= np.maximum(x1, x2))
            & (py >= np.minimum(y1, y2))
            & (py <= np.maximum(y1, y2))
        )
        on_edge |= (cross == 0.0) & in_box
        crosses = (y1 > py) != (y2 > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_int = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
        inside ^= crosses & (px < x_int)
    return inside | on_edge


def distance_to_boundary(px, py, vertices: np.ndarray) -> np.ndarray:
    """Euclidean distance from points to the polygon boundary (min over edges).

    ``vertices`` and broadcasting as in :func:`point_in_polygon`.
    """
    px, py, shape, edges = _edges(px, py, vertices)
    best = np.full(shape, np.inf)
    for x1, y1, x2, y2 in edges:
        dx, dy = x2 - x1, y2 - y1
        seg_len2 = dx * dx + dy * dy
        t = np.clip(((px - x1) * dx + (py - y1) * dy) / seg_len2, 0.0, 1.0)
        d2 = (px - (x1 + t * dx)) ** 2 + (py - (y1 + t * dy)) ** 2
        best = np.minimum(best, d2)
    return np.sqrt(best)


def _member(px, py, vertices, inner, outer) -> np.ndarray:
    """Membership in a plot (``outer`` None) or in a plot plus its ring:
    inside, or inner < boundary distance <= outer. ``vertices`` is one polygon
    or a stack; ``inner``/``outer`` are scalars or shaped like the stack.
    """
    inside = point_in_polygon(px, py, vertices)
    if outer is None:
        return inside
    d = distance_to_boundary(px, py, vertices)
    return inside | ((d > inner) & (d <= outer))


@dataclass(frozen=True)
class PlotWithRing:
    """A plot plus the ring outside it: boundary distance in (inner, outer].

    This is the area a weed-level aggregation judges: the plot interior and a
    "specific area" around it. A point belongs if it is inside the plot or in
    the ring, so membership is one polygon test and one distance per point.
    """

    plot: PlotGeometry
    inner: float
    outer: float

    def __post_init__(self):
        if not (0.0 <= self.inner < self.outer):
            raise InvalidInput(
                f"ring widths must satisfy 0 <= inner < outer, got ({self.inner}, {self.outer})"
            )

    @property
    def plot_id(self) -> str:
        return self.plot.plot_id

    def bounds(self) -> tuple[float, float, float, float]:
        """The plot's bounds padded by the outer width."""
        x0, y0, x1, y1 = self.plot.bounds()
        return x0 - self.outer, y0 - self.outer, x1 + self.outer, y1 + self.outer


# MS band centers (nm). MS indices pick their bands by name; an HS set stands in
# for a named band with its wavelength-tagged band nearest that band's center.
MS_BAND_CENTERS_NM = {
    "blue": 450.0,
    "green": 560.0,
    "red": 650.0,
    "red_edge": 730.0,
    "nir": 840.0,
}


@dataclass(frozen=True)
class BandSet:
    """Aligned reflectance bands from one sensor.

    ``bands`` maps band name -> (grid, center_wavelength_nm). A multispectral
    (MS) set must provide blue/green/red/red_edge/nir; a hyperspectral (HS)
    set needs at least two wavelength-tagged bands.
    """

    bands: dict
    sensor_kind: str = "MS"

    def __post_init__(self):
        if self.sensor_kind not in ("MS", "HS"):
            raise InvalidInput(f"sensor_kind must be MS or HS, got {self.sensor_kind!r}")
        if not self.bands:
            raise EmptyInput("band set has no bands")
        if self.sensor_kind == "MS":
            for name in MS_BAND_CENTERS_NM:
                if name not in self.bands:
                    raise MissingBand(name)
        elif len(self.bands) < 2:
            raise InvalidInput("HS band set needs >= 2 wavelength-tagged bands")
        grids = [g for g, _ in self.bands.values()]
        require_same_geometry(*grids)
        for name, (grid, wavelength) in self.bands.items():
            if not (wavelength is None or wavelength > 0):
                raise InvalidInput(f"band {name}: wavelength must be positive")
            vals = grid.values[grid.defined]
            if vals.size and (vals.min() < 0.0 or vals.max() > 1.0):
                raise InvalidInput(f"band {name}: reflectance outside [0, 1]")

    def grid(self, name: str) -> RasterGrid:
        if name not in self.bands:
            raise MissingBand(name)
        return self.bands[name][0]

    def geometry_reference(self) -> RasterGrid:
        return next(iter(self.bands.values()))[0]


# ---------------------------------------------------------------------------
# ASCII grid I/O
# ---------------------------------------------------------------------------


def load_raster(path) -> RasterGrid:
    """Read an ESRI-style ASCII grid (.asc).

    Header lines (case-insensitive keys, fixed order): ncols, nrows,
    xllcorner, yllcorner, cellsize, then an optional NODATA_value. Data rows
    follow top row first; each row must hold exactly ncols numeric cells.

    The header is read line by line, and the data lines stream from the open
    file into numpy's reader, so the file's text is never held whole. Any
    other file is read again whole, split as ``str.splitlines`` splits it,
    and the line parser names its first fault.
    """
    with decoding(path), open(path, "r", encoding="utf-8") as fh:
        grid = _stream_raster(fh)
    if grid is not None:
        return grid
    with decoding(path), open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    n_rows, n_cols, data_start, georef = _raster_header(lines)
    row_lines = [
        (n, ln) for n, ln in enumerate(lines[data_start:], start=data_start + 1) if ln.strip()
    ]
    if len(row_lines) != n_rows:
        raise ParseError(
            f"expected {n_rows} data rows, found {len(row_lines)}",
            line=len(lines),
        )
    return RasterGrid(values=_parse_rows(row_lines, n_cols, "cells", "cell"), **georef)


def _stream_raster(fh) -> RasterGrid | None:
    """The grid in the open file ``fh``, its data lines streamed into ``_read_numbers``.

    None where the whole-text reader must decide: a header it would reject
    (it reports that only after any decoding error later in the file), no
    data line, rows numpy does not read as exactly nrows x ncols finite
    values, or a line ``_splits_further`` flags.
    """
    head = list(itertools.islice(fh, 6))
    if any(map(_splits_further, head)):
        return None
    try:
        n_rows, n_cols, data_start, georef = _raster_header(head)
    except ParseError:
        return None
    values = _read_numbers(_data_lines(itertools.chain(head[data_start:], fh)))
    if values is None or values.shape != (n_rows, n_cols):
        return None
    return RasterGrid(values=values, **georef)


def _raster_header(lines) -> tuple[int, int, int, dict]:
    """(nrows, ncols, index of the first data line, RasterGrid georeferencing) of a grid file.

    Only ``lines[:6]`` are read. ParseError names the first bad header line.
    """

    def header(idx: int, key: str):
        if idx >= len(lines):
            raise ParseError(f"missing header line '{key}'", line=idx + 1)
        parts = lines[idx].split()
        if len(parts) != 2 or parts[0].lower() != key:
            raise ParseError(f"expected '{key} <value>', got {lines[idx]!r}", line=idx + 1)
        return finite_number(parts[1], f"value for '{key}'", idx + 1)

    n_cols_f = header(0, "ncols")
    n_rows_f = header(1, "nrows")
    origin_x = header(2, "xllcorner")
    origin_y = header(3, "yllcorner")
    cell_size = header(4, "cellsize")
    if n_cols_f != int(n_cols_f) or n_rows_f != int(n_rows_f) or n_cols_f < 1 or n_rows_f < 1:
        raise ParseError("ncols/nrows must be positive integers", line=1)
    if cell_size <= 0:
        raise ParseError("cellsize must be > 0", line=5)

    data_start = 5
    nodata = DEFAULT_NODATA
    if data_start < len(lines):
        parts = lines[data_start].split()
        if parts and parts[0].lower() == "nodata_value":
            if len(parts) != 2:
                raise ParseError("expected 'NODATA_value <value>'", line=data_start + 1)
            nodata = finite_number(parts[1], "NODATA_value", data_start + 1)
            data_start += 1
    georef = {"cell_size": cell_size, "origin_x": origin_x, "origin_y": origin_y, "nodata": nodata}
    return int(n_rows_f), int(n_cols_f), data_start, georef


def _splits_further(line: str) -> bool:
    """Whether ``str.splitlines`` breaks ``line`` where file iteration does not.

    numpy's reader takes those breaks (``\\v \\f \\x1c-\\x1e \\x85 \\u2028
    \\u2029``) for blanks inside a row, while the whole-text reader ends the
    row there. Plain ``in`` tests keep this cheap on long ASCII lines.
    """
    return ("\v" in line or "\f" in line or "\x1c" in line or "\x1d" in line or "\x1e" in line
            or not line.isascii() and ("\x85" in line or "\u2028" in line or "\u2029" in line))


def _data_lines(lines):
    """The non-blank ``lines``; ValueError at the first one ``_splits_further`` flags."""
    for ln in lines:
        if _splits_further(ln):
            raise ValueError("a line break that file iteration does not know")
        if ln.strip():
            yield ln


def _read_numbers(lines) -> np.ndarray | None:
    """Whitespace-separated numbers as a 2-D float64 array, by numpy's C reader.

    ``lines`` is an iterable of data lines; numpy sees no comment or blank
    line, so a '#' is a token it rejects like any other. Returns None where
    the line parser must decide instead: no line, a token numpy rejects,
    rows of unequal length, a non-finite value, text that is not UTF-8, or a
    ValueError that ``lines`` raises itself.
    """
    lines = iter(lines)
    try:
        first = next(lines, None)
        if first is None:  # numpy would warn of empty input
            return None
        values = np.loadtxt(itertools.chain((first,), lines), dtype=np.float64, comments=None,
                            ndmin=2)
    except ValueError:
        return None
    if not np.isfinite(values).all():
        return None
    return values


def _parse_rows(numbered_lines, width: int, units: str, what: str) -> np.ndarray:
    """The parser of record for rows of numbers, ``(line number, line)`` pairs.

    Each row must hold ``width`` tokens, each a finite number by
    ``finite_number``; ParseError names the first bad line and, in it, the
    first bad token.
    """
    rows = []
    for lineno, ln in numbered_lines:
        tokens = ln.split()
        if len(tokens) != width:
            raise ParseError(f"expected {width} {units}, found {len(tokens)}", line=lineno)
        rows.append([finite_number(t, what, lineno) for t in tokens])
    return np.array(rows, dtype=np.float64)


def write_raster(grid: RasterGrid, path) -> None:
    """Write a grid as an ASCII grid; round-trips through load_raster exactly."""
    with replacing(path) as fh:
        fh.write(f"ncols {grid.n_cols}\n")
        fh.write(f"nrows {grid.n_rows}\n")
        fh.write(f"xllcorner {repr(grid.origin_x)}\n")
        fh.write(f"yllcorner {repr(grid.origin_y)}\n")
        fh.write(f"cellsize {repr(grid.cell_size)}\n")
        fh.write(f"NODATA_value {repr(grid.nodata)}\n")
        for row in grid.values:
            fh.write(" ".join(repr(float(v)) for v in row))
            fh.write("\n")


# ---------------------------------------------------------------------------
# Point cloud I/O and rasterization
# ---------------------------------------------------------------------------


def load_point_cloud(path) -> PointCloud:
    """Read a plain-text point cloud: one "x y z" per line.

    Blank lines and lines whose first non-space character is '#' are skipped.
    The file is read once; only a file numpy rejects is read again, by the
    line parser, to name its first bad line.
    """
    with decoding(path), open(path, "r", encoding="utf-8") as fh:
        lines = (ln for ln in fh if (text := ln.lstrip()) and text[0] != "#")
        first = next(lines, None)
        if first is None:
            raise EmptyInput(f"no points in {path}")
        points = _read_numbers(itertools.chain((first,), lines))
    if points is None or points.shape[1] != 3:
        with decoding(path), open(path, "r", encoding="utf-8") as fh:
            numbered = ((n, ln) for n, ln in enumerate(fh, start=1)
                        if (text := ln.lstrip()) and text[0] != "#")
            points = _parse_rows(numbered, 3, "fields 'x y z'", "coordinate")
    return PointCloud(points=points)


def write_point_cloud(cloud: PointCloud, path) -> None:
    with replacing(path) as fh:
        for x, y, z in cloud.points:
            fh.write(f"{repr(float(x))} {repr(float(y))} {repr(float(z))}\n")


def rasterize_elevation(cloud: PointCloud, cell_size: float, aggregator: str = "mean") -> RasterGrid:
    """Bin point z-values onto a grid snapped outward to ``cell_size``.

    Cells with no points hold nodata. No aggregator depends on point order.
    ``min`` and ``max`` reduce the points straight into the grid, with no
    sort. Where a cell's extreme is zero, ``min`` gives -0.0 if any of the
    cell's zero points is -0.0, and ``max`` gives 0.0 if any is 0.0. ``mean``
    sums each cell's values in ascending z order.
    """
    if not cell_size > 0:
        raise InvalidInput(f"cell_size must be > 0, got {cell_size}")
    if aggregator not in ("min", "max", "mean"):
        raise InvalidInput(f"aggregator must be min/max/mean, got {aggregator!r}")

    pts = cloud.points
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    origin_x = math.floor(x.min() / cell_size) * cell_size
    origin_y = math.floor(y.min() / cell_size) * cell_size
    n_cols = max(1, int(math.ceil((x.max() - origin_x) / cell_size)))
    n_rows = max(1, int(math.ceil((y.max() - origin_y) / cell_size)))

    # Each point's flat cell index, built in place so that at most two
    # cloud-sized arrays are alive. Rows and columns are whole numbers far
    # below 2**53, so combining them in float64 is exact.
    flat = y - origin_y
    flat //= cell_size
    np.minimum(flat, n_rows - 1, out=flat)  # the row counted from the bottom
    np.subtract(n_rows - 1, flat, out=flat)
    flat *= n_cols
    col = x - origin_x
    col //= cell_size
    np.minimum(col, n_cols - 1, out=col)
    flat += col
    del col
    flat = flat.astype(np.int64)

    if aggregator == "mean":
        order = np.lexsort((z, flat))
        flat = flat[order]
        z_sorted = z[order]
        del order
        starts = np.concatenate(([0], np.flatnonzero(np.diff(flat)) + 1))
        cell_ids = flat[starts]
        # bincount accumulates sequentially, so summing in ascending-z order
        # keeps the mean exactly permutation-invariant
        counts = np.diff(np.concatenate((starts, [len(z_sorted)])))
        sums = np.bincount(flat, weights=z_sorted, minlength=n_rows * n_cols)
        values = np.full(n_rows * n_cols, DEFAULT_NODATA)
        values[cell_ids] = sums[cell_ids] / counts
    else:
        reduce, fill, zero = ((np.minimum, np.inf, -0.0) if aggregator == "min"
                              else (np.maximum, -np.inf, 0.0))
        values = np.full(n_rows * n_cols, fill)
        reduce.at(values, flat, z)
        # -0.0 == 0.0, so the reduction keeps whichever zero came first; the
        # sign the aggregator prefers wins instead, whatever the point order
        zeros = np.flatnonzero(z == 0.0)
        ties = flat[zeros[np.signbit(z[zeros]) == np.signbit(zero)]]
        values[ties[values[ties] == 0.0]] = zero
        values[values == fill] = DEFAULT_NODATA  # every point is finite

    return RasterGrid(
        values=values.reshape(n_rows, n_cols),
        cell_size=cell_size,
        origin_x=origin_x,
        origin_y=origin_y,
        nodata=DEFAULT_NODATA,
    )


# ---------------------------------------------------------------------------
# Plot masks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlotCells:
    """A region's cells on one grid geometry, selected once and reused per layer.

    ``rows`` x ``cols`` is the window of the grid around the region's
    bounding box (one cell of margin per edge, clipped to the grid);
    ``member`` is True where a window cell's center lies in the region.
    Reading ``window(grid)[member]`` gives the region's cells in the same
    row-major order as a full-grid mask, so reductions over it are
    bit-identical to reductions over the full grid. ``values`` and ``count``
    are the reads every per-plot feature makes.
    """

    plot_id: str
    geometry: tuple  # RasterGrid.geometry of the grid the cells were selected on
    rows: slice
    cols: slice
    member: np.ndarray  # bool, shape of the window

    def window(self, grid: RasterGrid) -> np.ndarray:
        """``grid``'s values inside the window; ``grid`` must have this geometry."""
        if grid.geometry != self.geometry:
            raise GeometryMismatch(
                f"cells of region {self.plot_id} were selected on grid "
                f"{self.geometry}, not {grid.geometry}"
            )
        return grid.values[self.rows, self.cols]

    def values(self, grid: RasterGrid, restrict_to: RasterGrid | None = None) -> np.ndarray:
        """``grid``'s non-nodata values over the cells, in row-major order.

        ``restrict_to``: optional binary mask on the same geometry; when
        given, only cells where it is 1 count. InvalidMask if a window cell
        of the mask is not 0, 1 or nodata.
        """
        window = self.window(grid)
        selected = self.member & (window != grid.nodata)
        if restrict_to is not None:
            selected &= _binary_ones(self.window(restrict_to), restrict_to.nodata)
        return window[selected]

    def count(self, mask: RasterGrid) -> tuple[int, int]:
        """(cells where the binary ``mask`` is 1, all cells); nodata counts as 0.

        InvalidMask if a window cell of ``mask`` is not 0, 1 or nodata.
        """
        ones = _binary_ones(self.window(mask), mask.nodata)
        return int((self.member & ones).sum()), int(self.member.sum())


def _binary_ones(values: np.ndarray, nodata: float) -> np.ndarray:
    """True where mask ``values`` are 1; InvalidMask on anything but 0, 1 or nodata."""
    ok = (values == 0.0) | (values == 1.0) | (values == nodata)
    if not ok.all():
        bad = values[~ok].flat[0]
        raise InvalidMask(f"mask holds non-binary value {bad}")
    return values == 1.0


def require_binary_mask(mask: RasterGrid) -> None:
    """Raise InvalidMask unless every cell of ``mask`` is 0, 1 or nodata.

    ``PlotCells`` reads check only the window they read, so a caller that
    reduces many plots over one mask validates it here once.
    """
    _binary_ones(mask.values, mask.nodata)


def _index_window(lo: float, hi: float, n: int) -> slice:
    """Indices 0..n-1 in the fractional range [lo, hi] plus one of margin per side.

    The margin absorbs rounding in ``lo``/``hi``, which is far below a cell.
    """
    if not lo <= hi:  # empty range, or NaN georeferencing
        return slice(0, 0)
    # clamping to [-2, n + 1] keeps ceil/floor finite and changes no index
    lo, hi = min(max(lo, -2.0), n + 1.0), min(max(hi, -2.0), n + 1.0)
    start = min(max(math.ceil(lo) - 1, 0), n)
    stop = min(max(math.floor(hi) + 2, start), n)
    return slice(start, stop)


# Window cells tested at once by select_cells. It bounds the float temporaries
# of one stacked test to about 1 MiB, whatever the number of regions; a larger
# window is tested on its own.
_BLOCK_CELLS = 1 << 14


def _region_parts(region) -> tuple:
    """(vertices, inner, outer): ``_member``'s arguments for a region."""
    if isinstance(region, PlotGeometry):
        return region.vertices, None, None
    if isinstance(region, PlotWithRing):
        return region.plot.vertices, region.inner, region.outer
    raise InvalidInput(f"not a PlotGeometry or PlotWithRing: {type(region).__name__}")


def select_cells(grid: RasterGrid, regions: list) -> list[PlotCells | None]:
    """The cells of ``grid`` whose centers lie in each of ``regions``, in order.

    Each region is a PlotGeometry or a PlotWithRing; polygon boundaries count
    as inside. Only the window around ``region.bounds()`` (one cell of margin
    per side, clipped to the grid) is tested. An entry is None where its
    region selects no cell of the grid.

    Plots, and plots with a ring, of one vertex count and window shape are
    tested as one stack, ``_BLOCK_CELLS`` window cells at a time (or one
    region, if its window is larger): one pass of the per-edge formulas
    serves the whole block, and every cell gets the arithmetic a
    single-region test would give it.
    """
    size = grid.cell_size
    groups: dict = {}
    for i, region in enumerate(regions):
        vertices, inner, outer = _region_parts(region)
        x0, y0, x1, y1 = region.bounds()
        # inverse of the cell-center formula in the module docstring
        cols = _index_window((x0 - grid.origin_x) / size - 0.5,
                             (x1 - grid.origin_x) / size - 0.5, grid.n_cols)
        rows = _index_window(grid.n_rows - 0.5 - (y1 - grid.origin_y) / size,
                             grid.n_rows - 0.5 - (y0 - grid.origin_y) / size, grid.n_rows)
        shape = (rows.stop - rows.start, cols.stop - cols.start)
        if shape[0] and shape[1]:
            groups.setdefault((outer is None, len(vertices), shape), []).append(
                (i, region.plot_id, rows, cols, vertices, inner, outer))

    geometry = grid.geometry
    x_axis, y_axis = grid._center_axes()
    selected: list = [None] * len(regions)
    for (plain, _, (h, w)), members in groups.items():
        step = max(1, _BLOCK_CELLS // (h * w))
        for b in range(0, len(members), step):
            i, name, rows, cols, vertices, inner, outer = zip(*members[b:b + step])
            px = x_axis[np.array([c.start for c in cols])[:, None] + np.arange(w)]
            py = y_axis[np.array([r.start for r in rows])[:, None] + np.arange(h)]
            if plain:
                inner = outer = None
            else:
                inner, outer = np.array(inner)[:, None, None], np.array(outer)[:, None, None]
            member = _member(px[:, None, :], py[:, :, None], np.stack(vertices), inner, outer)
            member.setflags(write=False)
            for k in np.flatnonzero(member.any(axis=(1, 2))):
                selected[i[k]] = PlotCells(plot_id=name[k], geometry=geometry,
                                           rows=rows[k], cols=cols[k], member=member[k])
    return selected


def plot_cells(grid: RasterGrid, region) -> PlotCells:
    """The cells of ``grid`` whose centers lie in ``region``: ``select_cells`` of one region.

    Raises EmptyPlot when no cell of the grid is selected. A PlotCells
    ``region`` is returned as it is; its reads check the geometry.
    """
    if isinstance(region, PlotCells):
        return region
    (cells,) = select_cells(grid, [region])
    if cells is None:
        raise EmptyPlot(f"region {region.plot_id} selects no cells of the grid")
    return cells


# ---------------------------------------------------------------------------
# Plot geometry CSV
# ---------------------------------------------------------------------------


def load_plots(path) -> list[PlotGeometry]:
    """Read plot polygons from CSV (plot_id, germplasm_id, vertex_index, x, y)."""
    by_plot: dict[str, dict] = {}
    for lineno, (pid, germplasm_id, vertex_index, x, y) in csv_rows(
            path, ("plot_id", "germplasm_id", "vertex_index", "x", "y")):
        pid, germplasm_id = pid.strip(), germplasm_id.strip()
        if not pid:
            raise ParseError("empty plot_id", line=lineno)
        entry = by_plot.setdefault(pid, {"germplasm_id": germplasm_id, "vertices": {}})
        if germplasm_id != entry["germplasm_id"]:
            raise ParseError(f"plot {pid}: conflicting germplasm_id", line=lineno)
        try:
            idx = int(vertex_index)
        except ValueError:
            raise ParseError(f"bad vertex row for plot {pid}", line=lineno)
        xy = tuple(finite_number(v, f"{k} of plot {pid}", lineno) for k, v in (("x", x), ("y", y)))
        if idx in entry["vertices"]:
            raise ParseError(f"plot {pid}: duplicate vertex_index {idx}", line=lineno)
        entry["vertices"][idx] = xy
    if not by_plot:
        raise EmptyInput(f"no plot rows in {path}")
    plots = []
    for pid, entry in by_plot.items():
        ordered = [entry["vertices"][i] for i in sorted(entry["vertices"])]
        plots.append(PlotGeometry(plot_id=pid, germplasm_id=entry["germplasm_id"], vertices=np.array(ordered)))
    return plots
