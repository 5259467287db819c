"""Per-plot feature extraction on a small synthetic field.

Builds one plot's worth of multispectral bands, segmentation masks, and a
canopy point cloud in memory, then walks through every feature family:
vegetation indices, fractional vegetation cover, canopy height and volume,
lodging and weed levels, and wheat-head density.
"""

import math

import numpy as np

from breedkit import geodata, spectral, structural

rng = np.random.default_rng(42)

# A 16x16 grid of 0.25 m cells: a 4 m x 4 m patch of field.
shape = (16, 16)


def grid(values):
    return geodata.RasterGrid(values=values, cell_size=0.25, origin_x=0.0, origin_y=0.0)


# --- spectral bands ---------------------------------------------------------
# Vegetation reflects strongly in the near infrared and weakly in the red.
bands = geodata.BandSet(bands={
    "blue": (grid(rng.uniform(0.02, 0.08, shape)), 450.0),
    "green": (grid(rng.uniform(0.06, 0.18, shape)), 560.0),
    "red": (grid(rng.uniform(0.03, 0.12, shape)), 650.0),
    "red_edge": (grid(rng.uniform(0.20, 0.40, shape)), 730.0),
    "nir": (grid(rng.uniform(0.35, 0.70, shape)), 840.0),
})

# The plot footprint is a 3 m x 3 m square inside the patch.
plot = geodata.PlotGeometry(
    plot_id="demo", germplasm_id="Alpha",
    vertices=np.array([[0.5, 0.5], [3.5, 0.5], [3.5, 3.5], [0.5, 3.5]]),
)

print("vegetation indices (plot means):")
for name in spectral.VI_NAMES:
    vi = spectral.vi_map(bands, name)
    stat = spectral.plot_statistic(vi, plot, feature_name=name)
    print(f"  {name:6s} = {stat.value:+.4f}  over {stat.n_cells} cells")

# --- vegetation cover -------------------------------------------------------
# The segmentation mask is an upstream product; here 80 % of cells are crop.
veg_mask = grid((rng.random(shape) < 0.8).astype(float))
print(f"FVC = {spectral.fvc(veg_mask, plot).value:.3f}")

# --- canopy structure from a point cloud ------------------------------------
# Two returns per cell: ground near z=10 m, canopy roughly 0.8 m above it.
points = []
for i in range(shape[0]):
    for j in range(shape[1]):
        x, y = (j + 0.5) * 0.25, (i + 0.5) * 0.25
        points.append((x, y, 10.0 + rng.uniform(0.0, 0.02)))
        points.append((x, y, 10.0 + 0.8 + rng.normal(0.0, 0.05)))
cloud = geodata.PointCloud(points=np.array(points))

dem = geodata.rasterize_elevation(cloud, cell_size=0.25, aggregator="min")
dsm = geodata.rasterize_elevation(cloud, cell_size=0.25, aggregator="max")
chm = structural.canopy_height_model(dsm, dem)

ch = structural.plot_canopy_height(chm, plot, percentile=0.95)
cv = structural.canopy_volume(chm, plot)
print(f"CH (95th percentile) = {ch.value:.3f} m")
print(f"CV = {cv.volume:.4f} m^3  (lowest-plane {cv.volume_lowest_plane:.4f}, "
      f"mean-plane {cv.volume_mean_plane:.4f})")

# --- lodging and weed severity ----------------------------------------------
lodging_mask = grid((rng.random(shape) < 0.3).astype(float))
pl = structural.classify_lodging(lodging_mask, plot)
print(f"PL: ratio {pl.ratio:.3f} -> {pl.level}")

# Weed pressure is judged over the plot plus a 10-20 cm ring outside it.
weed_mask = grid((rng.random(shape) < 0.45).astype(float))
region = geodata.PlotWithRing(plot, inner=0.1, outer=0.2)
wl = structural.classify_weed(weed_mask, region)
print(f"WL: ratio {wl.ratio:.3f} -> {wl.level}")

# --- wheat-head density -------------------------------------------------------
# Head counts per image come from an upstream detector; the image footprint
# follows from flight altitude and the camera's field of view.
fov = math.degrees(2 * math.atan(1 / 6))  # a 1 m x 1 m footprint at 3 m
wh = structural.wheat_head_density([48, 52, 50], altitude=3.0, fov_h=fov, fov_v=fov)
print(f"WH density = {wh.density:.1f} heads/m^2 over {wh.ground_area:.2f} m^2")
