"""Fog topologies: a grid of edge nodes over a bounding box, nearest-node
queries, and the transfer-time model.

A topology is ``rows`` x ``cols`` edge nodes at the cell centres of a
bounding box, with row-major ids: node ``i`` sits at row ``i // cols`` and
column ``i % cols``. Every transfer brings a client's data from the cloud,
which stores all of it, to an edge node, and takes a fixed time
(``FixedDelay``), whatever the node; a config's topology kind only chooses
how that time is set (``TopologySpec.build``).

Distances are equirectangular at city scale: longitude differences are scaled
by the cosine of the mid-bounding-box latitude. The scale is a constant per
topology, so the grid lookup and the scan over every node compare the same
rounded distances and break ties alike. A query of any length works through
its points in fixed-size slices, which bounds its temporary arrays.

Inputs come checked, by a config's field table or, for ``fogrep ingest``, by
``build_grid``; ``Topology`` and ``FixedDelay`` take theirs as given.

Only the nearest-node queries use numpy: ``nearest_nodes``,
``_grid_nearest``, ``_scan``, ``_bracket`` and ``Topology._coords`` import it
when first called, so building a topology or timing its transfers never
loads it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from .errors import ConfigError

if TYPE_CHECKING:
    import numpy as np

# Default study area when only grid dimensions are given.
BEIJING_BBOX = (39.6, 40.3, 116.0, 116.8)  # lat_min, lat_max, lon_min, lon_max


@dataclass(frozen=True)
class GridSpec:
    rows: int
    cols: int
    bbox: tuple[float, float, float, float]


class Topology:
    """The edge nodes of a grid: ``lat_c`` holds each row's latitude and
    ``lon_c`` each column's longitude, so node ``i`` sits at
    ``(lat_c[i // cols], lon_c[i % cols])``. Immutable after construction;
    the scan's node arrays are built once, by the first query that needs them."""

    def __init__(self, grid: GridSpec):
        self.grid = grid
        lat_min, lat_max, lon_min, lon_max = grid.bbox
        dlat = (lat_max - lat_min) / grid.rows
        dlon = (lon_max - lon_min) / grid.cols
        self.lat_c = [lat_min + (i + 0.5) * dlat for i in range(grid.rows)]
        self.lon_c = [lon_min + (j + 0.5) * dlon for j in range(grid.cols)]
        self.node_count = grid.rows * grid.cols
        self._lon_scale = math.cos(math.radians(0.5 * (lat_min + lat_max)))
        # the grid lookup needs strictly increasing centres; a bbox only a few
        # ulps across rounds some neighbours to one value, and the scan serves it
        increasing = all(a < b for axis in (self.lat_c, self.lon_c) for a, b in zip(axis, axis[1:]))
        self._axes = (self.lat_c, self.lon_c) if increasing else None

    @cached_property
    def _coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Every node's latitude and longitude, in id order, for the nearest-node scan."""
        import numpy as np
        return np.repeat(self.lat_c, self.grid.cols), np.tile(self.lon_c, self.grid.rows)


def check_bbox(bbox) -> tuple:
    """``bbox`` as a tuple; ValueError unless finite with lat_min < lat_max and lon_min < lon_max."""
    lat_min, lat_max, lon_min, lon_max = bbox
    if not (all(map(math.isfinite, bbox)) and lat_max > lat_min and lon_max > lon_min):
        raise ValueError(f"expected finite lat_min < lat_max and lon_min < lon_max, got {tuple(bbox)}")
    return tuple(bbox)


def build_grid(rows, cols, bbox=BEIJING_BBOX) -> Topology:
    """rows x cols edge nodes at cell centers of the bounding box, row-major ids."""
    if rows < 1 or cols < 1:
        raise ConfigError("grid dimensions must be >= 1")
    try:
        bbox = check_bbox(bbox)
    except ValueError as exc:
        raise ConfigError(f"bbox: {exc}") from None
    return Topology(GridSpec(rows, cols, bbox))


# points per pass of nearest_nodes on a grid: bounds its ~20 temporary
# columns to about 0.3 MiB however many points one call is given. Passes of
# 8k points raised ingest's peak memory by 1 MiB for a few per cent of speed
_NEAREST_SLICE = 1 << 11


def _scan(lats, lons, topo: Topology) -> np.ndarray:
    """Nearest node by comparing every point with every node."""
    import numpy as np
    out = np.empty(len(lats), dtype=np.int64)
    node_lats, node_lons = topo._coords
    # bound the points x nodes distance matrix to ~20M doubles
    chunk = max(1024, 20_000_000 // topo.node_count)
    for start in range(0, len(lats), chunk):
        end = min(start + chunk, len(lats))
        dlat = node_lats[None, :] - lats[start:end, None]
        dlon = (node_lons[None, :] - lons[start:end, None]) * topo._lon_scale
        d2 = dlat * dlat + dlon * dlon
        out[start:end] = np.argmin(d2, axis=1)
    return out


def _bracket(centres, x):
    """Indices of the centres just below and just above each x, clipped to the axis."""
    import numpy as np
    above = np.searchsorted(centres, x)
    last = len(centres) - 1
    return np.clip(above - 1, 0, last), np.clip(above, 0, last)


def nearest_nodes(lats, lons, topo: Topology) -> np.ndarray:
    """Node minimizing equirectangular distance for each point; ties go to
    the smaller id. Points outside the grid clamp to the nearest node by
    distance, no rejection.

    On a grid the distance is a row term plus a column term, so only the
    2 x 2 nodes around a point can be nearest, and they are compared with the
    scan's own rounded expression. Rounding keeps each term monotone along its
    axis, so another node can tie them only if the next row or column outward
    ties too; such points, and every point of a grid whose centres are not
    strictly increasing, go to the scan. The lookup takes the points
    _NEAREST_SLICE at a time.
    """
    import numpy as np
    lats = np.asarray(lats, dtype=float)
    lons = np.asarray(lons, dtype=float)
    if topo._axes is None:
        return _scan(lats, lons, topo)
    lat_c, lon_c = map(np.array, topo._axes)
    out = np.empty(len(lats), dtype=np.int64)
    for start in range(0, len(lats), _NEAREST_SLICE):
        end = start + _NEAREST_SLICE
        out[start:end] = _grid_nearest(lats[start:end], lons[start:end], lat_c, lon_c, topo)
    return out


def _grid_nearest(lats, lons, lat_c, lon_c, topo: Topology) -> np.ndarray:
    """nearest_nodes on a grid whose row latitudes and column longitudes are
    lat_c and lon_c, both strictly increasing, for one slice of points."""
    import numpy as np
    rows, cols = len(lat_c), len(lon_c)

    def row_term(r):
        dlat = lat_c[r] - lats
        return dlat * dlat

    def col_term(c):
        dlon = (lon_c[c] - lons) * topo._lon_scale
        return dlon * dlon

    r0, r1 = _bracket(lat_c, lats)
    c0, c1 = _bracket(lon_c, lons)
    a0, a1, b0, b1 = row_term(r0), row_term(r1), col_term(c0), col_term(c1)
    d2 = np.stack([a0 + b0, a0 + b1, a1 + b0, a1 + b1])  # in increasing id order
    pick = np.argmin(d2, axis=0)
    best = np.take_along_axis(d2, pick[None], axis=0)[0]
    out = np.where(pick < 2, r0, r1) * cols + np.where(pick % 2 == 0, c0, c1)
    a_min, b_min = np.minimum(a0, a1), np.minimum(b0, b1)
    ambiguous = ~np.isfinite(best)
    for r, inside in ((r0 - 1, r0 > 0), (r1 + 1, r1 < rows - 1)):
        ambiguous |= inside & (row_term(np.clip(r, 0, rows - 1)) + b_min <= best)
    for c, inside in ((c0 - 1, c0 > 0), (c1 + 1, c1 < cols - 1)):
        ambiguous |= inside & (a_min + col_term(np.clip(c, 0, cols - 1)) <= best)
    if ambiguous.any():
        out[ambiguous] = _scan(lats[ambiguous], lons[ambiguous], topo)
    return out


@dataclass(frozen=True)
class FixedDelay:
    """Every transfer takes the same time, whatever its destination."""
    delay: float  # seconds


def transfer_time(dst, model: FixedDelay) -> float:
    """Seconds to move one client data set from the cloud to edge node dst."""
    return model.delay


def dump_topology(topo: Topology) -> str:
    """Plain text grid line and node table, reproducible byte-for-byte."""
    g = topo.grid
    lines = ["grid %d %d %r %r %r %r" % (g.rows, g.cols, *g.bbox)]
    lines += ["node %d edge %r %r" % (i * g.cols + j, lat, lon)
              for i, lat in enumerate(topo.lat_c) for j, lon in enumerate(topo.lon_c)]
    return "\n".join(lines) + "\n"
