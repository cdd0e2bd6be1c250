"""Fog topologies: node grids over a bounding box, nearest-node queries, and
the transfer-time model.

Every transfer brings a client's data from the cloud, which stores all of it,
to an edge node, and takes a fixed time (``FixedDelay``). A config's
``complex`` topology is a grid too: it puts one router behind each edge node
and gives every router its own uplink to the cloud, so every edge node's
min-hop path is edge-router-cloud, and every transfer takes the data size over
the slower of the edge link and the uplink (``TopologySpec.build``).

Distances are equirectangular at city scale: longitude differences are scaled
by the cosine of the mid-bounding-box latitude. The scale is a constant per
topology, so the grid lookup and the scan over every node compare the same
rounded distances and break ties alike. A query of any length works through
its points in fixed-size slices, which bounds its temporary arrays.

Inputs come checked, by a config's field table or, for ``fogrep ingest``, by
``build_grid``; ``Topology`` and ``FixedDelay`` take theirs as given (dense
ids, a finite positive delay).

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
class FogNode:
    id: int
    lat: float
    lon: float


@dataclass(frozen=True)
class GridSpec:
    rows: int
    cols: int
    bbox: tuple[float, float, float, float]


class Topology:
    """Immutable after construction; all queries are read-only. The
    nearest-node arrays are built once, by the first query that needs them."""

    def __init__(self, nodes, grid=None):
        self.nodes: list[FogNode] = list(nodes)
        self.grid: GridSpec | None = grid
        self._axes = _grid_axes(self.nodes)

    @cached_property
    def _coords(self) -> tuple[np.ndarray, np.ndarray]:
        """The nodes' latitudes and longitudes, for the nearest-node scan."""
        import numpy as np
        return np.array([n.lat for n in self.nodes]), np.array([n.lon for n in self.nodes])

    @cached_property
    def _lon_scale(self) -> float:
        """Cosine of the mid latitude: the bounding box's, else the nodes' mean."""
        if self.grid is not None:
            mid_lat = 0.5 * (self.grid.bbox[0] + self.grid.bbox[1])
        else:
            import numpy as np
            mid_lat = float(np.mean(self._coords[0])) if self.nodes else 0.0
        return math.cos(math.radians(mid_lat))


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
        lat_min, lat_max, lon_min, lon_max = check_bbox(bbox)
    except ValueError as exc:
        raise ConfigError(f"bbox: {exc}") from None
    dlat = (lat_max - lat_min) / rows
    dlon = (lon_max - lon_min) / cols
    nodes = []
    for i in range(rows):
        for j in range(cols):
            nodes.append(FogNode(
                id=i * cols + j,
                lat=lat_min + (i + 0.5) * dlat,
                lon=lon_min + (j + 0.5) * dlon,
            ))
    return Topology(nodes, grid=GridSpec(rows, cols, tuple(bbox)))


def _grid_axes(nodes):
    """(row latitudes, column longitudes) when the nodes are build_grid's
    layout: ids row-major from 0, every stored coordinate taken from one
    latitude per row and one longitude per column, both strictly increasing.
    None for any other node set, which the nearest-node scan then serves.
    Plain Python lists, so that building a topology never loads numpy;
    nearest_nodes turns them into arrays."""
    n = len(nodes)
    if n == 0:
        return None
    cols = next((i for i in range(1, n) if nodes[i].lat != nodes[0].lat), n)
    rows, rest = divmod(n, cols)
    if rest or any(node.id != i for i, node in enumerate(nodes)):
        return None
    lat_c = [nodes[r * cols].lat for r in range(rows)]
    lon_c = [node.lon for node in nodes[:cols]]
    if any(node.lat != lat_c[i // cols] or node.lon != lon_c[i % cols] for i, node in enumerate(nodes)):
        return None
    if not all(a < b for axis in (lat_c, lon_c) for a, b in zip(axis, axis[1:])):
        return None
    return lat_c, lon_c


# points per pass of nearest_nodes on a grid: bounds its ~20 temporary
# columns to about 0.3 MiB however many points one call is given. Passes of
# 8k points raised ingest's peak memory by 1 MiB for a few per cent of speed
_NEAREST_SLICE = 1 << 11


def _scan(lats, lons, topo: Topology) -> np.ndarray:
    """Nearest node by comparing every point with every node."""
    import numpy as np
    out = np.empty(len(lats), dtype=np.int64)
    ids = np.array([n.id for n in topo.nodes])
    node_lats, node_lons = topo._coords
    # bound the points x nodes distance matrix to ~20M doubles
    chunk = max(1024, 20_000_000 // max(1, len(ids)))
    for start in range(0, len(lats), chunk):
        end = min(start + chunk, len(lats))
        dlat = node_lats[None, :] - lats[start:end, None]
        dlon = (node_lons[None, :] - lons[start:end, None]) * topo._lon_scale
        d2 = dlat * dlat + dlon * dlon
        out[start:end] = ids[np.argmin(d2, axis=1)]
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

    On build_grid's layout the distance is a row term plus a column term, so
    only the 2 x 2 nodes around a point can be nearest, and they are compared
    with the scan's own rounded expression. Rounding keeps each term monotone
    along its axis, so another node can tie them only if the next row or
    column outward ties too; such points, and every point of any other
    topology, go to the scan. A grid takes the points _NEAREST_SLICE at a time.
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
    """nearest_nodes on build_grid's layout, whose row latitudes and column
    longitudes are lat_c and lon_c, for one slice of points."""
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
    lines = []
    if topo.grid is not None:
        g = topo.grid
        lines.append("grid %d %d %r %r %r %r" % (g.rows, g.cols, *g.bbox))
    for n in topo.nodes:
        lines.append("node %d edge %r %r" % (n.id, n.lat, n.lon))
    return "\n".join(lines) + "\n"
