"""Fog topologies: node grids over a bounding box, optional router/cloud
graphs, nearest-node queries, and transfer-time models.

Every transfer brings a client's data from the cloud, which stores all of it,
to an edge node. A flow network's time to each edge node is filled once, when
the model is built, by one breadth-first pass from the cloud.

Distances are equirectangular at city scale: longitude differences are scaled
by the cosine of the mid-bounding-box latitude. The scale is a constant per
topology, so the grid lookup and the scan over every node compare the same
rounded distances and break ties alike. A query of any length works through
its points in fixed-size slices, which bounds its temporary arrays.

Inputs come checked, by a config's field table or, for ``fogrep ingest``, by
``build_grid``; ``Topology``, ``FixedDelay`` and ``FlowGraph`` take theirs as
given (dense ids, one connected cloud, finite positive rates).

Only the nearest-node queries use numpy: ``nearest_nodes``,
``_grid_nearest``, ``_scan``, ``_bracket`` and ``Topology._coords`` import it
when first called, so building a topology or timing its transfers never
loads it.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from .errors import ConfigError

if TYPE_CHECKING:
    import numpy as np

# Default study area when only grid dimensions are given.
BEIJING_BBOX = (39.6, 40.3, 116.0, 116.8)  # lat_min, lat_max, lon_min, lon_max

EDGE = "edge"
CLOUD = "cloud"

DEFAULT_EDGE_RATE = 40e6  # bits/s
DEFAULT_UPLINK_RATE = 800e6  # bits/s


@dataclass(frozen=True)
class FogNode:
    id: int
    lat: float
    lon: float
    kind: str = EDGE


@dataclass(frozen=True)
class Link:
    a: int
    b: int
    rate: float  # bits per second


@dataclass(frozen=True)
class GridSpec:
    rows: int
    cols: int
    bbox: tuple[float, float, float, float]


class Topology:
    """Immutable after construction; all queries are read-only. The
    nearest-node arrays are built once, by the first query that needs them."""

    def __init__(self, nodes, routers=(), links=(), grid=None):
        self.nodes: list[FogNode] = list(nodes)
        self.routers: list[int] = list(routers)
        self.links: list[Link] = list(links)
        self.grid: GridSpec | None = grid
        self._adj: dict[int, list[int]] = {}
        self._rates: dict[tuple[int, int], float] = {}
        for link in self.links:
            self._adj.setdefault(link.a, []).append(link.b)
            self._adj.setdefault(link.b, []).append(link.a)
            self._rates[(link.a, link.b)] = link.rate
            self._rates[(link.b, link.a)] = link.rate
        for nbrs in self._adj.values():
            nbrs.sort()
        self._edge_nodes = [n for n in self.nodes if n.kind == EDGE]
        self._axes = _grid_axes(self._edge_nodes)

    @cached_property
    def _coords(self) -> tuple[np.ndarray, np.ndarray]:
        """The edge nodes' latitudes and longitudes, for the nearest-node scan."""
        import numpy as np
        return np.array([n.lat for n in self._edge_nodes]), np.array([n.lon for n in self._edge_nodes])

    @cached_property
    def _lon_scale(self) -> float:
        """Cosine of the mid latitude: the bounding box's, else the edge nodes' mean."""
        if self.grid is not None:
            mid_lat = 0.5 * (self.grid.bbox[0] + self.grid.bbox[1])
        else:
            import numpy as np
            mid_lat = float(np.mean(self._coords[0])) if self._edge_nodes else 0.0
        return math.cos(math.radians(mid_lat))

    @property
    def edge_nodes(self) -> list[FogNode]:
        return self._edge_nodes

    @property
    def cloud_id(self) -> int | None:
        for n in self.nodes:
            if n.kind == CLOUD:
                return n.id
        return None


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


def build_complex_network(rows, cols, bbox=BEIJING_BBOX,
                          edge_rate=DEFAULT_EDGE_RATE,
                          uplink_rate=DEFAULT_UPLINK_RATE,
                          neighborhood=4) -> Topology:
    """Grid of edge nodes, one router per node, a router mesh between grid
    neighbors, and one cloud node uplinked from every router.

    Edge node ids are 0..rows*cols-1 (row-major), the cloud node follows at
    rows*cols, and routers occupy rows*cols+1 .. 2*rows*cols.
    """
    base = build_grid(rows, cols, bbox)
    n = rows * cols
    cloud_id = n
    lat_min, lat_max, lon_min, lon_max = bbox
    nodes = list(base.nodes)
    nodes.append(FogNode(cloud_id, 0.5 * (lat_min + lat_max), 0.5 * (lon_min + lon_max), CLOUD))
    router_of = lambda node_id: n + 1 + node_id
    routers = [router_of(i) for i in range(n)]
    links = []
    for i in range(n):
        links.append(Link(i, router_of(i), edge_rate))
    offsets = [(0, 1), (1, 0)]
    if neighborhood == 8:
        offsets += [(1, 1), (1, -1)]
    for r in range(rows):
        for c in range(cols):
            for dr, dc in offsets:
                r2, c2 = r + dr, c + dc
                if 0 <= r2 < rows and 0 <= c2 < cols:
                    links.append(Link(router_of(r * cols + c), router_of(r2 * cols + c2), edge_rate))
    for i in range(n):
        links.append(Link(router_of(i), cloud_id, uplink_rate))
    return Topology(nodes, routers=routers, links=links, grid=GridSpec(rows, cols, tuple(bbox)))


def _grid_axes(nodes):
    """(row latitudes, column longitudes) when the edge nodes are build_grid's
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
    """Nearest edge node by comparing every point with every node."""
    import numpy as np
    out = np.empty(len(lats), dtype=np.int64)
    ids = np.array([n.id for n in topo.edge_nodes])
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
    """Edge node minimizing equirectangular distance for each point; ties go
    to the smaller id. The cloud node is never returned. Points outside the
    grid clamp to the nearest node by distance, no rejection.

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


@dataclass(frozen=True)
class FlowGraph:
    """Flow-level transfer model: a fixed-size payload moves from the cloud
    along the min-hop path at the bottleneck link rate, without contention."""
    topology: Topology
    data_size: float  # bits
    # edge node id -> seconds from the cloud, filled at construction
    times: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        bottlenecks = _bottlenecks(self.topology, self.topology.cloud_id)
        object.__setattr__(self, "times", {n.id: self.data_size / bottlenecks[n.id]
                                           for n in self.topology.edge_nodes})


NetworkModel = FixedDelay | FlowGraph


def _bottlenecks(topo: Topology, root) -> dict[int, float]:
    """Bottleneck rate of the minimum-hop path from ``root`` to every endpoint
    reachable from it (breadth-first; ``root`` itself maps to infinity).

    Equal-hop ties go to the lexicographically smallest id sequence: the FIFO
    queue pops each layer in the order of its nodes' smallest min-hop paths,
    and the adjacency lists are sorted, so each node is first reached along
    its smallest path."""
    rate = {root: math.inf}
    queue = deque([root])
    while queue:
        cur = queue.popleft()
        for nb in topo._adj.get(cur, ()):
            if nb not in rate:
                rate[nb] = min(rate[cur], topo._rates[(cur, nb)])
                queue.append(nb)
    return rate


def transfer_time(dst, model: NetworkModel) -> float:
    """Seconds to move one client data set from the cloud to edge node dst."""
    if isinstance(model, FixedDelay):
        return model.delay
    return model.times[dst]


def dump_topology(topo: Topology) -> str:
    """Plain text node table + link table, reproducible byte-for-byte."""
    lines = []
    if topo.grid is not None:
        g = topo.grid
        lines.append("grid %d %d %r %r %r %r" % (g.rows, g.cols, *g.bbox))
    for n in topo.nodes:
        lines.append("node %d %s %r %r" % (n.id, n.kind, n.lat, n.lon))
    for r in topo.routers:
        lines.append("router %d" % r)
    for link in topo.links:
        lines.append("link %d %d %r" % (link.a, link.b, link.rate))
    return "\n".join(lines) + "\n"
