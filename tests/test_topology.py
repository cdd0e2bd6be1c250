import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogrep.errors import ConfigError
from fogrep.experiment import TopologySpec
from fogrep.topology import (BEIJING_BBOX, FixedDelay, build_grid,
                             dump_topology, nearest_nodes, transfer_time)

from oracles import brute_force_nearest, node_coords

UNIT_BBOX = (0.0, 1.0, 0.0, 1.0)


class TestBuildGrid:
    def test_single_cell_is_bbox_center(self):
        topo = build_grid(1, 1, UNIT_BBOX)
        assert topo.node_count == 1
        assert node_coords(topo) == [(0.5, 0.5)]

    def test_2x2_cell_centers(self):
        topo = build_grid(2, 2, UNIT_BBOX)
        assert node_coords(topo) == [(0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)]

    def test_10x10_has_dense_ids(self):
        topo = build_grid(10, 10)
        assert topo.node_count == 100
        assert [int(line.split()[1]) for line in dump_topology(topo).splitlines()[1:]] == list(range(100))

    def test_degenerate_bbox_rejected(self):
        with pytest.raises(ConfigError):
            build_grid(2, 2, (1.0, 1.0, 0.0, 1.0))
        with pytest.raises(ConfigError):
            build_grid(0, 2, UNIT_BBOX)


class TestNearestNode:
    def test_exact_position(self):
        topo = build_grid(3, 3, UNIT_BBOX)
        lats, lons = zip(*node_coords(topo))
        assert nearest_nodes(lats, lons, topo).tolist() == list(range(topo.node_count))

    def test_midpoint_tie_breaks_to_smaller_id(self):
        topo = build_grid(1, 2, UNIT_BBOX)  # nodes at lon 0.25 and 0.75
        assert nearest_nodes([0.5], [0.5], topo).tolist() == [0]

    def test_matches_brute_force_scan(self):
        topo = build_grid(10, 10)
        rng = random.Random(7)
        points = [(rng.uniform(39.0, 41.0), rng.uniform(115.0, 118.0)) for _ in range(300)]
        lats, lons = zip(*points)
        assert nearest_nodes(lats, lons, topo).tolist() == \
               [brute_force_nearest(lat, lon, topo) for lat, lon in points]

    def test_vectorized_matches_scalar(self):
        topo = build_grid(4, 7, UNIT_BBOX)
        rng = random.Random(11)
        lats = [rng.uniform(-0.5, 1.5) for _ in range(200)]
        lons = [rng.uniform(-0.5, 1.5) for _ in range(200)]
        batch = nearest_nodes(lats, lons, topo)
        for lat, lon, nid in zip(lats, lons, batch):
            assert nearest_nodes([lat], [lon], topo).tolist() == [nid]

    def test_outside_grid_clamps(self):
        topo = build_grid(2, 2, UNIT_BBOX)
        assert nearest_nodes([-50.0], [-50.0], topo).tolist() == [0]


def _grid(kind, rows, cols, bbox):
    """The nodes of a config's topology of that kind."""
    return TopologySpec("t", kind=kind, rows=rows, cols=cols, bbox=bbox).build()[0]


def _probe_points(rng, topo, bbox, count):
    """Exact node positions, exact midpoints between neighbouring centres,
    points inside the bbox and points far outside it (within the lat/lon
    ranges PLT parsing accepts)."""
    lat0, lat1, lon0, lon1 = bbox
    lats = sorted(set(topo.lat_c))
    lons = sorted(set(topo.lon_c))
    mid_lats = [(a + b) / 2 for a, b in zip(lats, lats[1:])] or lats
    mid_lons = [(a + b) / 2 for a, b in zip(lons, lons[1:])] or lons
    points = []
    for _ in range(count):
        kind = rng.randrange(4)
        if kind == 0:
            points.append(rng.choice(node_coords(topo)))
        elif kind == 1:
            points.append((rng.choice(mid_lats + lats), rng.choice(mid_lons + lons)))
        elif kind == 2:
            points.append((rng.uniform(lat0, lat1), rng.uniform(lon0, lon1)))
        else:
            points.append((rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0)))
    return [p[0] for p in points], [p[1] for p in points]


class TestGridLookup:
    """On build_grid's layout nearest_nodes looks at the 2 x 2 nodes around a
    point; it must return exactly what the scan over every node returns."""

    @settings(max_examples=120, deadline=None)
    @given(kind=st.sampled_from(["grid", "complex"]),
           rows=st.integers(1, 30), cols=st.integers(1, 30),
           lat0=st.floats(-89.0, 80.0), lon0=st.floats(-179.0, 170.0),
           height_exp=st.floats(-12.0, 0.9), width_exp=st.floats(-12.0, 0.9),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_brute_force(self, kind, rows, cols, lat0, lon0, height_exp, width_exp, seed):
        bbox = (lat0, lat0 + 10 ** height_exp, lon0, lon0 + 10 ** width_exp)
        topo = _grid(kind, rows, cols, bbox)
        lats, lons = _probe_points(random.Random(seed), topo, bbox, 40)
        expected = [brute_force_nearest(lat, lon, topo) for lat, lon in zip(lats, lons)]
        assert nearest_nodes(lats, lons, topo).tolist() == expected

    @pytest.mark.parametrize("kind", ["grid", "complex"])
    @pytest.mark.parametrize("rows,cols", [(1, 7), (7, 1), (1, 1), (25, 25)])
    def test_grid_layouts_take_the_lookup(self, kind, rows, cols):
        topo = _grid(kind, rows, cols, BEIJING_BBOX)
        assert topo._axes is not None
        lats, lons = _probe_points(random.Random(rows * 31 + cols), topo, BEIJING_BBOX, 200)
        expected = [brute_force_nearest(lat, lon, topo) for lat, lon in zip(lats, lons)]
        assert nearest_nodes(lats, lons, topo).tolist() == expected

    def test_rounding_ties_far_outside_a_tiny_bbox(self):
        # every column is the same rounded distance from a point this far
        # away, so the scan's answer is column 0, not the nearest column
        topo = build_grid(30, 30, (39.6, 39.6 + 1e-9, 116.0, 116.0 + 1e-9))
        assert topo._axes is not None
        lats, lons = [89.0, -89.0], [116.0 + 1e-9 / 3, 116.0 + 1e-9 / 2]
        assert nearest_nodes(lats, lons, topo).tolist() == [870, 0] == \
               [brute_force_nearest(lat, lon, topo) for lat, lon in zip(lats, lons)]

    def test_sub_ulp_bbox_takes_the_scan(self):
        # ten rows over a bbox one ulp high round to two distinct latitudes,
        # which the lookup cannot bracket; the scan serves every point
        bbox = (39.6, 39.60000000000001, 116.0, 116.8)
        topo = build_grid(10, 4, bbox)
        assert len(set(topo.lat_c)) == 2 and topo._axes is None
        lats, lons = _probe_points(random.Random(3), topo, bbox, 200)
        expected = [brute_force_nearest(lat, lon, topo) for lat, lon in zip(lats, lons)]
        assert nearest_nodes(lats, lons, topo).tolist() == expected


# (rows, cols, spec settings, seconds per transfer to every node), recorded
# from the router/cloud flow network this model replaced: the first two at
# the default rates, then two with the slower uplink and two with the slower
# edge link
COMPLEX_TIMES = [
    (25, 25, {"data_size_gb": 1.0}, 200.0),
    (1, 1, {"data_size_gb": 0.3}, 60.0),
    (3, 4, {"edge_rate": 1e9, "uplink_rate": 3e8, "data_size_gb": 2.5}, 66.66666666666667),
    (5, 2, {"edge_rate": 6e8, "uplink_rate": 1.1e7, "data_size_gb": 1.3}, 945.4545454545455),
    (4, 3, {"edge_rate": 3.3e7, "uplink_rate": 9.1e7, "data_size_gb": 0.7}, 169.6969696969697),
    (6, 1, {"edge_rate": 1.5e8, "uplink_rate": 2.5e8, "data_size_gb": 1.7}, 90.66666666666667),
]


def complex_spec(rows, cols, **settings):
    return TopologySpec("c", kind="complex", rows=rows, cols=cols, **settings)


class TestComplexNetwork:
    def test_9x9_node_counts(self):
        topo, _ = complex_spec(9, 9).build()
        assert topo.node_count == 81

    def test_1x1_chain(self):
        topo, model = complex_spec(1, 1, bbox=UNIT_BBOX).build()
        assert topo.node_count == 1
        assert transfer_time(0, model) == 200.0


class TestTransferTime:
    def test_fixed_delay(self):
        model = FixedDelay(300.0)
        assert transfer_time(5, model) == 300.0

    def test_cloud_to_edge_bottleneck(self):
        _, model = complex_spec(9, 9).build()  # 1 GB
        assert transfer_time(0, model) == 8e9 / 4e7  # == 200 s

    def test_lower_bound_is_size_over_max_rate(self):
        spec = complex_spec(5, 5, bbox=UNIT_BBOX)
        topo, model = spec.build()
        for node in range(topo.node_count):
            assert transfer_time(node, model) >= 8e9 / max(spec.edge_rate, spec.uplink_rate)

    def test_times_match_min_hop_bottleneck(self):
        """Every edge node of a complex topology is build_grid's and takes
        the time its edge-router-cloud path took, bit for bit."""
        for rows, cols, settings, seconds in COMPLEX_TIMES:
            topo, model = complex_spec(rows, cols, **settings).build()
            grid = build_grid(rows, cols)
            assert (node_coords(topo), topo.grid) == (node_coords(grid), grid.grid)
            assert [transfer_time(n, model) for n in range(topo.node_count)] == [seconds] * rows * cols


class TestDump:
    def test_grid_text(self):
        assert dump_topology(build_grid(2, 1, (39.5, 40.5, 116.0, 117.0))) == (
            "grid 2 1 39.5 40.5 116.0 117.0\n"
            "node 0 edge 39.75 116.5\n"
            "node 1 edge 40.25 116.5\n")

    def test_25x25_text_is_unchanged(self):
        # recorded from the node-list topology that the grid's axes replaced
        text = dump_topology(build_grid(25, 25))
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "a003e8d952209188e10bc52a162f489766ea48750ed8c3770244a54f6dcb3081"
