import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogrep.errors import ConfigError
from fogrep.topology import (BEIJING_BBOX, FixedDelay, FlowGraph, FogNode,
                             GridSpec, Link, Topology, build_complex_network,
                             build_grid, dump_topology, nearest_nodes,
                             transfer_time)

from oracles import brute_force_nearest, min_hop_path

UNIT_BBOX = (0.0, 1.0, 0.0, 1.0)


class TestBuildGrid:
    def test_single_cell_is_bbox_center(self):
        topo = build_grid(1, 1, UNIT_BBOX)
        assert len(topo.nodes) == 1
        assert topo.nodes[0].lat == 0.5
        assert topo.nodes[0].lon == 0.5

    def test_2x2_cell_centers(self):
        topo = build_grid(2, 2, UNIT_BBOX)
        coords = [(n.lat, n.lon) for n in topo.nodes]
        assert coords == [(0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)]

    def test_10x10_has_dense_ids(self):
        topo = build_grid(10, 10)
        assert [n.id for n in topo.nodes] == list(range(100))
        assert all(n.kind == "edge" for n in topo.nodes)

    def test_degenerate_bbox_rejected(self):
        with pytest.raises(ConfigError):
            build_grid(2, 2, (1.0, 1.0, 0.0, 1.0))
        with pytest.raises(ConfigError):
            build_grid(0, 2, UNIT_BBOX)


class TestNearestNode:
    def test_exact_position(self):
        topo = build_grid(3, 3, UNIT_BBOX)
        lats, lons = [n.lat for n in topo.nodes], [n.lon for n in topo.nodes]
        assert nearest_nodes(lats, lons, topo).tolist() == [n.id for n in topo.nodes]

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

    def test_cloud_never_returned(self):
        topo = build_complex_network(2, 2, UNIT_BBOX)
        cloud = topo.nodes[topo.cloud_id]
        assert nearest_nodes([cloud.lat], [cloud.lon], topo).tolist() != [topo.cloud_id]


def _grid(kind, rows, cols, bbox):
    if kind == "grid":
        return build_grid(rows, cols, bbox)
    return build_complex_network(rows, cols, bbox, neighborhood=int(kind[-1]))


def _probe_points(rng, topo, bbox, count):
    """Exact node positions, exact midpoints between neighbouring centres,
    points inside the bbox and points far outside it (within the lat/lon
    ranges PLT parsing accepts)."""
    lat0, lat1, lon0, lon1 = bbox
    lats = sorted({n.lat for n in topo.edge_nodes})
    lons = sorted({n.lon for n in topo.edge_nodes})
    mid_lats = [(a + b) / 2 for a, b in zip(lats, lats[1:])] or lats
    mid_lons = [(a + b) / 2 for a, b in zip(lons, lons[1:])] or lons
    points = []
    for _ in range(count):
        kind = rng.randrange(4)
        if kind == 0:
            node = rng.choice(topo.edge_nodes)
            points.append((node.lat, node.lon))
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
    @given(kind=st.sampled_from(["grid", "complex4", "complex8"]),
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

    @pytest.mark.parametrize("kind", ["grid", "complex4", "complex8"])
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

    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(1, 8), cols=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_shuffled_nodes_take_the_scan(self, rows, cols, seed):
        rng = random.Random(seed)
        base = build_grid(rows, cols, BEIJING_BBOX)
        coords = [(n.lat, n.lon) for n in base.nodes]
        if len(coords) > 1:
            shuffled = rng.sample(coords, len(coords))
            coords = shuffled if shuffled != coords else coords[1:] + coords[:1]
        topo = Topology([FogNode(i, lat, lon) for i, (lat, lon) in enumerate(coords)],
                        grid=base.grid)
        assert (topo._axes is None) == (len(coords) > 1)
        lats, lons = _probe_points(rng, topo, BEIJING_BBOX, 40)
        expected = [brute_force_nearest(lat, lon, topo) for lat, lon in zip(lats, lons)]
        assert nearest_nodes(lats, lons, topo).tolist() == expected

    def test_grid_spec_with_other_nodes_takes_the_scan(self):
        nodes = [*build_grid(2, 2, UNIT_BBOX).nodes[:3], FogNode(3, 0.9, 0.1)]
        topo = Topology(nodes, grid=GridSpec(2, 2, UNIT_BBOX))
        assert topo._axes is None
        assert nearest_nodes([0.88], [0.12], topo).tolist() == [3] == [brute_force_nearest(0.88, 0.12, topo)]


def expected_link_count(rows, cols):
    # node-router pairs + 4-neighborhood router mesh + uplinks, by construction
    return rows * cols + (2 * rows * cols - rows - cols) + rows * cols


class TestComplexNetwork:
    def test_9x9_node_counts(self):
        topo = build_complex_network(9, 9)
        assert len(topo.edge_nodes) == 81
        assert len(topo.routers) == 81
        assert sum(1 for n in topo.nodes if n.kind == "cloud") == 1

    @pytest.mark.parametrize("rows,cols", [(2, 2), (3, 3), (1, 1), (2, 5)])
    def test_link_count_formula(self, rows, cols):
        topo = build_complex_network(rows, cols, UNIT_BBOX)
        assert len(topo.links) == expected_link_count(rows, cols)

    def test_1x1_chain(self):
        topo = build_complex_network(1, 1, UNIT_BBOX)
        assert len(topo.links) == 2
        assert min_hop_path(topo, topo.cloud_id, 0) == [1, 2, 0]
        assert transfer_time(0, FlowGraph(topo, 8e9)) == 200.0


class TestTransferTime:
    def test_fixed_delay(self):
        model = FixedDelay(300.0)
        assert transfer_time(5, model) == 300.0

    def test_cloud_to_edge_bottleneck(self):
        topo = build_complex_network(9, 9)
        model = FlowGraph(topo, 8e9)  # 1 GB
        assert transfer_time(0, model) == 8e9 / 4e7  # == 200 s

    def test_lower_bound_is_size_over_max_rate(self):
        topo = build_complex_network(5, 5, UNIT_BBOX)
        model = FlowGraph(topo, 8e9)
        max_rate = max(l.rate for l in topo.links)
        for node in topo.edge_nodes:
            assert transfer_time(node.id, model) >= 8e9 / max_rate

    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(1, 5), cols=st.integers(1, 5), neighborhood=st.sampled_from([4, 8]),
           seed=st.integers(0, 2**32 - 1))
    def test_times_match_min_hop_bottleneck(self, rows, cols, neighborhood, seed):
        base = build_complex_network(rows, cols, UNIT_BBOX, neighborhood=neighborhood)
        rng = random.Random(seed)
        cloud = base.cloud_id
        # Dropped uplinks give edge nodes several min-hop paths through the
        # router mesh, so the tie rule decides their times. The mesh keeps
        # every such graph connected.
        uplinks = [l for l in base.links if cloud in (l.a, l.b)]
        kept = set(rng.sample(range(len(uplinks)), rng.randint(1, len(uplinks))))
        dropped = {l for i, l in enumerate(uplinks) if i not in kept}
        links = [Link(l.a, l.b, rng.choice([1e6, 4e7, 1e8, 8e8]) * rng.uniform(0.5, 2.0))
                 for l in base.links if l not in dropped]
        topo = Topology(base.nodes, routers=base.routers, links=links, grid=base.grid)
        model = FlowGraph(topo, 8e9)
        rates = {(l.a, l.b): l.rate for l in links} | {(l.b, l.a): l.rate for l in links}
        assert model.times.keys() == {node.id for node in topo.edge_nodes}
        for node in topo.edge_nodes:
            path = min_hop_path(topo, cloud, node.id)
            bottleneck = min(rates[hop] for hop in zip(path, path[1:]))
            assert model.times[node.id] == 8e9 / bottleneck
        assert model == FlowGraph(topo, 8e9)  # the table takes no part in equality


class TestDump:
    def test_grid_text(self):
        assert dump_topology(build_grid(2, 1, (39.5, 40.5, 116.0, 117.0))) == (
            "grid 2 1 39.5 40.5 116.0 117.0\n"
            "node 0 edge 39.75 116.5\n"
            "node 1 edge 40.25 116.5\n")

    def test_complex_network_text(self):
        """Every record kind, in node, router and link order, floats as repr."""
        assert dump_topology(build_complex_network(1, 2, UNIT_BBOX, edge_rate=1e6)) == (
            "grid 1 2 0.0 1.0 0.0 1.0\n"
            "node 0 edge 0.5 0.25\n"
            "node 1 edge 0.5 0.75\n"
            "node 2 cloud 0.5 0.5\n"
            "router 3\n"
            "router 4\n"
            "link 0 3 1000000.0\n"
            "link 1 4 1000000.0\n"
            "link 3 4 1000000.0\n"
            "link 3 2 800000000.0\n"
            "link 4 2 800000000.0\n")
