import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogrep.errors import ConfigError, TopologyError
from fogrep.topology import (BEIJING_BBOX, FixedDelay, FlowGraph, FogNode,
                             Link, Topology, build_complex_network, build_grid,
                             dump_topology, load_topology, min_hop_path,
                             nearest_node, nearest_nodes, transfer_time,
                             transfer_source)

UNIT_BBOX = (0.0, 1.0, 0.0, 1.0)


def brute_force_nearest(lat, lon, topo):
    """Independent linear scan with the same equirectangular metric."""
    best_id, best_d2 = None, None
    for n in topo.edge_nodes:
        dlat = lat - n.lat
        dlon = (lon - n.lon) * topo._lon_scale
        d2 = dlat * dlat + dlon * dlon
        if best_d2 is None or d2 < best_d2:
            best_id, best_d2 = n.id, d2
    return best_id


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
        for n in topo.nodes:
            assert nearest_node(n.lat, n.lon, topo) == n.id

    def test_midpoint_tie_breaks_to_smaller_id(self):
        topo = build_grid(1, 2, UNIT_BBOX)  # nodes at lon 0.25 and 0.75
        assert nearest_node(0.5, 0.5, topo) == 0

    def test_matches_brute_force_scan(self):
        topo = build_grid(10, 10)
        rng = random.Random(7)
        for _ in range(300):
            lat = rng.uniform(39.0, 41.0)
            lon = rng.uniform(115.0, 118.0)
            assert nearest_node(lat, lon, topo) == brute_force_nearest(lat, lon, topo)

    def test_vectorized_matches_scalar(self):
        topo = build_grid(4, 7, UNIT_BBOX)
        rng = random.Random(11)
        lats = [rng.uniform(-0.5, 1.5) for _ in range(200)]
        lons = [rng.uniform(-0.5, 1.5) for _ in range(200)]
        batch = nearest_nodes(lats, lons, topo)
        for lat, lon, nid in zip(lats, lons, batch):
            assert nearest_node(lat, lon, topo) == nid

    def test_outside_grid_clamps(self):
        topo = build_grid(2, 2, UNIT_BBOX)
        assert nearest_node(-50.0, -50.0, topo) == 0

    def test_cloud_never_returned(self):
        topo = build_complex_network(2, 2, UNIT_BBOX)
        cloud = topo.nodes[topo.cloud_id]
        assert nearest_node(cloud.lat, cloud.lon, topo) != topo.cloud_id


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

    def test_graph_connected_validation(self):
        nodes = [FogNode(0, 0.0, 0.0), FogNode(1, 1.0, 1.0)]
        with pytest.raises(TopologyError):
            Topology(nodes, routers=[2], links=[Link(0, 2, 1e6)])


class TestTransferTime:
    def test_fixed_delay(self):
        model = FixedDelay(300.0)
        assert transfer_time(0, 5, model) == 300.0

    def test_cloud_to_edge_bottleneck(self):
        topo = build_complex_network(9, 9)
        model = FlowGraph(topo, 8e9)  # 1 GB
        assert transfer_time(topo.cloud_id, 0, model) == 8e9 / 4e7  # == 200 s
        assert transfer_source(model, topo) == topo.cloud_id

    def test_adjacent_edges_same_bottleneck(self):
        topo = build_complex_network(3, 3, UNIT_BBOX)
        model = FlowGraph(topo, 8e9)
        assert transfer_time(0, 1, model) == 200.0

    def test_symmetry(self):
        topo = build_complex_network(4, 4, UNIT_BBOX)
        model = FlowGraph(topo, 8e9)
        rng = random.Random(3)
        for _ in range(20):
            a, b = rng.sample(range(16), 2)
            assert transfer_time(a, b, model) == transfer_time(b, a, model)
        fixed = FixedDelay(120.0)
        assert transfer_time(2, 9, fixed) == transfer_time(9, 2, fixed)

    def test_lower_bound_is_size_over_max_rate(self):
        topo = build_complex_network(5, 5, UNIT_BBOX)
        model = FlowGraph(topo, 8e9)
        max_rate = max(l.rate for l in topo.links)
        rng = random.Random(5)
        for _ in range(30):
            a, b = rng.sample(range(25), 2)
            assert transfer_time(a, b, model) >= 8e9 / max_rate

    def test_same_endpoint_rejected(self):
        with pytest.raises(ConfigError):
            transfer_time(1, 1, FixedDelay(10.0))

    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(1, 5), cols=st.integers(1, 5), neighborhood=st.sampled_from([4, 8]),
           seed=st.integers(0, 2**32 - 1))
    def test_memoised_times_match_min_hop_bottleneck(self, rows, cols, neighborhood, seed):
        base = build_complex_network(rows, cols, UNIT_BBOX, neighborhood=neighborhood)
        rng = random.Random(seed)
        links = [Link(l.a, l.b, rng.choice([1e6, 4e7, 1e8, 8e8]) * rng.uniform(0.5, 2.0))
                 for l in base.links]
        topo = Topology(base.nodes, routers=base.routers, links=links, grid=base.grid)
        model = FlowGraph(topo, 8e9)
        rates = {(l.a, l.b): l.rate for l in links} | {(l.b, l.a): l.rate for l in links}
        for _ in range(2):  # first computed, then served from the model's memo
            for node in topo.edge_nodes:
                path = min_hop_path(topo, topo.cloud_id, node.id)
                bottleneck = min(rates[hop] for hop in zip(path, path[1:]))
                assert transfer_time(topo.cloud_id, node.id, model) == 8e9 / bottleneck
        assert len(model.times) == len(topo.edge_nodes)
        assert model == FlowGraph(topo, 8e9)  # the memo takes no part in equality

    def test_invalid_models(self):
        with pytest.raises(ConfigError):
            FixedDelay(0.0)
        with pytest.raises(ConfigError):
            FlowGraph(build_complex_network(2, 2, UNIT_BBOX), 0.0)


class TestDumpLoad:
    def test_round_trip_grid(self):
        topo = build_grid(3, 4)
        text = dump_topology(topo)
        loaded = load_topology(text)
        assert dump_topology(loaded) == text
        assert [(n.id, n.lat, n.lon) for n in loaded.nodes] == \
               [(n.id, n.lat, n.lon) for n in topo.nodes]

    def test_round_trip_complex(self):
        topo = build_complex_network(2, 3, UNIT_BBOX)
        loaded = load_topology(dump_topology(topo))
        assert loaded.routers == topo.routers
        assert loaded.links == topo.links

    def test_malformed_line_reports_lineno(self):
        with pytest.raises(ConfigError, match="line 1"):
            load_topology("node zero edge 1 2\n")
