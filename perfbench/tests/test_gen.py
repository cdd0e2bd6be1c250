import hashlib

import pytest

import gen
from fogrep.topology import build_grid
from fogrep.traces import DEFAULT_GAP_THRESHOLD, load_geolife_dir, parse_plt

SHAPE = gen.Shape(clients=3, sessions=6, rows=5, cols=5)


def _tree_hash(root):
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _emit(seed, root):
    timelines = gen.generate(seed, SHAPE)
    gen.write_plt_tree(seed, timelines, SHAPE, root / "geolife")
    gen.write_visits(timelines, root / "visits.csv")
    return _tree_hash(root)


def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path):
    first = _emit(7, tmp_path / "a")
    assert _emit(7, tmp_path / "b") == first
    assert _emit(8, tmp_path / "c") != first


def test_sessions_alternate_with_positive_pauses():
    for tl in gen.generate(3, SHAPE):
        tl.validate()  # contiguous visits, distinct neighbours, pauses tile the gaps
        assert len(tl.sessions) == SHAPE.sessions
        assert all(p.duration > 0 for p in tl.pauses)
        for visits in tl.sessions:
            assert visits[-1].departure - visits[0].arrival <= gen.MAX_SESSION_S
            for v in visits:
                assert v.arrival == int(v.arrival)
                assert gen.MIN_STAY <= v.departure - v.arrival <= gen.MAX_STAY


def test_points_inside_cells_without_gaps(tmp_path):
    timelines = gen.generate(5, SHAPE)
    gen.write_plt_tree(5, timelines, SHAPE, tmp_path)
    lat0, lat1, lon0, lon1 = SHAPE.bbox
    dlat, dlon = (lat1 - lat0) / SHAPE.rows, (lon1 - lon0) / SHAPE.cols
    for tl in timelines:
        files = sorted((tmp_path / "Data" / tl.client_id / "Trajectory").glob("*.plt"))
        assert len(files) == len(tl.sessions)
        for path, visits in zip(files, tl.sessions):
            points = parse_plt(path.read_bytes())
            assert points[0].t == visits[0].arrival and points[-1].t == visits[-1].departure
            gaps = [b.t - a.t for a, b in zip(points, points[1:])]
            assert min(gaps) >= gen.MIN_STEP and max(gaps) <= gen.MAX_STEP < DEFAULT_GAP_THRESHOLD
            for p in points:
                v = next(v for v in reversed(visits) if v.arrival <= p.t)
                row, col = divmod(v.node, SHAPE.cols)
                fr = (p.lat - lat0) / dlat - row
                fc = (p.lon - lon0) / dlon - col
                assert 0.0 < fr < 1.0 and 0.0 < fc < 1.0


def test_ingest_reproduces_generated_visits(tmp_path):
    timelines = gen.generate(11, SHAPE)
    gen.write_plt_tree(11, timelines, SHAPE, tmp_path)
    topo = build_grid(SHAPE.rows, SHAPE.cols, SHAPE.bbox)
    assert gen.visit_rows(load_geolife_dir(tmp_path, topo)) == gen.visit_rows(timelines)


@pytest.mark.parametrize("rows,cols", [(10, 10), (25, 25)])
def test_walks_stay_on_the_grid(rows, cols):
    shape = gen.Shape(2, 20, rows, cols)
    for tl in gen.generate(1, shape):
        assert all(0 <= v.node < rows * cols for s in tl.sessions for v in s)
