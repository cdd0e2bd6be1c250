import gen
import reference

RESULTS = ("experiment,topology,policy,clients,availability,excess_ratio,"
           "memory_avg_bytes,memory_max_bytes\n"
           "x,grid,baseline,2,0.5,0.0,0.0,0\n"
           "x,grid,vomm,2,0.75,0.25,120.0,240\n")


def _sweep_out(root):
    root.mkdir()
    (root / "results.csv").write_text(RESULTS)
    for point in ("baseline__grid", "vomm__grid"):
        (root / point).mkdir()
        (root / point / "report.csv").write_text(
            "client_id,active_s,availability,excess_ratio,memory_bytes\n"
            "000,100.0,0.5,0.0,0\n001,300.0,0.75,0.25,0\n")
    return root


def test_sweep_reference_accepts_identical_outputs(tmp_path):
    out = _sweep_out(tmp_path / "out")
    ref = reference.sweep_outputs(out)
    assert reference.check_sweep(out, ref) == (2, 0, [])


def test_sweep_reference_flags_an_altered_report_row(tmp_path):
    out = _sweep_out(tmp_path / "out")
    ref = reference.sweep_outputs(out)
    report = out / "vomm__grid" / "report.csv"
    report.write_text(report.read_text().replace("001,300.0,0.75", "001,300.0,0.7500000000000001"))
    attempted, failed, notes = reference.check_sweep(out, ref)
    assert (attempted, failed) == (2, 1) and "vomm__grid" in notes[0]


def test_sweep_reference_flags_an_altered_results_row(tmp_path):
    out = _sweep_out(tmp_path / "out")
    ref = reference.sweep_outputs(out)
    (out / "results.csv").write_text(RESULTS.replace("0.5,0.0,0.0,0", "0.5,0.0,0.0,1"))
    assert reference.check_sweep(out, ref)[:2] == (2, 1)


def test_sweep_reference_flags_missing_outputs(tmp_path):
    out = _sweep_out(tmp_path / "out")
    ref = reference.sweep_outputs(out)
    (out / "results.csv").unlink()
    assert reference.check_sweep(out, ref)[:2] == (2, 2)


def test_ingest_check_flags_one_altered_client(tmp_path):
    timelines = gen.generate(2, gen.Shape(3, 4, 5, 5))
    path = tmp_path / "visits.csv"
    gen.write_visits(timelines, path)
    rows = gen.visit_rows(timelines)
    assert reference.check_ingest(path, rows) == (3, 0, [])
    lines = path.read_text().splitlines()
    cid, sid, node, arr, dep = lines[-1].split(",")
    lines[-1] = ",".join([cid, sid, node, arr, repr(float(dep) + 1.0)])
    path.write_text("\n".join(lines) + "\n")
    attempted, failed, notes = reference.check_ingest(path, rows)
    assert (attempted, failed) == (3, 1) and cid in notes[0]
