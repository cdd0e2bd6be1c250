"""Output checks against references that do not come from the code under test.

Ingest: the visits CSV fogrep writes must hold exactly the visits the
generator produced (one operation per client). Sweeps: every point's
results.csv row and the bytes of every file in its point directory
(report.csv, series_*.csv) must equal a reference recorded once from the
seed commit (one operation per (policy, topology) point). Every simulated
statistic must therefore stay bit-identical.

    python perfbench/reference.py [WORKLOAD ...]

records the sweep references for all input variants with the code in src/.
Run it only on a commit whose outputs are known good.
"""
from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

# spelled out rather than imported from fogrep, so that a changed header shows
VISITS_HEADER = ["client_id", "session_id", "node_id", "arrival_epoch_s", "departure_epoch_s"]
RESULTS_FILE = "results.csv"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def check_ingest(visits_csv: Path, expected_rows) -> tuple[int, int, list[str]]:
    """Compare fogrep's visits CSV with the generator's rows, per client."""
    expected: dict[str, list] = {}
    for row in expected_rows:
        expected.setdefault(row[0], []).append(row)
    attempted = len(expected)
    try:
        with open(visits_csv, newline="") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != VISITS_HEADER:
                return attempted, attempted, [f"{visits_csv}: unexpected header"]
            got: dict[str, list] = {}
            for row in reader:
                got.setdefault(row[0], []).append(
                    (row[0], int(row[1]), int(row[2]), float(row[3]), float(row[4])))
    except (OSError, ValueError, IndexError) as exc:
        return attempted, attempted, [f"{visits_csv}: unreadable: {exc}"]
    bad = sorted(c for c in expected.keys() | got.keys() if expected.get(c) != got.get(c))
    notes = [f"client {c}: visits differ from the generated ones" for c in bad[:5]]
    return attempted, min(attempted, len(bad)), notes


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sweep_outputs(out_dir: Path) -> dict:
    """{point: {"row": results.csv line, "files": {name: sha256}}} plus the
    header under "results_header"."""
    lines = (out_dir / RESULTS_FILE).read_text().splitlines()
    header = lines[0].split(",")
    col = {name: i for i, name in enumerate(header)}
    points = {}
    for line in lines[1:]:
        fields = line.split(",")
        point = f"{fields[col['policy']]}__{fields[col['topology']]}"
        files = {p.name: _sha(p) for p in sorted((out_dir / point).iterdir())}
        points[point] = {"row": line, "files": files}
    return {"results_header": lines[0], "points": points}


def check_sweep(out_dir: Path, reference: dict) -> tuple[int, int, list[str]]:
    expected = reference["points"]
    attempted = len(expected)
    try:
        got = sweep_outputs(out_dir)
    except (OSError, IndexError, KeyError) as exc:
        return attempted, attempted, [f"{out_dir}: unreadable results: {exc}"]
    if got["results_header"] != reference["results_header"]:
        return attempted, attempted, [f"{out_dir}: results.csv header changed"]
    bad = sorted(p for p in expected.keys() | got["points"].keys()
                 if expected.get(p) != got["points"].get(p))
    notes = [f"point {p}: output differs from the reference" for p in bad[:5]]
    return attempted, min(attempted, len(bad)), notes


def load(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())


def record(workloads):
    import run
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in workloads:
        wl = run.WORKLOADS[name]
        variants = {}
        for variant in range(run.VARIANTS):
            inputs = run.prepare(wl, variant)
            rep = run.run_command(wl, inputs, trace=False)
            if rep.exit != 0:
                raise SystemExit(f"{name} variant {variant}: fogrep exited {rep.exit}")
            variants[str(variant)] = {"inputs": inputs.digest, **sweep_outputs(inputs.out)}
            print(f"{name}: variant {variant} recorded", flush=True)
        doc = {"workload": name, "variants": variants}
        (REFERENCE_DIR / f"{name}.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    import sys
    import run
    sys.path.insert(0, str(run.SRC))
    record(sys.argv[1:] or [w for w, spec in run.WORKLOADS.items() if spec.config])
