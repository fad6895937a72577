"""tools/sweep.py: a small sweep writes a point with the documented keys, and every
row's circuit passes its oracle within the table; the committed points carry the
same keys."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("sweep_tool", ROOT / "tools" / "sweep.py")
sweep = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(sweep)


def _assert_keys(data: dict) -> None:
    assert data["keys"] == {"point": sweep.POINT_KEYS, "row": sweep.ROW_KEYS}
    for point in data["points"]:
        assert set(point) == set(sweep.POINT_KEYS)
        for row in point["rows"]:
            assert set(row) == set(sweep.ROW_KEYS)


def test_sweep_small_sizes(tmp_path):
    out = tmp_path / "BENCH_test.json"
    for sizes in (["16"], ["16", "32"]):  # the second point is appended to the first
        assert sweep.main(["--point", "test", "--sizes", *sizes, "--repeats", "1",
                           "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    _assert_keys(data)
    assert len(data["points"]) == 2
    rows = data["points"][-1]["rows"]
    assert [(r["n"], r["synth"]) for r in rows] == [
        (n, s) for n in (16, 32)
        for s in ("synth_cz", "synth_linear", "synth_clifford", "synth_clifford")]
    for r in rows:
        assert r["ok"] and r["depth"] <= r["table"]
        assert (r["decompose_s"] is None) == (r["synth"] != "synth_clifford")
        assert r["closed_form"] is None  # every closed form starts above n = 32


def test_committed_bench_files_have_the_documented_keys():
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files
    for path in files:
        _assert_keys(json.loads(path.read_text()))

