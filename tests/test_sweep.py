"""tools/sweep.py: a small sweep writes a point with the documented keys, every
row's circuit passes its oracle within the table, and the bound scans hold under
2 MiB; the committed points carry the same keys."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("sweep_tool", ROOT / "tools" / "sweep.py")
sweep = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(sweep)


def _assert_keys(data: dict) -> None:
    assert data["keys"] == {"point": sweep.POINT_KEYS, "row": sweep.ROW_KEYS,
                            "bounds": sweep.BOUNDS_KEYS}
    for point in data["points"]:
        assert set(point) == set(sweep.POINT_KEYS)
        for row in point["rows"]:
            assert set(row) == set(sweep.ROW_KEYS)
        if point["bounds"] is not None:  # null in points measured before it was recorded
            assert set(point["bounds"]) == set(sweep.BOUNDS_KEYS)
            assert list(point["bounds"]["fill_s"]) == [
                "cz", "cz-basic", "cnot", "cnot-first-branch", "clifford"]


def _untimed(point: dict) -> dict:
    """A point without its label, its bound-table costs and its rows' times."""
    rows = [{k: v for k, v in r.items() if k not in sweep.TIMES} for r in point["rows"]]
    return {**{k: v for k, v in point.items() if k not in ("point", "bounds")}, "rows": rows}


def test_sweep_small_sizes(tmp_path):
    out = tmp_path / "BENCH_test.json"
    # the second call measures --src as the parent, then this checkout; both are appended
    for sizes, src in ((["16"], []), (["16", "32"], ["--src", str(ROOT / "src")])):
        assert sweep.main(["--point", "test", "--sizes", *sizes, "--repeats", "1",
                           "--out", str(out), *src]) == 0
    data = json.loads(out.read_text())
    _assert_keys(data)
    assert [p["point"] for p in data["points"]] == ["test", "parent of test", "test"]
    assert _untimed(data["points"][1]) == _untimed(data["points"][2])
    rows = data["points"][-1]["rows"]
    assert [(r["n"], r["synth"]) for r in rows] == [
        (n, s) for n in (16, 32)
        for s in ("synth_cz", "synth_linear", "synth_clifford", "synth_clifford")]
    for r in rows:
        assert r["ok"] and r["depth"] <= r["table"]
        assert (r["decompose_s"] is None) == (r["synth"] != "synth_clifford")
        assert r["closed_form"] is None  # every closed form starts above n = 32
    costs = data["points"][-1]["bounds"]
    assert all(t > 0 for t in costs["fill_s"].values())
    assert costs["validate_all_s"] > 0 and costs["crossover_scan_s"] > 0
    assert 0 < costs["validate_all_peak_mib"] < 2 and 0 < costs["crossover_scan_peak_mib"] < 2
    assert costs["maxrss_mib"] > 0


def test_rows_take_the_median_time_of_their_processes():
    def row(call_s, depth=5, decompose_s=None):
        return {"n": 8, "synth": "synth_cz", "input": "x", "call_s": call_s, "check_s": 2 * call_s,
                "decompose_s": decompose_s, "ok": True, "depth": depth, "table": 7,
                "closed_form": None}

    runs = [[row(3.0), row(1.0, decompose_s=4.0)], [row(1.0), row(2.0, decompose_s=6.0)],
            [row(2.0), row(3.0, decompose_s=5.0)]]
    assert sweep.median_rows(runs) == [row(2.0), row(2.0, decompose_s=5.0)]
    assert list(sweep.median_rows(runs)[0]) == list(sweep.ROW_KEYS)
    with pytest.raises(RuntimeError, match="disagree at n=8"):
        sweep.median_rows([[row(1.0)], [row(1.0, depth=6)], [row(1.0)]])


def test_committed_bench_files_have_the_documented_keys():
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files
    for path in files:
        _assert_keys(json.loads(path.read_text()))

