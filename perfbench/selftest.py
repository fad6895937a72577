"""Self-test of the benchmark at tiny sizes (n = 16..32).

    python3 perfbench/selftest.py

Runs every workload through the same generators, calls, oracles and
printing path as a full run, and checks that:

* BENCHMARK.json lists exactly the workloads and metrics the harness
  prints, with the same units;
* every end-to-end and per-layer metric is printed by name with its unit,
  and no end-to-end metric reads zero;
* two runs of one seed give identical output fingerprints;
* a corrupted output (last two-qubit gate dropped, or a wrong crossover)
  is caught and shows up in ``failed`` and ``pass_rate``, so the
  correctness check is live;
* compare.py refuses results from different kernel backends.

Exit code 0 when all hold; an AssertionError otherwise.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys

import run

TINY = {"cz_dense": 24, "cnot_dense": 32, "clifford_layered": 16, "bounds_validate": 64}


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise AssertionError(msg)


def printed(record: dict) -> dict:
    """Run the real printing path and parse its last stdout line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        run.emit(record)
    return json.loads(out.getvalue().strip().splitlines()[-1])


def tiny(name: str, **kw) -> dict:
    from workloads import WORKLOADS

    return run.run(WORKLOADS[name], seed=3, seconds=0.2, n=TINY[name], setup_runs=1, **kw)


def check_manifest() -> None:
    from workloads import WORKLOADS

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json workloads differ from the harness")
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        expect(listed == table, f"BENCHMARK.json {key} differs from the harness")


def check_workload(name: str) -> None:
    for trace, units in ((False, run.END_TO_END), (True, run.PER_LAYER)):
        rec = tiny(name, trace=trace)
        line = printed(rec)
        expect(line["correct"] and line["failed"] == 0, f"{name}: clean run failed")
        expect(line["attempted"] >= 1, f"{name}: nothing attempted")
        expect({k: v["unit"] for k, v in line["metrics"].items()} == units,
               f"{name}: printed metrics or units differ")
        if not trace:
            zero = [k for k, v in line["metrics"].items() if not v["value"]]
            expect(not zero, f"{name}: end-to-end metrics read zero: {zero}")
            again = tiny(name, trace=False)
            ops = min(len(rec["instances"]), len(again["instances"]))
            expect(ops >= run.QUALITY_OPS, f"{name}: quality set incomplete")
            expect([r["sha256"] for r in rec["instances"][:ops]]
                   == [r["sha256"] for r in again["instances"][:ops]],
                   f"{name}: fingerprints differ between runs of one seed")

    line = printed(tiny(name, trace=False, fault=True))
    expect(not line["correct"] and line["failed"] >= 1,
           f"{name}: injected fault not detected")
    expect(line["metrics"]["pass_rate"]["value"] < 1, f"{name}: pass_rate missed the fault")


def check_compare_refuses_backend() -> None:
    import compare

    rec = tiny("cz_dense", trace=False)
    rec.pop("spans", None)
    base = {**rec, "summary": run.summary(rec)}
    other = copy.deepcopy(base)
    other["env"]["backend"] = "numba" if base["env"]["backend"] != "numba" else "numpy"
    with contextlib.redirect_stdout(io.StringIO()):
        expect(compare.compare(base, base) == 0, "compare: identical runs differ")
        expect(compare.compare(base, other) == 2, "compare: backend mismatch accepted")


def main() -> int:
    run.load_program()
    check_manifest()
    from workloads import WORKLOADS

    for name in WORKLOADS:
        check_workload(name)
        print(f"selftest: {name} ok", file=sys.stderr)
    check_compare_refuses_backend()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
