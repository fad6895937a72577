"""Fixed-seed size sweep of the synthesizers: one point of the committed BENCH_sweep.json.

Run from the repository root:

    python3 tools/sweep.py --point "what this tree changes"
    python3 tools/sweep.py --point parent --src ../other-checkout/src
    python3 tools/sweep.py --point smoke --sizes 16 32 --repeats 1 --out /tmp/BENCH_smoke.json

Each size runs in a fresh Python process, with the package imported from
``--src`` (this checkout's ``src`` by default).  At every size it times
``synth_cz`` on ``CzSpec.random`` (seed 11), ``synth_linear`` on
``gf2.random_invertible`` (seed 1) and ``synth_clifford`` on the benchmark's
``layered_tableau`` (seed 3) and on ``random_tableau`` (seed 1).  Every time
is the best of ``--repeats`` calls.  The oracle is the linear action for
CNOT circuits and tableau simulation otherwise.  Each row also records the
two-qubit depth against the certified table entry and the closed form.

One more fresh process measures the bound tables: the first-call fill time
of each of the five tables, the best-of-``--repeats`` times of
``validate_all`` and ``crossover_scan`` on the filled tables, each scan's
tracemalloc peak after that warm-up, and the process's ``ru_maxrss``.

The point is appended to the file's ``points`` list, so the file keeps one
point per measured tree, oldest first.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIZES = (128, 256, 512, 1024)

# Documented keys, written into the file next to its points.
POINT_KEYS = {
    "point": "what the measured tree is, e.g. the change it makes",
    "commit": "git describe --always --dirty of the measured source tree, or null",
    "date": "UTC time the sweep finished",
    "nproc": "CPUs this process may run on",
    "python": "Python version",
    "numpy": "numpy version",
    "repeats": "calls per timing; each time is the best of them",
    "rows": "one row per size and synthesizer input",
    "bounds": "the bound tables' costs, measured in one fresh process; null in points "
              "measured before the sweep recorded them",
}
ROW_KEYS = {
    "n": "qubit count",
    "synth": "synthesizer called: synth_cz, synth_linear or synth_clifford",
    "input": "input generator, with its seed",
    "call_s": "seconds per synthesizer call",
    "check_s": "seconds per oracle check of the circuit",
    "decompose_s": "seconds per decompose_tableau call (Clifford rows), else null",
    "ok": "the oracle accepted the circuit",
    "depth": "two-qubit depth of the circuit",
    "table": "depth the recursion table certifies at n",
    "closed_form": "the paper's closed-form bound at n, or null below its range",
}
BOUNDS_KEYS = {
    "fill_s": "seconds of the first get_table call per family, called in the order cz, "
              "cz-basic, cnot, cnot-first-branch, clifford (the clifford fill composes the "
              "filled cz and cnot tables)",
    "validate_all_s": "seconds per validate_all call on the filled tables",
    "crossover_scan_s": "seconds per crossover_scan call on the filled tables",
    "validate_all_peak_mib": "tracemalloc peak of one validate_all call after the timed "
                             "calls, above the memory held before it, in MiB",
    "crossover_scan_peak_mib": "the same peak for one crossover_scan call, in MiB",
    "maxrss_mib": "ru_maxrss / 1024 of the process after the timed calls, before "
                  "tracemalloc starts",
}


def _best(fn, repeats: int) -> tuple[float, object]:
    """Best wall time of repeats calls of fn, and the last call's result."""
    best, out = float("inf"), None
    for _ in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _layered_tableau():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("sweep_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up while the class body runs
    spec.loader.exec_module(mod)
    return mod.layered_tableau


def _oracle(family: str, x):
    """Check of a circuit for input x: its linear action for CNOT, else its tableau."""
    from cliffdepth import bounds, clifford, verify

    if family == bounds.CNOT:
        return lambda c: verify.linear_action(c) == x
    if family == bounds.CZ:
        n = x.n
        s = np.eye(2 * n, dtype=np.uint8)
        s[:n, n:] = x.bits  # CZ(a, b) maps X_a to X_a Z_b and fixes every Z
        x = clifford.CliffordTableau.from_dense(s, np.zeros(2 * n, dtype=np.uint8))
    return lambda c: clifford.tableau_of_circuit(c) == x


def measure(n: int, repeats: int) -> list[dict]:
    """The sweep's rows at one size, measured in this process."""
    from cliffdepth import bounds, clifford, cnot, cz, gf2

    rng = np.random.default_rng
    layered = _layered_tableau()
    cases = [
        (cz.synth_cz, "CzSpec.random seed 11", cz.CzSpec.random(rng(11), n), bounds.CZ),
        (cnot.synth_linear, "random_invertible seed 1", gf2.random_invertible(rng(1), n),
         bounds.CNOT),
        (clifford.synth_clifford, "layered_tableau seed 3", layered(rng(3), n), bounds.CLIFFORD),
        (clifford.synth_clifford, "random_tableau seed 1", clifford.random_tableau(rng(1), n),
         bounds.CLIFFORD),
    ]
    rows = []
    for synth, name, x, family in cases:
        oracle = _oracle(family, x)
        call_s, c = _best(lambda: synth(x), repeats)
        check_s, ok = _best(lambda: oracle(c), repeats)
        decompose_s = (_best(lambda: clifford.decompose_tableau(x), repeats)[0]
                       if family == bounds.CLIFFORD else None)
        formula = bounds.FORMULAS[family]
        rows.append({
            "n": n, "synth": synth.__name__, "input": name,
            "call_s": round(call_s, 6), "check_s": round(check_s, 6),
            "decompose_s": None if decompose_s is None else round(decompose_s, 6),
            "ok": bool(ok), "depth": c.two_qubit_depth(),
            "table": int(bounds._depth(family, n, n + 1)[0]),
            "closed_form": formula.value(n) if n >= formula.lo else None,
        })
    return rows


def measure_bounds(repeats: int) -> dict:
    """The point's bound-table costs, measured in this process."""
    from cliffdepth import bounds

    families = (bounds.CZ, bounds.CZ_BASIC, bounds.CNOT, bounds.CNOT_FIRST, bounds.CLIFFORD)
    out = {"fill_s": {f: round(_best(lambda: bounds.get_table(f), 1)[0], 6) for f in families}}
    scans = (bounds.validate_all, bounds.crossover_scan)
    for scan in scans:
        out[scan.__name__ + "_s"] = round(_best(scan, repeats)[0], 6)
    out["maxrss_mib"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 2)
    tracemalloc.start()
    for scan in scans:
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        scan()
        out[scan.__name__ + "_peak_mib"] = round((tracemalloc.get_traced_memory()[1] - held) / 2 ** 20, 3)
    tracemalloc.stop()
    return out


def _commit(src: Path) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(src), "describe", "--always", "--dirty"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip() or None


def sweep(point: str, sizes, repeats: int, src: Path) -> dict:
    """One point: every size measured in a fresh process importing the package from src."""
    env = {**os.environ, "PYTHONPATH": str(src)}

    def worker(*args):
        cmd = [sys.executable, __file__, *args, "--repeats", str(repeats)]
        out = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, check=True)
        return json.loads(out.stdout)

    rows = [row for n in sizes for row in worker("--worker", str(n))]
    return {
        "point": point, "commit": _commit(src),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": np.__version__, "repeats": repeats, "rows": rows,
        "bounds": worker("--bounds-worker"),
    }


def append_point(path: Path, point: dict) -> None:
    data = json.loads(path.read_text()) if path.exists() else {"points": []}
    data["keys"] = {"point": POINT_KEYS, "row": ROW_KEYS, "bounds": BOUNDS_KEYS}
    data["points"].append(point)
    path.write_text(json.dumps(data, indent=1) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--point", help="what the measured tree is; required unless --worker")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_sweep.json", help="file to append to")
    ap.add_argument("--sizes", type=int, nargs="+", default=list(SIZES))
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="package source tree to measure")
    ap.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--bounds-worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.repeats < 1 or min(args.sizes) < 2:
        ap.error("--repeats must be positive and every size at least 2")
    if args.worker is not None:
        print(json.dumps(measure(args.worker, args.repeats)))
        return 0
    if args.bounds_worker:
        print(json.dumps(measure_bounds(args.repeats)))
        return 0
    if not args.point:
        ap.error("--point is required")
    point = sweep(args.point, args.sizes, args.repeats, args.src.resolve())
    append_point(args.out, point)
    for r in point["rows"]:
        dec = "" if r["decompose_s"] is None else f"  decompose {r['decompose_s']:.4f} s"
        print(f"n={r['n']:5d} {r['synth']:15s} {r['input']:25s} call {r['call_s']:8.4f} s  "
              f"check {r['check_s']:7.4f} s  depth {r['depth']:5d} / {r['table']}{dec}")
    b = point["bounds"]
    print(f"bounds: fill {sum(b['fill_s'].values()):.4f} s  validate_all {b['validate_all_s']:.4f} s "
          f"(peak {b['validate_all_peak_mib']} MiB)  crossover_scan {b['crossover_scan_s']:.4f} s "
          f"(peak {b['crossover_scan_peak_mib']} MiB)  maxrss {b['maxrss_mib']} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
