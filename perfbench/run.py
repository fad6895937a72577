"""Closed-loop benchmark of cliffdepth synthesis, verification and bounds.

Run from the repository root:

    python3 perfbench/run.py --workload cz_dense --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

One caller in one thread submits the next fixed-seed instance only after
the previous one has been synthesized (or validated), checked and
depth-checked.  ``--trace 0`` reports the end-to-end metrics and
``--trace 1`` the per-layer ones from a separate traced run; see
perfbench/README.md for every metric.  The last line of standard output is
one JSON object; a copy of the run, with per-instance fingerprints and the
run environment, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

SETUP_RUNS = 5
# The first QUALITY_OPS operations of a seed always run: they are the fixed
# instance set behind depth_ratio and the output fingerprints.
QUALITY_OPS = 5

END_TO_END = {
    "setup_s": "s",
    "call_rel": "cal",
    "check_rel": "cal",
    "depth_ratio": "ratio",
    "pass_rate": "ratio",
    "peak_rss_mb": "MB",
}

_TIMED_LAYERS = (
    "patterns.edge_color", "patterns.halve", "rectangles.parts", "gf2.lu",
    "gf2.mat_mul", "gf2.solve", "gf2.rank", "circuit.depth", "circuit.build",
    "clifford.decompose", "clifford.tableau_run", "cnot.remove_hadamards",
    "verify.linear_action", "bounds.validate", "bounds.crossover",
)
_SELF_LAYERS = {"cz.self_s": "cz", "cnot.self_s": "cnot", "clifford.self_s": "clifford"}
_CALL_COUNTS = {
    "patterns.edge_color_calls": "patterns.edge_color",
    "patterns.halve_calls": "patterns.halve",
    "rectangles.parts_calls": "rectangles.parts",
    "gf2.mat_mul_calls": "gf2.mat_mul",
    "circuit.depth_calls": "circuit.depth",
    "circuit.circuits_built": "circuit.build",
}
_WORK_COUNTS = {
    "patterns.edge_color_edges": "patterns.edge_color",
    "circuit.gates_built": "circuit.build",
    "clifford.tableau_gates": "clifford.tableau_run",
}
FILL_FAMILIES = ("cz", "cz-basic", "cnot", "cnot-first-branch", "clifford")

PER_LAYER = {
    "trace.instances": "count",
    "trace.call_s": "s",
    "trace.check_s": "s",
    "trace.overhead_s": "s",
    "wall.call_s": "s",
    "wall.check_s": "s",
    "wall.calib_s": "s",
    "harness.gen_s": "s",
    **{layer + "_s": "s" for layer in _TIMED_LAYERS},
    **{name: "s" for name in _SELF_LAYERS},
    **{name: "count" for name in _CALL_COUNTS},
    **{name: "count" for name in _WORK_COUNTS},
    "cnot.candidates_kept_ratio": "ratio",
    "circuit.twoq_gates": "count",
    "bounds.fill_s": "s",
    **{f"bounds.fill.{fam}_s": "s" for fam in FILL_FAMILIES},
}


def load_program():
    """Import cliffdepth from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import cliffdepth
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import cliffdepth from {SRC}: {exc}")
    if not os.path.abspath(cliffdepth.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: cliffdepth resolved outside {SRC}")
    return cliffdepth


def environment(workload, seed: int, n: int) -> dict:
    import cliffdepth

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "backend": cliffdepth.active_backend(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "workload": workload.name,
        "seed": seed,
        "n": n,
    }


_SETUP_CODE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from cliffdepth import bounds\n"
    "for family in sys.argv[2:]:\n"
    "    bounds.get_table(family)\n"
)


def measure_setup(tables, runs: int) -> list[float]:
    """Wall time of fresh processes that import cliffdepth and fill tables."""
    out = []
    for _ in range(runs):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", _SETUP_CODE, SRC, *tables],
                       cwd=ROOT, check=True, timeout=120)
        out.append(perf_counter() - t0)
    return out


def _compute_chunk() -> None:
    d: dict[int, int] = {}
    for i in range(30000):
        k = (i * 2654435761) & 4095
        d[k] = d.get(k, 0) ^ i
    a = np.arange(4096, dtype=np.uint64)
    for _ in range(300):
        a ^= (a << np.uint64(1)) & np.uint64(0xFFFF)


def _memory_chunk() -> None:
    v = np.arange(1 << 20, dtype=np.int64)
    w = v[::-1].copy()
    for _ in range(3):
        v = np.minimum((v * 3 + 1) // 2, w)


_CHUNKS = {"compute": _compute_chunk, "memory": _memory_chunk}


def calibrate(kind: str) -> float:
    """Wall time of a fixed calibration chunk that shares no code with cliffdepth.

    Other tenants of a shared machine slow every core-bound program by tens
    of percent for minutes at a time.  A chunk of the same character as the
    timed code slows with it, so the ratio of the two stays put while the
    raw seconds drift.  ``compute`` (dict updates, small array xors) tracks
    the Python-level synthesis and checks; ``memory`` (passes over 8 MB
    arrays) tracks the vectorized table scans of the bound validation.
    """
    gc.disable()
    try:
        t0 = perf_counter()
        _CHUNKS[kind]()
        return perf_counter() - t0
    finally:
        gc.enable()


def run_op(workload, x, corrupt: bool, tracer=None, op: int = 0):
    """One closed-loop step: the public call, then its check.

    Each is preceded by its calibration chunk, whose time is returned too.
    """
    def call():
        return workload.call(x)

    def check(out):
        return workload.check(x, out)

    cal_call = calibrate(workload.calib[0])
    t0 = perf_counter()
    out = tracer.root(op, "call", call) if tracer else call()
    call_s = perf_counter() - t0
    if corrupt:
        out = workload.corrupt(out)
    cal_check = calibrate(workload.calib[1])
    t0 = perf_counter()
    ok = tracer.root(op, "check", check, out) if tracer else check(out)
    return call_s, perf_counter() - t0, cal_call, cal_check, out, ok


def run(workload, seed: int, seconds: float, trace: bool, n: int | None = None,
        fault: bool = False, setup_runs: int = SETUP_RUNS) -> dict:
    """Run one workload and return its full record (metrics included).

    ``n`` overrides the workload's size and ``fault`` corrupts the first
    output before its check; both exist for perfbench/selftest.py.
    """
    from cliffdepth import bounds

    import spans

    n = workload.n if n is None else n
    tracer = spans.Tracer() if trace else None
    setup = [] if trace else measure_setup(workload.tables, setup_runs)

    def fill():
        for family in workload.tables:
            bounds.get_table(family)

    if tracer:
        with tracer.patch(spans.SETUP_HOOKS):
            tracer.root(-1, "setup", fill)
        hooks = tracer.patch(spans.OP_HOOKS, with_block=True)
    else:
        fill()

    rng = np.random.default_rng(seed)
    samples = {"call_s": [], "check_s": [], "calib_s": [],
               "traced_call_s": [], "traced_check_s": [], "traced_calib_s": []}
    instances, gen_s, attempted, failed = [], 0.0, 0, 0
    # a traced run needs one instance of each pairing order
    min_ops = 2 if tracer else QUALITY_OPS
    start = perf_counter()
    i = 0
    while i < min_ops or perf_counter() - start < seconds:
        t0 = perf_counter()
        x = workload.make(rng, n)
        gen_s += perf_counter() - t0
        # traced runs pair each traced step with an untraced one on the same
        # input, alternating which goes first
        modes = (False,) if not tracer else ((False, True) if i % 2 == 0 else (True, False))
        for traced in modes:
            attempted += 1
            prefix = "traced_" if traced else ""
            try:
                with hooks if traced else contextlib.nullcontext():
                    call_s, check_s, cal_call, cal_check, out, ok = run_op(
                        workload, x, fault and i == 0, tracer if traced else None, i)
                res = workload.result(x, out, ok)
            except Exception:
                traceback.print_exc()
                failed += 1
                continue
            failed += not ok
            samples[prefix + "call_s"].append(call_s)
            samples[prefix + "check_s"].append(check_s)
            samples[prefix + "calib_s"].append((cal_call, cal_check))
            if traced or not tracer:
                instances.append({"op": i, **vars(res), "call_s": call_s, "check_s": check_s})
        i += 1

    record = {
        "env": environment(workload, seed, n),
        "seconds": seconds,
        "trace": int(trace),
        "attempted": attempted,
        "failed": failed,
        "gen_s": gen_s,
        "ops": i,
        "setup_s": setup,
        "samples": samples,
        "instances": instances,
    }
    if tracer:
        record["metrics"] = layer_metrics(tracer, samples, instances, gen_s / i)
        record["shares"] = shares(tracer)
        record["spans"] = tracer
    else:
        quality = [r for r in instances if r["op"] < QUALITY_OPS]
        bound_sum = sum(r["bound"] for r in quality)
        cal_call = [c for c, _ in samples["calib_s"]]
        cal_check = [c for _, c in samples["calib_s"]]
        record["metrics"] = {
            "setup_s": statistics.median(setup),
            "call_rel": _median([a / b for a, b in zip(samples["call_s"], cal_call)]),
            "check_rel": _median([a / b for a, b in zip(samples["check_s"], cal_check)]),
            "depth_ratio": sum(r["depth"] for r in quality) / bound_sum if bound_sum else 0.0,
            "pass_rate": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    return record


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer, samples: dict, instances: list, gen_per_op: float) -> dict:
    """Per-layer figures per traced instance (fills: per set-up)."""
    k = max(len(samples["traced_call_s"]), 1)
    tot = tracer.layer_totals()

    def get(layer: str, key: str) -> float:
        return tot.get(layer, {}).get(key, 0)

    traced = [a + b for a, b in zip(samples["traced_call_s"], samples["traced_check_s"])]
    plain = [a + b for a, b in zip(samples["call_s"], samples["check_s"])]
    out = {
        "trace.instances": len(samples["traced_call_s"]),
        "trace.call_s": _median(samples["traced_call_s"]),
        "trace.check_s": _median(samples["traced_check_s"]),
        "trace.overhead_s": _median(traced) - _median(plain),
        "wall.call_s": _median(samples["call_s"]),
        "wall.check_s": _median(samples["check_s"]),
        "wall.calib_s": _median([c for pair in samples["calib_s"] for c in pair]),
        "harness.gen_s": gen_per_op,
    }
    out.update({layer + "_s": get(layer, "self_s") / k for layer in _TIMED_LAYERS})
    out.update({name: get(layer, "self_s") / k for name, layer in _SELF_LAYERS.items()})
    out.update({name: get(layer, "calls") / k for name, layer in _CALL_COUNTS.items()})
    out.update({name: get(layer, "count") / k for name, layer in _WORK_COUNTS.items()})
    out["cnot.candidates_kept_ratio"] = (
        tracer.blocks / tracer.candidates if tracer.candidates else 0.0)
    out["circuit.twoq_gates"] = statistics.mean(r["twoq"] for r in instances) if instances else 0
    fills = tracer.layer_totals(phases=("setup",))
    for fam in FILL_FAMILIES:
        out[f"bounds.fill.{fam}_s"] = fills.get("bounds.fill." + fam, {}).get("self_s", 0.0)
    out["bounds.fill_s"] = sum(out[f"bounds.fill.{fam}_s"] for fam in FILL_FAMILIES)
    return out


def shares(tracer) -> dict:
    """Each layer's self time as a share of the traced call and check time."""
    out = {}
    for phase in ("call", "check"):
        # the root span's self time is the part no wrapped layer covers
        tot = tracer.layer_totals(phases=(phase,))
        whole = sum(v["self_s"] for v in tot.values())
        if whole:
            out[phase] = {layer: v["self_s"] / whole for layer, v in
                          sorted(tot.items(), key=lambda kv: -kv[1]["self_s"])}
    return out


def summary(record: dict) -> dict:
    """The result line: correctness plus every metric with its unit."""
    units = PER_LAYER if record["trace"] else END_TO_END
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }


def save(record: dict) -> str:
    env = record["env"]
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{env['workload']}-seed{env['seed']}-trace{record['trace']}")
    tracer = record.pop("spans", None)
    if tracer is not None:
        tracer.dump(stem + "-spans.jsonl")
    with open(stem + ".json", "w") as f:
        json.dump({**record, "summary": summary(record)}, f, indent=1)
    return stem + ".json"


def report(record: dict, path: str) -> None:
    """Human-readable run report on stderr."""
    env = record["env"]
    err = sys.stderr
    print(f"# {env['workload']} n={env['n']} seed={env['seed']} backend={env['backend']} "
          f"nproc={env['nproc']} ops={record['ops']} failed={record['failed']} "
          f"gen={record['gen_s']:.3f}s (harness overhead) -> {path}", file=err)
    smp = record["samples"]
    print(f"# wall medians over {len(smp['call_s'])} untraced operations: "
          f"call {_median(smp['call_s']):.6g} s, check {_median(smp['check_s']):.6g} s, "
          f"calibration {_median([c for pair in smp['calib_s'] for c in pair]):.6g} s",
          file=err)
    units = PER_LAYER if record["trace"] else END_TO_END
    for name, unit in units.items():
        print(f"{name:34s} {record['metrics'][name]:14.6g} {unit}", file=err)
    for phase, table in record.get("shares", {}).items():
        print(f"# share of traced {phase} time by layer (self time)", file=err)
        for layer, share in table.items():
            print(f"  {layer:32s} {100 * share:6.2f}%", file=err)


def emit(record: dict) -> dict:
    """Save the record, report it on stderr, print the summary line last."""
    path = save(record)
    report(record, path)
    line = summary(record)
    print(json.dumps(line), flush=True)
    return line


def run_all(args) -> int:
    """Every workload in its own process; prints each metric with its unit."""
    from workloads import WORKLOADS

    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(proc.stderr, file=sys.stderr)
            print(f"{name}: run failed with exit code {proc.returncode}")
            ok = False
            continue
        line = json.loads(lines[-1])
        ok &= line["correct"]
        print(f"{name}: correct={line['correct']} attempted={line['attempted']} "
              f"failed={line['failed']}")
        for metric, v in line["metrics"].items():
            print(f"  {metric:34s} {v['value']:14.6g} {v['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    load_program()
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    line = emit(run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
