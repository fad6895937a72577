"""Compare two perfbench result files (perfbench/results/*.json).

    python3 perfbench/compare.py BASE.json NEW.json

Prints every metric of both runs side by side.  When both runs used the
same workload, size and seed, it also diffs the per-instance output
fingerprints (SHA-256 of each circuit's text form, depth, bound, closed
form, two-qubit count) over the instances both runs completed: this is
the "fixed-seed outputs stay byte-identical" check.

Exit codes: 0 outputs identical (or not comparable across seeds),
1 outputs differ, 2 the runs cannot be compared: their kernel backend,
workload, size or trace mode differ.
"""

from __future__ import annotations

import json
import sys

_MUST_MATCH = ("backend", "workload", "n")
_FINGERPRINT = ("ok", "depth", "bound", "closed_form", "twoq", "sha256")


def compare(base: dict, new: dict) -> int:
    for key in _MUST_MATCH:
        if base["env"][key] != new["env"][key]:
            print(f"refusing to compare: {key} differs "
                  f"({base['env'][key]!r} vs {new['env'][key]!r})")
            return 2
    if base["trace"] != new["trace"]:
        print("refusing to compare a traced run with an untraced one")
        return 2
    b_sum, n_sum = base["summary"]["metrics"], new["summary"]["metrics"]
    print(f"{'metric':34s} {'base':>14s} {'new':>14s} {'change':>9s}")
    for name, b in b_sum.items():
        nv = n_sum.get(name, {}).get("value")
        change = f"{(nv - b['value']) / b['value']:+9.2%}" if nv is not None and b["value"] else ""
        print(f"{name:34s} {b['value']:14.6g} {nv if nv is not None else float('nan'):14.6g} "
              f"{change} {b['unit']}")

    if base["env"]["seed"] != new["env"]["seed"]:
        print("seeds differ: output fingerprints not compared")
        return 0
    b_inst = {r["op"]: r for r in base["instances"]}
    n_inst = {r["op"]: r for r in new["instances"]}
    common = sorted(b_inst.keys() & n_inst.keys())
    diffs = [(op, key, b_inst[op][key], n_inst[op][key]) for op in common
             for key in _FINGERPRINT if b_inst[op][key] != n_inst[op][key]]
    for op, key, bv, nv in diffs:
        print(f"instance {op}: {key} {bv} -> {nv}")
    print(f"fingerprints over {len(common)} common instances: "
          f"{'identical' if not diffs else 'DIFFER'}")
    return 1 if diffs else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with open(argv[0]) as fa, open(argv[1]) as fb:
        return compare(json.load(fa), json.load(fb))


if __name__ == "__main__":
    sys.exit(main())
