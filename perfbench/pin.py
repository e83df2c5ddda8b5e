"""Write pinned.json: the answers of every default-seed instance at this commit.

    python3 perfbench/pin.py

For each workload and each instance of its default-seed pool this records
the op's rho, covered count and combos_evaluated, and the reference answer.
A run with the default seed checks against these instead of recomputing the
references, and reports any instance whose counts drift from them.  Refuses
to write if an op disagrees with its reference.
"""

from __future__ import annotations

import json
import sys

from run import DEFAULT_SEED, PINNED
import diskcover
from workloads import WORKLOADS, answer_of, instance_seed, verdict


def dump(out: dict) -> str:
    """JSON with one instance per line, so that a drift shows as a one-line diff."""
    parts = []
    for name, e in out["workloads"].items():
        rows = ",\n    ".join(json.dumps(r) for r in e["instances"])
        head = json.dumps({k: e[k] for k in ("n", "side", "m")})[:-1]
        parts.append(f'  {json.dumps(name)}: {head}, "instances": [\n    {rows}\n  ]}}')
    return '{"seed": %d, "workloads": {\n%s\n}}\n' % (out["seed"], ",\n".join(parts))


def main() -> int:
    out = {"seed": DEFAULT_SEED, "workloads": {}}
    for w in WORKLOADS.values():
        rows = []
        for i in range(w.pool):
            seed = instance_seed(DEFAULT_SEED, i)
            pts = diskcover.generate(w.n, w.side, seed).points
            answer = answer_of(w.call(pts, w.m))
            ref = w.reference(pts, w.m)
            why = verdict(answer, ref, pts)
            if why is not None:
                print(f"{w.name} instance seed {seed}: {why}", file=sys.stderr)
                return 1
            rows.append({
                "seed": seed, "rho": answer.rho, "covered": answer.covered,
                "combos": answer.combos, "ref_covered": ref.covered, "ref_rho": ref.rho,
            })
        out["workloads"][w.name] = {"n": w.n, "side": w.side, "m": w.m, "instances": rows}
        print(f"{w.name}: {len(rows)} instances pinned")
    PINNED.write_text(dump(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
