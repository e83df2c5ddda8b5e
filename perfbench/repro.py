"""Re-run one benchmark op on one instance and check it.

    python3 perfbench/repro.py WORKLOAD N SIDE SEED M

Generates ``diskcover.generate(N, SIDE, SEED)``, runs the workload's call
with ``m = M`` and its reference, and exits 1 if they disagree.
"""

from __future__ import annotations

import sys
from dataclasses import replace

import run  # noqa: F401  (puts the checkout's src first on sys.path)
import diskcover
from workloads import WORKLOADS, answer_of, verdict


def main(argv: list[str]) -> int:
    try:
        name, n, side, seed, m = argv[0], int(argv[1]), float(argv[2]), int(argv[3]), int(argv[4])
        if len(argv) != 5 or name not in WORKLOADS:
            raise ValueError
    except (IndexError, ValueError):
        print("usage: python3 perfbench/repro.py WORKLOAD N SIDE SEED M", file=sys.stderr)
        print("workloads: " + ", ".join(WORKLOADS), file=sys.stderr)
        return 2
    w = replace(WORKLOADS[name], n=n, side=side, m=m)
    pts = diskcover.generate(n, side, seed).points
    answer = answer_of(w.call(pts, m))
    ref = w.reference(pts, m)
    why = verdict(answer, ref, pts)
    print(f"{name} n={n} side={side!r} seed={seed} m={m}")
    print(f"answer    covered={answer.covered} rho={answer.rho} combos={answer.combos}")
    print(f"reference covered={ref.covered} rho={ref.rho}")
    print("ok" if why is None else f"FAIL: {why}")
    return 0 if why is None else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
