"""Run every workload untraced and traced, each in a fresh process, and
print one table of end-to-end metrics and one of per-layer self-time
shares with the tracing overhead.

    python3 perfbench/report.py [--seed 1] [--seconds 30]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("certify", "exact-sparse", "dedup-sweep")


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """The info line and the result line of one run."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    info = next(json.loads(line[5:]) for line in lines if line.startswith("info "))
    return info, json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args()
    plain, traced = {}, {}
    for w in WORKLOADS:
        plain[w] = run(w, args.seed, args.seconds, 0)
        traced[w] = run(w, args.seed, args.seconds, 1)
    names = list(plain[WORKLOADS[0]][1]["metrics"])
    print(f"{'metric':16} {'unit':6} " + " ".join(f"{w:>14}" for w in WORKLOADS))
    for name in names + ["failed_frac", "opt_gap"]:
        unit = plain[WORKLOADS[0]][1]["metrics"].get(name, {}).get("unit", "ratio")
        cells = []
        for w in WORKLOADS:
            info, result = plain[w]
            value = result["metrics"][name]["value"] if name in result["metrics"] else info[name]
            cells.append(f"{'-' if value is None else f'{value:.4g}':>14}")
        print(f"{name:16} {unit:6} " + " ".join(cells))
    print()
    layers = list(traced[WORKLOADS[0]][0]["layer_share"])
    print(f"{'self-time share':16} {'':6} " + " ".join(f"{w:>14}" for w in WORKLOADS))
    for layer in layers:
        print(f"{layer:16} {'':6} " + " ".join(
            f"{traced[w][0]['layer_share'][layer]:>14.3f}" for w in WORKLOADS))
    print(f"{'trace.overhead_s':16} {'s':6} " + " ".join(
        f"{traced[w][1]['metrics']['trace.overhead_s']['value']:>14.4g}" for w in WORKLOADS))
    ok = all(r["correct"] for _, r in list(plain.values()) + list(traced.values()))
    print(f"\ncorrect: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
