"""Run the benchmark on several seeds and print each end-to-end metric's
median, quartiles and spread (quartile distance ÷ median) against its bound.

    python3 perfbench/spread.py --workload enum_scan --seeds 1-10
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

from spans import quartiles, spread  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", default="1-10")
    args = p.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(lo, hi + 1):
        cmd = [
            *spec["command"], "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["correct"]:
            raise SystemExit(f"seed {seed}: output check failed")
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, q2, q3 = quartiles(v)
        s = spread(v)
        flag = "ok" if s < m["bound"] / 3 else ("within bound" if s <= m["bound"] else "TOO WIDE")
        print(
            f"{m['name']:14s} median {q2:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
            f"spread {s:.4f} bound {m['bound']}  {flag}"
        )


if __name__ == "__main__":
    main(sys.argv[1:])
