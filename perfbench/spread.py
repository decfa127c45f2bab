"""Check the benchmark's stability: run it over several seeds and report spreads.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload headline --seeds 1-10 [--sets 2]

Each set runs ``perfbench/run.py`` once per seed (``run_seconds`` from
``BENCHMARK.json``).  For every end-to-end metric it prints the median
and the spread -- the distance between the first and third quartiles of
the values (``statistics.quantiles(values, n=4)``) as a share of their
median -- against the metric's bound, and with two sets, how much worse
the second set's median is than the first's.  The exit status is 1 when
a spread other than ``setup_s``'s exceeds its bound, or a median worsens
by more than its bound, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from measure import median, relative_spread

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> List[int]:
    """``"1-10"`` or ``"3,5,8"`` -> list of seeds."""
    if "-" in text:
        low, high = (int(part) for part in text.split("-", 1))
        return list(range(low, high + 1))
    return [int(part) for part in text.split(",")]


def run_set(workload: str, seeds: List[int], seconds: int) -> Dict[str, List[float]]:
    values: Dict[str, List[float]] = {}
    for seed in seeds:
        start = time.perf_counter()
        proc = subprocess.run(
            [
                sys.executable, str(HERE / "run.py"),
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(seconds),
                "--trace", "0",
            ],
            capture_output=True,
            text=True,
            timeout=600,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            raise RuntimeError(f"seed {seed}: outputs not correct\n{proc.stdout[-2000:]}")
        for name, doc in result["metrics"].items():
            values.setdefault(name, []).append(doc["value"])
        shown = ", ".join(f"{n}={d['value']:.5g}" for n, d in result["metrics"].items())
        print(f"{workload} seed {seed} ({time.perf_counter() - start:.1f} s): {shown}", flush=True)
    return values


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help='e.g. "1-10" or "3,5,8"')
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args(argv)
    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        parser.error("--seeds must name at least two seeds")
    sets = [run_set(args.workload, seeds, bench["run_seconds"]) for _ in range(args.sets)]
    ok = True
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        line = f"{name:<20} bound {bound:.2f}"
        for index, values in enumerate(sets, 1):
            spread = relative_spread(values[name])
            line += f" | set {index}: median {median(values[name]):.5g} spread {spread:.3f}"
            if name != "setup_s" and spread > bound:
                ok = False
                line += " OVER"
        if len(sets) == 2:
            first, second = median(sets[0][name]), median(sets[1][name])
            worse = (first - second) / first if metric["better"] == "higher" else (second - first) / first
            line += f" | second median worse by {worse:+.3f}"
            if worse > bound:
                ok = False
                line += " OVER"
        print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
