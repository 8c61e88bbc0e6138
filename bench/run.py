"""Benchmark entry point: run one workload in a fresh process.

    python3 bench/run.py --workload closed_euler --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The workload runs in a child process
with PYTHONHASHSEED fixed, so set iteration order, and with it every
counter, repeats from run to run, and with the checkout's ``src`` first on
the path.  The child's report lines are passed through; the last line is
the JSON result.  Without the engine sources next to this directory the
run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HASH_SEED = "0"
# the child must end well inside the three minutes a run may take
CHILD_TIMEOUT_S = 170


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", required=True,
                    choices=("closed_euler", "open_relations", "open_reduce"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    if not (ROOT / "src" / "moymf" / "__init__.py").is_file():
        print(f"error: no engine sources under {ROOT / 'src' / 'moymf'}", file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(ROOT / "bench" / "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed and reaped the child
        print(f"error: workload ran past {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    if proc.returncode != 0:
        # pass on the report lines, but never a result line from a failed run
        lines = proc.stdout.splitlines()
        if lines and lines[-1].startswith("{"):
            lines.pop()
        sys.stdout.write("".join(line + "\n" for line in lines))
        print(f"error: workload exited with code {proc.returncode}", file=sys.stderr)
        return proc.returncode
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
