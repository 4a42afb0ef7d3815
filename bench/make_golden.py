"""Rewrite the golden report rows in bench/golden/ from the current program.

    python3 bench/make_golden.py [workload ...]

Runs one untraced repetition per workload and golden seed and stores each
report.csv row with its seed and the flags from report.txt. Run it only when a
change to the simulated model is meant to change the reports.
"""

from __future__ import annotations

import csv
import os
import shutil
import sys

import run


def main(names: list[str]) -> int:
    work = run.ROOT / ".bench_work" / f"golden-{os.getpid()}"
    run.GOLDEN_DIR.mkdir(exist_ok=True)
    try:
        for name in names or sorted(run.WORKLOADS):
            table = []
            for seed in run.GOLDEN_SEEDS:
                seed_dir = work / name / str(seed)
                seed_dir.mkdir(parents=True)
                rep = run.run_child(run.prepare(name, seed, seed_dir), False,
                                    seed_dir / "rep")
                if rep is None:
                    print(f"{name} seed {seed}: run failed", file=sys.stderr)
                    return 1
                table += [{"seed": seed, **row}
                          for row in run.parse_rows(rep["csv"], rep["txt"])]
                print(f"{name} seed {seed}: {len(table)} rows", flush=True)
            with open(run.GOLDEN_DIR / f"{name}.csv", "w", encoding="ascii",
                      newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(table[0]),
                                        lineterminator="\n")
                writer.writeheader()
                writer.writerows(table)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
