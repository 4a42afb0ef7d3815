"""pcmsim benchmark: host time of `pcmsim run` per scheme on fixed workloads.

    python3 bench/run.py --workload balanced --seed 1 --seconds 40 --trace 0

Each repetition is a fresh single-threaded process (bench/child.py) that runs
`pcmsim.cli.main(["run", ...])` once on inputs made from the seed, so memory,
finder, codebook and metadata cache start empty, as they do for a user.
Repetitions run back to back, a closed loop with one caller, until
`--seconds` have passed; each metric is the median over repetitions. The
modelled hardware is deterministic, so every simulated statistic must repeat
exactly and only host time is measured.

Times are CPU seconds of the simulator process, scaled to a nominal machine
speed by sampling a short reference loop as the program runs
(`child.SpeedGauge`); throughputs use the same scaled times. On a shared
2-vCPU Xeon virtual machine that cut the spread of repetition times from
25-70% to 4-21%. The unscaled CPU and wall medians are printed beside the
metrics. On SIGTERM the running repetition is killed and reaped and the
scratch directory removed before exit.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json. `--trace 1`
alternates untraced and traced repetitions and reports the per-layer metrics
from the traced ones; their outside checks (read-your-writes shadow, wear
conservation) and the byte equality of traced and untraced reports count
toward the failures.

Every scheme row of every repetition is one operation. It fails if it differs
from the golden row for that seed (bench/golden/, written by
bench/make_golden.py) or, for a seed without goldens, from the first
repetition's row; if a truncated or capped flag appears that the workload does
not expect; or if an invariant or a traced check fails. The last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN_DIR = BENCH / "golden"

SCHEMES = ["plain", "diffwrite", "fnw", "wire"]
SHIPPED_SEED = 1
HOLDOUT_SEED = 101  # kept out of tuning; for checking later claims
GOLDEN_SEEDS = (*range(16), HOLDOUT_SEED)
BLOCK_BITS = 512  # 64-byte blocks in every workload
# per-block metadata bits: one flip bit per 16-bit word, 8 six-bit counters
OVERHEAD_BITS = {"plain": "0", "diffwrite": "0", "fnw": "32", "wire": "48"}
MFV_COLUMNS = ("mfv_top1", "mfv_top2", "mfv_top3", "mfv_top4", "mfv_top5")
CHILD_TIMEOUT_S = 150

# Why each workload exists is recorded in BENCHMARK.json and bench/baseline.json.
WORKLOADS = {
    # The paper's headline comparison; wear off, so it is the control for the
    # wear layers, and all 256 blocks fit the metadata cache.
    "balanced": {
        "config": {"memory_blocks": 256, "pcm": {"granule_bits": 4},
                   "wear": {"enabled": False}, "schemes": SCHEMES},
        "preset": "balanced", "events": 24_000,
    },
    # Criterion-9 phase-shifted 0x00/0xFF alternation, writes only, replayed
    # until half the pages wear out. fnw never wears out in the model (its
    # flip bits carry no wear), so it runs to the max_writes cap, which lies
    # above every other scheme's lifetime.
    "lifetime": {
        "config": {"memory_blocks": 64,
                   "pcm": {"page_bytes": 512, "cell_endurance": 100},
                   "wear": {"enabled": True, "epoch_writes": 64, "remap_period": 10_000},
                   "schemes": SCHEMES, "lifetime": True, "max_writes": 30_000},
        "passes": 2,
    },
    # Reads beside writes, 256 granule values (the finder's FIFO miss path), a
    # metadata cache that thrashes, frequent start-gap moves, and a text trace
    # parsed during set-up.
    "readheavy-g8": {
        "config": {"memory_blocks": 256,
                   "pcm": {"granule_bits": 8, "metadata_cache_bytes": 512},
                   "wear": {"enabled": True, "epoch_writes": 16, "remap_period": 500},
                   "schemes": SCHEMES},
        "preset": "read-heavy", "events": 20_000,
    },
}

# one thread per process, as the benchmark measures a sequential simulator
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": str(ROOT / "src"),
    **{var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                            "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                            "NUMEXPR_NUM_THREADS")},
}


def write_alternation_trace(path: Path, seed: int, blocks: int, passes: int) -> None:
    """Each pass writes every block once, 0x00 and 0xFF phase-shifted by block.

    The seed shuffles the block order within each pass; the alternation of
    each block between the two values is kept.
    """
    rng = random.Random(seed)
    zero, ones = "00" * 64, "ff" * 64
    with open(path, "w", encoding="ascii") as fh:
        for p in range(passes):
            order = list(range(blocks))
            rng.shuffle(order)
            for a in order:
                fh.write(f"W {a:04x} {zero if (a + p) % 2 == 0 else ones}\n")


def prepare(name: str, seed: int, work: Path) -> list[str]:
    """Write the workload's inputs for this seed; returns the `pcmsim` argv."""
    spec = WORKLOADS[name]
    config = work / "config.json"
    config.write_text(json.dumps(spec["config"]), encoding="utf-8")
    argv = ["run", "--config", str(config)]
    if name == "balanced":
        return argv + ["--preset", spec["preset"], "--events", str(spec["events"]),
                       "--seed", str(seed)]
    trace = work / "input.trace"
    if name == "lifetime":
        write_alternation_trace(trace, seed, spec["config"]["memory_blocks"],
                                spec["passes"])
    else:
        subprocess.run([sys.executable, "-m", "pcmsim", "gen", "--config", str(config),
                        "--preset", spec["preset"], "--events", str(spec["events"]),
                        "--seed", str(seed), str(trace)],
                       cwd=ROOT, env=CHILD_ENV, check=True, capture_output=True,
                       timeout=CHILD_TIMEOUT_S)
    return argv + ["--trace", str(trace)]


def run_child(argv: list[str], traced: bool, out: Path) -> dict | None:
    """One repetition in a fresh process; None if it did not finish cleanly."""
    out.mkdir(parents=True)
    result = out / "result.json"
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), repr(t0), str(int(traced)),
         str(result), *argv, "--out", str(out)],
        cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not result.exists():
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
        return None
    rep = json.loads(result.read_text(encoding="utf-8"))
    rep["csv"] = (out / "report.csv").read_text(encoding="ascii")
    rep["txt"] = (out / "report.txt").read_text(encoding="ascii")
    shutil.rmtree(out)
    return rep


def parse_rows(csv_text: str, txt_text: str) -> list[dict]:
    """report.csv rows as dicts, plus the per-scheme flags from report.txt."""
    flags: dict[str, dict] = {}
    scheme = None
    for line in txt_text.splitlines():
        key, _, value = line.strip().partition(": ")
        if key == "scheme":
            scheme = flags.setdefault(value, {})
        elif scheme is not None and key in ("truncated", "lifetime_capped",
                                            "dropped_writes"):
            scheme[key] = value
    return [{**row, **flags.get(row["scheme"], {})}
            for row in csv.DictReader(io.StringIO(csv_text))]


def load_golden(name: str) -> dict[int, list[dict]]:
    by_seed: dict[int, list[dict]] = {}
    with open(GOLDEN_DIR / f"{name}.csv", encoding="ascii", newline="") as fh:
        for row in csv.DictReader(fh):
            by_seed.setdefault(int(row.pop("seed")), []).append(row)
    return by_seed


def invariant_ok(name: str, row: dict, rows: list[dict]) -> bool:
    """Seed-independent facts every correct report row satisfies."""
    cfg = WORKLOADS[name]["config"]
    lifetime = cfg.get("lifetime", False)
    scheme = row["scheme"]
    writes, reads = int(row["writes"]), int(row["reads"])
    flips = int(row["flips_set"]) + int(row["flips_reset"])
    ok = (row.get("truncated") == "false"
          and row.get("lifetime_capped") == str(lifetime and scheme == "fnw").lower()
          and row["overhead_bits"] == OVERHEAD_BITS[scheme]
          and all(row[c] == rows[0][c] for c in MFV_COLUMNS))
    if lifetime:
        ok = ok and int(row["lifetime_writes"]) == writes and (
            scheme != "fnw" or writes == cfg["max_writes"])
    else:
        ok = ok and writes + reads == WORKLOADS[name]["events"]
    if scheme == "plain":
        ok = ok and flips % BLOCK_BITS == 0 and flips >= BLOCK_BITS * writes
    return ok


class Checker:
    """Counts scheme rows attempted and failed over a run's repetitions."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.reference = load_golden(name).get(seed)
        self.has_golden = self.reference is not None
        self.untraced_csv: str | None = None
        self.attempted = 0
        self.failed = 0
        self.reads_checked = 0

    def check(self, rep: dict | None, traced: bool) -> list[dict] | None:
        """Checks one repetition; returns its rows if it produced a report."""
        if rep is None:
            self.attempted += len(SCHEMES)
            self.failed += len(SCHEMES)
            return None
        rows = parse_rows(rep["csv"], rep["txt"])
        if self.reference is None:
            self.reference = rows
        ok = [len(rows) == len(SCHEMES) and row == ref
              for row, ref in zip(rows, self.reference)]
        ok = [good and invariant_ok(self.name, row, rows)
              for good, row in zip(ok, rows)]
        if traced:
            same = rep["csv"] == self.untraced_csv
            checks = rep["checks"]
            ok = [good and same and i < len(checks)
                  and checks[i]["read_mismatches"] == 0 and checks[i]["wear_conserved"]
                  for i, good in enumerate(ok)]
            self.reads_checked += rep["layers"].get("bench.reads_checked", 0)
        elif self.untraced_csv is None:
            self.untraced_csv = rep["csv"]
        self.attempted += max(len(rows), len(SCHEMES))
        self.failed += max(len(rows), len(SCHEMES)) - sum(ok)
        return rows


def quartiles(values: list[float]) -> list[float]:
    """First quartile, median and third quartile."""
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4)


def end_to_end_samples(reps: list[dict], rows: list[list[dict]],
                       nominal: bool = True) -> dict[str, list[float]]:
    """Per-repetition values, in nominal or raw CPU seconds."""
    k = int(nominal)
    samples: dict[str, list[float]] = {
        "setup_s": [r["setup_s"][k] for r in reps],
        "run_s": [r["run_s"][k] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }
    for rep, rep_rows in zip(reps, rows):
        for row, seconds in zip(rep_rows, rep["scheme_s"]):
            events = int(row["writes"]) + int(row["reads"])
            samples.setdefault(f"{row['scheme']}.events_per_s", []).append(
                events / seconds[k])
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=SHIPPED_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the running
    # repetition and the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "pcmsim" / "__init__.py").is_file():
        print(f"bench: no pcmsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = ROOT / ".bench_work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        pcmsim_argv = prepare(args.workload, args.seed, work)
        checker = Checker(args.workload, args.seed)
        reps: list[dict] = []
        rep_rows: list[list[dict]] = []
        traced_reps: list[dict] = []
        start = time.monotonic()
        i = 0
        while True:
            traced = bool(args.trace) and i % 2 == 1
            rep = run_child(pcmsim_argv, traced, work / f"rep{i}")
            rows = checker.check(rep, traced)
            if rows is not None:
                if traced:
                    traced_reps.append(rep)
                else:
                    reps.append(rep)
                    rep_rows.append(rows)
            i += 1
            elapsed = time.monotonic() - start
            done = reps and (traced_reps or not args.trace)
            if (done and elapsed * (i + 1) / i > args.seconds) or (not done and i >= 6):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not reps or (args.trace and not traced_reps):
        print("bench: no repetition finished cleanly", file=sys.stderr)
        return 1

    if args.trace:
        samples = {m["name"]: [r["layers"][m["name"]] for r in traced_reps]
                   for m in wanted if m["name"] in traced_reps[0]["layers"]}
        # traced repetitions keep plain CPU time, so compare with raw untraced
        samples["bench.trace_overhead_ratio"] = [
            statistics.median(end_to_end_samples(traced_reps, [], False)["run_s"])
            / statistics.median(end_to_end_samples(reps, [], False)["run_s"])]
    else:
        samples = end_to_end_samples(reps, rep_rows)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'golden' if checker.has_golden else 'no golden; checked against repetition 1'}  "
          f"untraced repetitions {len(reps)}  traced repetitions {len(traced_reps)}  "
          f"measured {elapsed:.1f} s")
    print(f"report_sha256 {hashlib.sha256(reps[0]['csv'].encode()).hexdigest()}")
    if not args.trace:
        raw = end_to_end_samples(reps, rep_rows, nominal=False)
        print("times are CPU seconds scaled to the nominal machine speed; "
              "unscaled medians: "
              + ", ".join(f"{k} {statistics.median(v):.6g}" for k, v in raw.items())
              + f"; wall setup_s {statistics.median(r['setup_wall_s'] for r in reps):.6g}"
              f", run_s {statistics.median(r['run_wall_s'] for r in reps):.6g}")
    metrics = {}
    for m in wanted:
        values = samples.get(m["name"])
        if not values:
            print(f"bench: metric {m['name']} was not measured", file=sys.stderr)
            return 1
        q1, med, q3 = quartiles(values)
        metrics[m["name"]] = {"value": med, "unit": m["unit"]}
        print(f"  {m['name']:<42} {med:>14.6g} {m['unit']:<8} "
              f"q1 {q1:.6g}  q3 {q3:.6g}  n {len(values)}")
    if args.trace:
        print(f"read-your-writes reads checked: {checker.reads_checked}")
    print(f"failed_frac {checker.failed}/{checker.attempted} scheme rows = "
          f"{checker.failed / checker.attempted:.6g}")
    print(json.dumps({"correct": checker.failed == 0, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
