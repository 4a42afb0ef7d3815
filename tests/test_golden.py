"""Report rows of the benchmark workloads must match the golden rows byte for byte.

Runs `pcmsim run` in-process on each workload of bench/run.py at seed 0 and
compares every report row, flags included, with bench/golden/<workload>.csv.
The benchmark's own helpers build the inputs and parse the reports, so this
test and `python3 bench/run.py` check the same thing.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from pcmsim import cli

BENCH_RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def load_bench_run():
    spec = importlib.util.spec_from_file_location("pcmsim_bench_run", BENCH_RUN)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave bench/ as it is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


bench = load_bench_run()


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_report_rows_match_golden(workload, tmp_path):
    argv = bench.prepare(workload, 0, tmp_path)
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 0
    rows = bench.parse_rows((out / "report.csv").read_text(encoding="ascii"),
                            (out / "report.txt").read_text(encoding="ascii"))
    assert rows == bench.load_golden(workload)[0]


def test_report_layout_is_pinned(tmp_path):
    # the golden checks parse rows by column name, so they cannot see a
    # reordered column or report.txt line; this pins the order itself
    out = tmp_path / "out"
    assert cli.main(["run", "--preset", "balanced", "--events", "200", "--seed", "1",
                     "--schemes", "plain,wire", "--out", str(out)]) == 0
    csv_lines = (out / "report.csv").read_text(encoding="ascii").splitlines()
    assert csv_lines[0] == (
        "scheme,writes,reads,flips_set,flips_reset,flips_meta,energy_pj,intrav,"
        "lifetime_writes,lifetime_seconds,meta_extra_reads,mfv_top1,mfv_top2,"
        "mfv_top3,mfv_top4,mfv_top5,overhead_bits")
    assert [line.split(",")[0] for line in csv_lines[1:]] == ["plain", "wire"]

    block = ["writes", "reads", "flips_set", "flips_reset", "flips_meta", "energy_pj",
             "intrav", "lifetime_writes", "lifetime_seconds", "meta_extra_reads",
             "mfv_top1", "mfv_top2", "mfv_top3", "mfv_top4", "mfv_top5", "overhead_bits",
             "truncated", "lifetime_capped", "dropped_writes"]
    lines = (out / "report.txt").read_text(encoding="ascii").splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "pcm write simulation report", "trace_sha256", "events", "memory_blocks",
        "lifetime_mode", "",
        "scheme", *(f"  {key}" for key in block),
        "scheme", *(f"  {key}" for key in block)]
    assert [line for line in lines if line.startswith("scheme:")] == [
        "scheme: plain", "scheme: wire"]
