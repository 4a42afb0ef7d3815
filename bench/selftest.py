"""Self-test of the benchmark's tracing; takes about a minute.

    python3 -m pytest bench/selftest.py

For each workload it runs one untraced and one traced repetition at the
shipped seed. Every span must record at least one call on the workloads that
exercise its layer, and tracing must leave the report bytes unchanged.
"""

import pytest

import run

ALL = frozenset(run.WORKLOADS)
READS = frozenset({"balanced", "readheavy-g8"})
WEAR = frozenset({"lifetime", "readheavy-g8"})

# span -> workloads on which it must record at least one call
EXPECTED_SPANS = {
    "mfv.observe": ALL,
    "mfv.build_codebook": ALL,
    "mfv.unpack_granules": ALL,
    "mfv.pack_granules": ALL,
    "schemes.optimal_rotation": ALL,
    "schemes.wire.write": ALL,
    "schemes.wire.read": READS,
    "schemes.fnw.write": ALL,
    "schemes.fnw.read": READS,
    "core.program_cells": ALL,
    "core.program_all_cells": ALL,
    "core.wear_matrix": ALL,
    "wearlevel.next_epoch": ALL,
    "wearlevel.step": WEAR,
    "sim.write": ALL,
    "sim.read": READS,
    "metrics.run_lifetime": frozenset({"lifetime"}),
    "metrics.build_report": ALL,
    "metrics.intrav": ALL,
    "metrics.mfv_coverage": ALL,
    "trace.generate": frozenset({"balanced"}),
    "trace.parse_trace": WEAR,
    "cli.load_events": ALL,
    "cli.trace_digest": ALL,
}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_spans_record_calls_and_tracing_keeps_report_bytes(name, tmp_path):
    argv = run.prepare(name, run.SHIPPED_SEED, tmp_path)
    untraced = run.run_child(argv, False, tmp_path / "untraced")
    traced = run.run_child(argv, True, tmp_path / "traced")
    assert untraced is not None and traced is not None

    silent = [span for span, workloads in EXPECTED_SPANS.items()
              if name in workloads and traced["layers"][f"{span}.calls"] < 1]
    assert silent == []
    assert traced["csv"] == untraced["csv"]
