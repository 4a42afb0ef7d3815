"""Wear-variation, lifetime, coverage and report assembly.

IntraV is the normalized average of per-block sample standard deviations of
per-cell write counts:

    IntraV = (1 / (BF_aver * N)) * sum_i sqrt( sum_j (BF_ij - mean_i)^2 / (C-1) )

with BF_ij the write count of cell j in block i, mean_i the block's own mean
and BF_aver the grand mean over all cells. The C/(C-1) sample correction
generalizes the fixed 512-cell block of the defining formula.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .core import DeadBlockError, SimulationError
from .mfv import unpack_granules


# cells (intrav) or granules (mfv_coverage) taken per numpy pass, so report
# assembly needs memory for one block of rows or one batch of payloads, not
# for the whole wear matrix or trace
REPORT_CHUNK = 1 << 14


def intrav(wear_matrix) -> float:
    """Intra-block wear variation; 0 for an unworn array.

    `BF_aver` is the mean of the matrix as given, summed as floats: exact for
    integer counts, whose partial sums all stay below 2^53. The per-block
    sample deviations come from float copies of blocks of whole rows (at most
    REPORT_CHUNK cells, at least one row); rows are independent, so they equal
    those of one float copy of the matrix.
    """
    w = np.asarray(wear_matrix)
    if w.ndim != 2 or w.shape[1] < 2:
        raise ValueError("wear matrix must be 2-D with at least two cells per block")
    bf_aver = w.mean(dtype=float)
    if bf_aver == 0:
        return 0.0
    step = max(1, REPORT_CHUNK // w.shape[1])
    stds = np.concatenate([w[i:i + step].astype(float).std(axis=1, ddof=1)
                           for i in range(0, w.shape[0], step)])
    return float(stds.sum() / (bf_aver * w.shape[0]))


def mfv_coverage(payloads, granule_bits: int) -> list[tuple[int, int, float, float]]:
    """Descending granule-value frequency table with cumulative fractions.

    Returns (value, count, fraction, cumulative_fraction) rows; empty input
    yields an empty table. Payloads are counted in batches of about
    REPORT_CHUNK granules: each batch is joined, unpacked and bincounted into
    one int64 count per value.
    """
    counts = np.zeros(1 << granule_bits, dtype=np.int64)
    for data in _join_batches(payloads, REPORT_CHUNK * granule_bits // 8):
        counts += np.bincount(unpack_granules(data, granule_bits), minlength=counts.size)
    total = int(counts.sum())
    if total == 0:
        return []
    order = sorted(range(counts.size), key=lambda v: (-counts[v], v))
    rows = []
    cum = 0
    for v in order:
        cum += int(counts[v])
        rows.append((v, int(counts[v]), counts[v] / total, cum / total))
    return rows


def _join_batches(chunks, nbytes: int):
    """Yield the byte strings of `chunks` joined into batches of at least
    `nbytes` bytes; the last batch may be shorter, or empty."""
    batch, size = [], 0
    for chunk in chunks:
        batch.append(chunk)
        size += len(chunk)
        if size >= nbytes:
            yield b"".join(batch)
            batch, size = [], 0
    yield b"".join(batch)


def top_k_coverage(rows, k: int) -> float:
    """Cumulative coverage of the k most frequent values (1.0 cap on short tables)."""
    if not rows:
        return 0.0
    return rows[min(k, len(rows)) - 1][3]


def run_lifetime(sim, events, max_writes: int = 100_000_000) -> None:
    """Replay a trace cyclically until capacity drops below one half.

    Works on any `Simulation` and leaves its results on it: `sim.writes`
    counts the writes actually serviced. A write to a failed block is dropped
    and counted in `sim.dropped_writes` (its page stays dead), and a read of
    one, or of content a start-gap copy lost, is skipped uncounted; the
    other blocks of a dead page go on serving both. A safety cap on write
    attempts keeps wear-free traces from looping forever; `sim.capped` is
    set when the cap ends a run whose capacity is still at one half or more.
    """
    if not any(ev.op == "W" for ev in events):
        raise SimulationError("trace cannot wear memory: it contains no writes")
    attempts = 0
    while True:
        for window in sim.windows(events):
            for ev in window:
                if ev.op != "W":
                    try:
                        sim.read(ev.addr)
                    except DeadBlockError:
                        pass  # a failed or lost block has nothing to read
                    continue
                try:
                    sim.write(ev.addr, ev.payload)
                except DeadBlockError:
                    sim.dropped_writes += 1
                attempts += 1
                capacity = sim.memory.live_capacity()
                if capacity < 0.5 or attempts >= max_writes:
                    sim.capped = capacity >= 0.5
                    return


# ---------------------------------------------------------------------------
# run reports

CSV_COLUMNS = [
    "scheme", "writes", "reads", "flips_set", "flips_reset", "flips_meta",
    "energy_pj", "intrav", "lifetime_writes", "lifetime_seconds",
    "meta_extra_reads", "mfv_top1", "mfv_top2", "mfv_top3", "mfv_top4",
    "mfv_top5", "overhead_bits",
]


@dataclass
class RunReport:
    """One scheme's aggregate results, serializable as a fixed-column CSV row."""

    scheme: str
    writes: int
    reads: int
    flips_set: int
    flips_reset: int
    flips_meta: int
    energy_pj: float
    intrav: float
    lifetime_writes: int
    lifetime_seconds: float
    meta_extra_reads: int
    mfv_top: tuple[float, float, float, float, float]
    overhead_bits: int
    truncated: bool = False
    lifetime_capped: bool = False
    dropped_writes: int = 0
    notes: list[str] = field(default_factory=list)

    def csv_row(self) -> list[str]:
        return [
            self.scheme, str(self.writes), str(self.reads), str(self.flips_set),
            str(self.flips_reset), str(self.flips_meta),
            format(self.energy_pj, ".6f"), format(self.intrav, ".12g"),
            str(self.lifetime_writes), format(self.lifetime_seconds, ".9f"),
            str(self.meta_extra_reads),
            *(format(f, ".6f") for f in self.mfv_top),
            str(self.overhead_bits),
        ]

    def text_block(self) -> str:
        lines = [f"scheme: {self.scheme}"]
        for col, val in zip(CSV_COLUMNS[1:], self.csv_row()[1:]):
            lines.append(f"  {col}: {val}")
        lines.append(f"  truncated: {str(self.truncated).lower()}")
        lines.append(f"  lifetime_capped: {str(self.lifetime_capped).lower()}")
        lines.append(f"  dropped_writes: {self.dropped_writes}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def build_report(sim, coverage_rows, lifetime: bool = False) -> RunReport:
    """One scheme's report row; `lifetime` fills the lifetime columns from a
    `run_lifetime` run."""
    wear = sim.memory.wear_matrix()
    iv = intrav(wear)
    notes = []
    if wear.sum() == 0:
        notes.append("no wear recorded; intrav defined as 0")
    if sim.truncated:
        notes.append("replay truncated by an access to a dead block")
    return RunReport(
        scheme=sim.scheme.scheme_id,
        writes=sim.writes,
        reads=sim.reads,
        flips_set=sim.totals.flips_set,
        flips_reset=sim.totals.flips_reset,
        flips_meta=sim.totals.meta_flips,
        energy_pj=sim.energy_pj(),
        intrav=iv,
        lifetime_writes=sim.writes if lifetime else 0,
        lifetime_seconds=sim.writes * sim.cfg.write_latency_ns * 1e-9 if lifetime else 0.0,
        meta_extra_reads=sim.meta_extra_reads(),
        mfv_top=tuple(top_k_coverage(coverage_rows, k) for k in range(1, 6)),
        overhead_bits=sim.scheme.overhead_bits_per_block(),
        truncated=sim.truncated,
        lifetime_capped=sim.capped,
        dropped_writes=sim.dropped_writes,
        notes=notes,
    )


def reports_to_csv(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rep in reports:
        writer.writerow(rep.csv_row())
    return buf.getvalue()


def reports_to_text(reports, header_lines=()) -> str:
    parts = list(header_lines)
    for rep in reports:
        parts.append(rep.text_block())
    return "\n".join(parts) + "\n"
