"""Wear variation, coverage and report assembly.

IntraV is the normalized average of per-block sample standard deviations of
per-cell write counts:

    IntraV = (1 / (BF_aver * N)) * sum_i sqrt( sum_j (BF_ij - mean_i)^2 / (C-1) )

with BF_ij the write count of cell j in block i, mean_i the block's own mean
and BF_aver the grand mean over all cells. The C/(C-1) sample correction
generalizes the fixed 512-cell block of the defining formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .core import WRITE_LATENCY_NS
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


# ---------------------------------------------------------------------------
# run reports


@dataclass
class RunReport:
    """One scheme's results, in report order: `report.csv`'s columns, then
    three flags that only `report.txt` lists after them."""

    scheme: str
    writes: int
    reads: int
    flips_set: int
    flips_reset: int
    flips_meta: int
    energy_pj: float
    intrav: float = field(metadata={"format": ".12g"})
    lifetime_writes: int
    lifetime_seconds: float = field(metadata={"format": ".9f"})
    meta_extra_reads: int
    mfv_top1: float
    mfv_top2: float
    mfv_top3: float
    mfv_top4: float
    mfv_top5: float
    overhead_bits: int
    truncated: bool = False
    lifetime_capped: bool = False
    dropped_writes: int = 0


CSV_COLUMNS = [f.name for f in fields(RunReport)][:-3]


def report_text(rep: RunReport) -> dict[str, str]:
    """Each field's report text, in field order: floats in their field's format
    (".6f" unless stated), flags as true/false, ints in decimal."""
    text = {}
    for f in fields(rep):
        value = getattr(rep, f.name)
        if f.type == "float":
            value = format(value, f.metadata.get("format", ".6f"))
        text[f.name] = str(value).lower() if f.type == "bool" else str(value)
    return text


def build_report(sim, coverage_rows, lifetime: bool = False) -> RunReport:
    """One scheme's report row; `lifetime` fills the lifetime columns from a
    `run_lifetime` run."""
    return RunReport(
        scheme=sim.scheme.scheme_id,
        writes=sim.writes,
        reads=sim.reads,
        flips_set=sim.totals.flips_set,
        flips_reset=sim.totals.flips_reset,
        flips_meta=sim.totals.meta_flips,
        energy_pj=sim.energy_pj(),
        intrav=intrav(sim.memory.wear_matrix()),
        lifetime_writes=sim.writes if lifetime else 0,
        lifetime_seconds=sim.writes * WRITE_LATENCY_NS * 1e-9 if lifetime else 0.0,
        meta_extra_reads=sim.meta_extra_reads(),
        **{f"mfv_top{k}": top_k_coverage(coverage_rows, k) for k in range(1, 6)},
        overhead_bits=sim.scheme.overhead_bits,
        truncated=sim.truncated,
        lifetime_capped=sim.capped,
        dropped_writes=sim.dropped_writes,
    )


def reports_to_csv(reports) -> str:
    """The CSV text: no field needs quoting, each being a scheme id or a number."""
    rows = [CSV_COLUMNS] + [list(report_text(r).values())[:len(CSV_COLUMNS)] for r in reports]
    return "".join(",".join(row) + "\n" for row in rows)


def reports_to_text(reports, header_lines=()) -> str:
    parts = list(header_lines)
    for rep in reports:
        text = report_text(rep)
        parts.append(f"scheme: {text.pop('scheme')}")
        parts += [f"  {name}: {value}" for name, value in text.items()]
    return "\n".join(parts) + "\n"
