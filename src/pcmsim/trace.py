"""Trace file parsing/emission and seeded synthetic trace generation.

Canonical format is line-oriented text:

    W <addr-hex> <payload-hex>
    R <addr-hex>

The text is ASCII. `#` starts a comment, blank lines are ignored. Write
payloads must be exactly one block long. The generator produces traces with a
controllable read/write mix, address distribution (uniform or bounded zipf)
and per-granule value distribution (explicit probabilities with a uniform
tail, or zipf over the value space).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, TextIO

import numpy as np

from .core import ConfigError
from .mfv import pack_granules


class TraceFormatError(ValueError):
    """Malformed trace input; message carries the offending line number."""


class TraceEvent(NamedTuple):
    op: str                  # "R" or "W"
    addr: int
    payload: bytes | None = None


def parse_trace(stream: Iterable[str], block_bytes: int = 64) -> list[TraceEvent]:
    """Parse a trace, validating payload lengths strictly."""
    events = []
    for lineno, raw in enumerate(stream, 1):
        if not raw.isascii():  # comments included; a file's non-ASCII byte is a surrogate
            raise TraceFormatError(f"line {lineno}: trace text must be ASCII")
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        op = parts[0].upper()
        try:
            if op == "R" and len(parts) == 2:
                ev = TraceEvent("R", int(parts[1], 16))
            elif op == "W" and len(parts) == 3:
                ev = TraceEvent("W", int(parts[1], 16), bytes.fromhex(parts[2]))
            else:
                ev = None
        except ValueError:
            ev = None
        if ev is None or not 0 <= ev.addr < 1 << 64:  # addresses are 64-bit
            raise TraceFormatError(f"line {lineno}: malformed trace line {line!r}")
        if ev.payload is not None and len(ev.payload) != block_bytes:
            raise TraceFormatError(
                f"line {lineno}: payload is {len(ev.payload)} bytes, expected {block_bytes}")
        events.append(ev)
    return events


def parse_trace_file(path, block_bytes: int = 64) -> list[TraceEvent]:
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        return parse_trace(fh, block_bytes)


def emit_trace(events: Iterable[TraceEvent], stream: TextIO) -> None:
    for ev in events:
        if ev.op == "W":
            stream.write(f"W {ev.addr:04x} {ev.payload.hex()}\n")
        else:
            stream.write(f"R {ev.addr:04x}\n")


# ---------------------------------------------------------------------------
# synthetic generation

@dataclass
class GenSpec:
    """Parameters of a synthetic trace; a fixed seed yields identical bytes.

    `values` assigns explicit probabilities to granule values; the remaining
    probability mass is spread uniformly over the unnamed values. Setting
    `value_zipf_s` instead ranks the whole value space by a zipf law.
    """

    events: int = 10_000
    read_fraction: float = 0.5
    address_model: str = "uniform"       # "uniform" | "zipf"
    address_zipf_s: float = 1.0
    values: dict[int, float] = field(default_factory=dict)
    value_zipf_s: float | None = None
    seed: int = 0

    def validate(self, granule_bits: int) -> None:
        if self.events <= 0:
            raise ConfigError("event count must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, not {self.seed}")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ConfigError("read_fraction must lie in [0, 1]")
        if self.address_model not in ("uniform", "zipf"):
            raise ConfigError(f"unknown address model {self.address_model!r}")
        if (self.address_model == "zipf" and self.address_zipf_s <= 0
                or self.value_zipf_s is not None and self.value_zipf_s <= 0):
            raise ConfigError("zipf exponent must be positive")
        if self.values and self.value_zipf_s is not None:
            raise ConfigError("gen.values and gen.value_zipf_s are exclusive: set one")
        n = 1 << granule_bits
        total = 0.0
        for v, p in self.values.items():
            if not 0 <= v < n:
                raise ConfigError(f"granule value {v:#x} exceeds {granule_bits} bits")
            if isinstance(p, bool) or not isinstance(p, (int, float)) or p < 0:
                raise ConfigError("value probabilities must be non-negative numbers")
            total += p
        if total > 1.0 + 1e-9:
            raise ConfigError("value probabilities must sum to at most 1")
        if n == len(self.values) and total < 1.0 - 1e-9:
            raise ConfigError("no tail values left to absorb the remaining mass")


def value_probabilities(spec: GenSpec, granule_bits: int) -> np.ndarray:
    """Full probability vector over the 2^g granule values."""
    n = 1 << granule_bits
    if spec.value_zipf_s is not None:
        p = 1.0 / np.arange(1, n + 1, dtype=float) ** spec.value_zipf_s
        return p / p.sum()
    p = np.zeros(n)
    p[list(spec.values)] = list(spec.values.values())
    tail = [v for v in range(n) if v not in spec.values]
    if tail:
        p[tail] = (1.0 - p.sum()) / len(tail)
    return p / p.sum()


def _sample_addresses(rng: np.random.Generator, spec: GenSpec,
                      num_blocks: int, n: int) -> np.ndarray:
    if spec.address_model == "uniform":
        return rng.integers(0, num_blocks, size=n)
    ranks = np.arange(1, num_blocks + 1, dtype=float)
    p = 1.0 / ranks ** spec.address_zipf_s
    return rng.choice(num_blocks, size=n, p=p / p.sum())


# granules drawn per `rng.random` call while sampling values (whole rows, at
# least one): bounds set-up memory whatever the trace's length
SAMPLE_CHUNK_GRANULES = 1 << 17


def _sample_values(rng: np.random.Generator, p: np.ndarray, rows: int, cols: int):
    """Yield `rng.choice(len(p), size=(rows, cols), p=p).astype(np.uint8)` in
    blocks of whole rows, at most SAMPLE_CHUNK_GRANULES values each (at least
    one row); for `len(p) <= 256`.

    Draws `u` as consecutive `rng.random((k, cols))` calls of at most
    SAMPLE_CHUNK_GRANULES doubles. `Generator.random` fills doubles in order,
    so the values, and the generator's state once every block is drawn, equal
    those of one `rng.random((rows, cols))` call, which `choice` makes.
    From `u` each block returns the same `#{cdf <= u}` (`cdf = p.cumsum();
    cdf /= cdf[-1]`) from 2^16 buckets `b = floor(u * 2^16)`, held as uint16.
    Scaling by 2^16 is exact, so `u` lies in `[b, b + 1) / 2^16`: where no cdf
    value lies inside the bucket, its count is the table's; else `u`,
    recovered exactly as `(u * 2^16) / 2^16`, goes to `searchsorted`.
    """
    nb = 1 << 16
    cdf = np.asarray(p, dtype=float).cumsum()
    cdf /= cdf[-1]
    low = cdf.searchsorted(np.arange(nb) / nb, side="right").astype(np.uint8)
    inexact = low != cdf.searchsorted(np.arange(1, nb + 1) / nb, side="left")
    step = max(1, SAMPLE_CHUNK_GRANULES // max(cols, 1))
    for start in range(0, rows, step):
        u = rng.random((min(step, rows - start), cols))
        u *= nb
        b = u.astype(np.uint16)
        out = low[b]
        idx = np.flatnonzero(inexact[b])
        out.flat[idx] = cdf.searchsorted(u.flat[idx] / nb, side="right")
        yield out


def generate(spec: GenSpec, *, num_blocks: int, block_bytes: int = 64,
             granule_bits: int = 4) -> list[TraceEvent]:
    """Deterministically generate a trace from the spec."""
    spec.validate(granule_bits)
    rng = np.random.default_rng(spec.seed)
    reads = rng.random(spec.events) < spec.read_fraction
    addrs = _sample_addresses(rng, spec, num_blocks, spec.events)
    n_writes = int((~reads).sum())
    gpb = block_bytes * 8 // granule_bits
    pv = value_probabilities(spec, granule_bits)
    # each row packs to whole bytes, so a block of rows packs to its rows' payloads
    packed = (pack_granules(v.ravel(), granule_bits)
              for v in _sample_values(rng, pv, n_writes, gpb))
    payloads = (b[i:i + block_bytes] for b in packed for i in range(0, len(b), block_bytes))
    return [TraceEvent("R", a) if r else TraceEvent("W", a, next(payloads))
            for a, r in zip(addrs.tolist(), reads.tolist())]


# The three read/write mixes, plus a granule-value distribution whose top five
# values cover 82% of the stream (zero-dominated, with a heavy three-bit
# neighbor so encodings have headroom over a raw bit-by-bit comparison).
PRESET_VALUES = {0x0: 0.47, 0x7: 0.20, 0x1: 0.06, 0x3: 0.05, 0xF: 0.04}

PRESETS = {
    "read-heavy": {"read_fraction": 0.75, "values": PRESET_VALUES},
    "balanced": {"read_fraction": 0.5, "values": PRESET_VALUES},
    "write-heavy": {"read_fraction": 0.25, "values": PRESET_VALUES},
}


def preset_spec(name: str, events: int = 10_000, seed: int = 0) -> GenSpec:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r} (choose from {', '.join(PRESETS)})")
    kw = PRESETS[name]
    return GenSpec(events=events, seed=seed, read_fraction=kw["read_fraction"],
                   values=dict(kw["values"]))
