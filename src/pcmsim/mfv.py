"""Frequent-value detection and codeword assignment.

A small FIFO filter screens transient granule values; values whose saturation
counter fills up are promoted into the frequent-value (FV) table. Ranked
frequent values are mapped onto a reflected-Gray codeword chain so that
consecutively ranked values differ in exactly one bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError

FV_COUNTER_MAX = 2**31 - 1


@dataclass
class FvEntry:
    counter: int = 0  # saturating access counter
    pointer: int = 0  # stored blocks relying on the value


class MfvFinder:
    """FIFO filter plus frequent-value table.

    The FV table `fv` maps at most `fv_entries` values to their entries.
    `generation` increments whenever its set of values changes, which is the
    signal for consumers to rebuild their codebook.
    """

    def __init__(self, fifo_entries: int = 16, sat_max: int = 7,
                 replace_threshold: int = 1, fv_entries: int = 16):
        if fifo_entries <= 0 or fv_entries <= 0:
            raise ConfigError("finder tables need at least one entry")
        if sat_max <= 0 or replace_threshold < 0:
            raise ConfigError("bad finder thresholds")
        self.fifo_entries = fifo_entries
        self.sat_max = sat_max
        self.replace_threshold = replace_threshold
        self.fv_entries = fv_entries
        # FIFO entry k: _fifo_values[k], counter max(0, _fifo_expiry[k] - _misses)
        self._fifo_values: list[int] = []
        self._fifo_expiry: list[int] = []
        self._fifo_slot: dict[int, int] = {}  # value -> k
        self._misses = 0
        self.fv: dict[int, FvEntry] = {}
        self.generation = 0
        self.retire_misses = 0  # diagnostics: retire of an untracked value
        self._shared = 0  # bit v: value v's entry has two or more references

    # -- observation ---------------------------------------------------------

    def observe(self, value: int) -> int | None:
        """Feed one granule value; returns the value if promoted into the FV table.

        FV-resident values just bump their access counter. A FIFO hit bumps
        the saturation counter and promotes at saturation if a Gap line is
        free; a miss decrements every counter, by counting one more miss, and
        replaces the first entry below the threshold (or drops the value).
        """
        entry = self.fv.get(value)
        if entry is not None:
            if entry.counter < FV_COUNTER_MAX:
                entry.counter += 1
            return None

        misses, expiry = self._misses, self._fifo_expiry
        k = self._fifo_slot.get(value)
        if k is not None:
            sat = expiry[k] - misses
            if sat < self.sat_max:
                sat = max(sat, 0) + 1
                expiry[k] = misses + sat
            if sat >= self.sat_max and self._install(value):
                del self._fifo_values[k], expiry[k]
                self._fifo_slot = {v: i for i, v in enumerate(self._fifo_values)}
                return value
            return None

        self._misses = misses = misses + 1
        values, slot = self._fifo_values, self._fifo_slot
        if len(values) < self.fifo_entries:
            slot[value] = len(values)
            values.append(value)
            expiry.append(misses + 1)
        elif self.replace_threshold:  # counter max(0, e - misses) < threshold
            limit = misses + self.replace_threshold
            for k, e in enumerate(expiry):
                if e < limit:
                    del slot[values[k]]
                    slot[value], values[k], expiry[k] = k, value, misses + 1
                    break
        return None

    def observe_write(self, granules: bytes) -> int:
        """Feed one write's granules, a byte each in write order; same end state
        as `observe` on each in order. Returns the write's values resident at
        its end, bit v for value v. A value that is FV-resident when the write
        starts gets all its occurrences in one saturating counter update; only
        the other values go through `observe`, in order.

        This is exact because, for a resident value, `observe` only bumps that
        entry's saturating counter, which no other step of `observe` reads,
        and leaves the FIFO and FV membership alone. Nothing retires an entry
        while the write is observed, so a resident value stays resident to
        the end of the write and its occurrences commute with every other
        call. A value promoted partway through the write is not in the
        resident set; `observe` itself credits its later occurrences.
        """
        index, count = self.fv, granules.count
        resident = 0
        for v, entry in index.items():
            n = count(v)
            if n:
                c = entry.counter + n
                entry.counter = c if c < FV_COUNTER_MAX else FV_COUNTER_MAX
                resident |= 1 << v
        late = granules.translate(None, bytes(index))
        if late:
            observe = self.observe
            for v in late:
                if observe(v) is not None:  # promoted, so resident to the end
                    resident |= 1 << v
        return resident

    def _install(self, value: int) -> bool:
        if len(self.fv) >= self.fv_entries:
            return False
        self.fv[value] = FvEntry()
        self.generation += 1
        return True

    # -- reference counting --------------------------------------------------

    def add_reference(self, value: int) -> bool:
        """Record one more stored block relying on `value`; False if untracked."""
        entry = self.fv.get(value)
        if entry is None:
            return False
        entry.pointer += 1
        if entry.pointer == 2:
            self._shared |= 1 << value
        return True

    def retire_reference(self, value: int) -> None:
        """Drop one block reference; the entry becomes a Gap at pointer zero."""
        entry = self.fv.get(value)
        if entry is None or entry.pointer <= 0:
            self.retire_misses += 1
            return
        if entry.pointer == 2:
            self._shared &= ~(1 << value)
        entry.pointer -= 1
        if entry.pointer == 0:
            del self.fv[value]
            self.generation += 1

    def rereference(self, old: int, new: int) -> int:
        """Move a block's references from value mask `old` to `new`; returns
        the mask it now holds. Same end state and result as `retire_reference`
        on each value of `old`, then `add_reference` on each of `new`: every
        call touches only its own entry, so a value in both whose entry has
        two or more references (`_shared`) is a no-op pair, and a kept value
        with one reference is still freed by its retire before its add misses.
        """
        held = old & new & self._shared
        retire, add = old ^ held, new ^ held
        while retire:
            low = retire & -retire
            self.retire_reference(low.bit_length() - 1)
            retire ^= low
        while add:
            low = add & -add
            if self.add_reference(low.bit_length() - 1):
                held |= low
            add ^= low
        return held

    # -- queries ---------------------------------------------------------------

    def is_frequent(self, value: int) -> bool:
        return value in self.fv

    def ranked_values(self) -> list[int]:
        """FV values ordered by access counter (descending, value tiebreak)."""
        return sorted(self.fv, key=lambda v: (-self.fv[v].counter, v))


# ---------------------------------------------------------------------------
# codebook

def build_codebook(ranked_mfvs, granule_bits: int) -> tuple[int, ...]:
    """Assign codewords so consecutively ranked values differ in one bit;
    returns the codeword of every value, indexed by value.

    Rank k (1-based) maps to the k-th reflected-Gray code 0, 1, 3, 2, 6, ...;
    all remaining values take the remaining codewords in ascending order,
    keeping the mapping a bijection so decode needs no flag bits.
    """
    n = 1 << granule_bits
    ranked = list(ranked_mfvs)
    if len(set(ranked)) != len(ranked):
        raise ConfigError("ranked values must be distinct")
    if any(not 0 <= v < n for v in ranked):
        raise ConfigError(f"ranked values must fit in {granule_bits} bits")
    if len(ranked) > n:
        raise ConfigError("more ranked values than codewords")

    gray = [i ^ (i >> 1) for i in range(len(ranked))]
    perm = [-1] * n
    for v, cw in zip(ranked, gray):
        perm[v] = cw
    free_codewords = sorted(set(range(n)) - set(gray))
    free_values = [v for v in range(n) if perm[v] < 0]
    for v, cw in zip(free_values, free_codewords):
        perm[v] = cw
    return tuple(perm)


# ---------------------------------------------------------------------------
# granule packing (LSB-first: granule k occupies bits [k*g, (k+1)*g))

# per granule width below 8, one translate table per granule position of a byte
_SPLIT_TABLES = {g: [bytes((b >> k) & ((1 << g) - 1) for b in range(256))
                     for k in range(0, 8, g)] for g in (1, 2, 4)}


def split_granules(data: bytes, granule_bits: int) -> bytes:
    """Split payload bytes into granule values, a byte each, low-order granules
    first: granule i of byte j lands at j * k + i, k = 8 // granule_bits."""
    if granule_bits == 8:
        return data
    tables = _SPLIT_TABLES.get(granule_bits)
    if tables is None:
        raise ConfigError(f"unsupported granule width {granule_bits}")
    k = len(tables)
    granules = bytearray(len(data) * k)
    for i, table in enumerate(tables):
        granules[i::k] = data.translate(table)
    return granules


def unpack_granules(data: bytes, granule_bits: int) -> np.ndarray:
    """`split_granules` as a uint8 array."""
    values = np.frombuffer(split_granules(data, granule_bits), dtype=np.uint8)
    return values if values.flags.writeable else values.copy()


def pack_granules(values: np.ndarray, granule_bits: int) -> bytes:
    """Inverse of unpack_granules."""
    v = np.asarray(values, dtype=np.uint8)
    if granule_bits not in (1, 2, 4, 8):
        raise ConfigError(f"unsupported granule width {granule_bits}")
    k = 8 // granule_bits
    b = v[0::k].copy()
    for i in range(1, k):
        b |= v[i::k] << (i * granule_bits)
    return b.tobytes()
