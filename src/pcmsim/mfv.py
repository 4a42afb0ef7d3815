"""Frequent-value detection and codeword assignment.

A small FIFO filter screens transient granule values; values whose saturation
counter fills up are promoted into the frequent-value (FV) table. Ranked
frequent values are mapped onto a reflected-Gray codeword chain so that
consecutively ranked values differ in exactly one bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import ConfigError

FV_COUNTER_MAX = 2**31 - 1
# pending granules past which `observe_write` credits them at once
PENDING_FLUSH_BYTES = 32 * 1024


@dataclass
class FvEntry:
    counter: int = 0  # saturating access counter; `flush` adds pending credit
    pointer: int = 0  # stored blocks relying on the value


class MfvFinder:
    """FIFO filter plus frequent-value table.

    The FV table `fv` maps at most `fv_entries` values to their entries.
    `generation` increments whenever its set of values changes, which is the
    signal for consumers to rebuild their codebook. An entry's `pointer`
    counts the stored blocks whose value mask holds it: `rereference` moves
    one block's mask, and an entry no block holds any more is retired.

    `observe_write` credits FV-resident values in bulk: it appends each
    write's granules to a pending buffer, and `flush` adds their counts to the
    values in the table at that moment. Every install flushes first, so a
    value in the table at a flush has been resident through all its pending
    granules, and a value that was not is not credited: the counters equal
    per-granule `observe`'s whenever `ranked_values` reads them.
    """

    def __init__(self, fifo_entries: int = 16, sat_max: int = 7, fv_entries: int = 16):
        if fifo_entries <= 0 or fv_entries <= 0:
            raise ConfigError("finder tables need at least one entry")
        if sat_max <= 0:
            raise ConfigError("the saturation threshold must be positive")
        self.fifo_entries = fifo_entries
        self.sat_max = sat_max
        self.fv_entries = fv_entries
        # FIFO entry k: _fifo_values[k], counter max(0, _fifo_expiry[k] - _misses)
        self._fifo_values: list[int] = []
        self._fifo_expiry: list[int] = []
        self._fifo_slot: dict[int, int] = {}  # value -> k
        self._misses = 0
        self.fv: dict[int, FvEntry] = {}
        self.generation = 0
        self._pending = bytearray()  # granules whose FV credit `flush` adds
        # generation -> (the FV values, a byte each; bit v set for each value v)
        self._fv_view = functools.lru_cache(maxsize=1)(
            lambda generation: (bytes(self.fv), sum(1 << v for v in self.fv)))

    # -- observation ---------------------------------------------------------

    def observe(self, value: int) -> int | None:
        """Feed one granule value; returns the value if promoted into the FV table.

        FV-resident values just bump their access counter. A FIFO hit bumps
        the saturation counter and promotes at saturation if a Gap line is
        free; a miss decrements every counter, by counting one more miss, and
        replaces the first entry whose counter is 0 (or drops the value).
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
        else:
            for k, e in enumerate(expiry):
                if e <= misses:  # counter max(0, e - misses) is 0
                    del slot[values[k]]
                    slot[value], values[k], expiry[k] = k, value, misses + 1
                    break
        return None

    def observe_write(self, data: bytes, granule_bits: int = 8) -> int:
        """Feed one write's payload, split into `granule_bits` granules (see
        `split_granules`); same end state as `observe` on each granule in
        write order, once `flush` has run. Returns the write's values resident
        at its end, bit v for value v.

        Values resident when the write starts go to the pending buffer only:
        for them `observe` would just bump a saturating counter, and nothing
        retires an entry during a write. The other granules are taken in
        write order, after the buffer took the whole write. A FIFO miss
        applies `observe`'s miss rule inline. A FIFO hit goes through
        `observe`, and so does every granule after a promotion: the flush the
        promotion made dropped the promoted value's granules, and `observe`
        counts its later ones. Counting needs no order: below 8 bits the
        granules are one translate per granule position, joined, and the
        ordered split (at 8 bits the payload itself) is taken only for a
        write with a granule not resident.
        """
        keys, resident = self._fv_view(self.generation)
        granules = data if granule_bits == 8 else b"".join(
            [data.translate(table) for table in _split_tables(granule_bits)])
        pending = self._pending
        pending += granules
        for v in keys.translate(None, granules):  # resident values the write lacks
            resident ^= 1 << v
        if granules.translate(None, keys):
            observe, fifo_entries, promoted = self.observe, self.fifo_entries, False
            values, expiry, slot, misses = (
                self._fifo_values, self._fifo_expiry, self._fifo_slot, self._misses)
            for v in split_granules(data, granule_bits).translate(None, keys):
                # a FIFO hit goes through `observe`, and so does every granule
                # after a promotion, which rebinds `_fifo_slot`
                if promoted or v in slot:
                    self._misses = misses
                    if observe(v) is not None:  # promoted, so resident to the end
                        resident |= 1 << v
                        promoted = True
                    misses = self._misses
                    continue
                misses += 1  # a FIFO miss: `observe`'s miss rule
                if len(values) < fifo_entries:
                    slot[v] = len(values)
                    values.append(v)
                    expiry.append(misses + 1)
                    continue
                # slot 0 takes nearly every miss: the entry it took at the
                # last miss has expired by this one
                k = 0 if expiry[0] <= misses else next(
                    (k for k, e in enumerate(expiry) if e <= misses), None)
                if k is not None:
                    del slot[values[k]]
                    slot[v], values[k], expiry[k] = k, v, misses + 1
            self._misses = misses
        if len(pending) > PENDING_FLUSH_BYTES:
            self.flush()
        return resident

    def flush(self) -> None:
        """Credit the pending granules to the values in the FV table now."""
        pending = self._pending
        if not pending:
            return
        counts = np.bincount(np.frombuffer(pending, dtype=np.uint8), minlength=256).tolist()
        pending.clear()
        for v, entry in self.fv.items():
            n = counts[v]
            if n:
                c = entry.counter + n
                entry.counter = c if c < FV_COUNTER_MAX else FV_COUNTER_MAX

    def _install(self, value: int) -> bool:
        if len(self.fv) >= self.fv_entries:
            return False
        self.flush()  # before `value` joins the table: its pending granules are not credited
        self.fv[value] = FvEntry()
        self.generation += 1
        return True

    # -- reference counting --------------------------------------------------

    def rereference(self, old: int, new: int) -> None:
        """Move a block's references from value mask `old` to `new`, bit v
        for value v. A value in both keeps its reference, one only in `new`
        gains one, and one only in `old` loses one; at zero its entry becomes
        a Gap. Every value of either mask must have an entry (`KeyError`)."""
        fv = self.fv
        add, retire = new & ~old, old & ~new
        while add:
            low = add & -add
            fv[low.bit_length() - 1].pointer += 1
            add ^= low
        while retire:
            low = retire & -retire
            value = low.bit_length() - 1
            entry = fv[value]
            entry.pointer -= 1
            if not entry.pointer:
                del fv[value]
                self.generation += 1
            retire ^= low

    # -- queries ---------------------------------------------------------------

    def is_frequent(self, value: int) -> bool:
        return value in self.fv

    def ranked_values(self) -> list[int]:
        """FV values ordered by access counter (descending, value tiebreak)."""
        self.flush()
        return sorted(self.fv, key=lambda v: (-self.fv[v].counter, v))


# ---------------------------------------------------------------------------
# codebook

def build_codebook(ranked_mfvs, granule_bits: int) -> tuple[int, ...]:
    """Assign codewords so consecutively ranked values differ in one bit;
    returns the codeword of every value, indexed by value.

    Rank k (1-based) maps to the k-th reflected-Gray code 0, 1, 3, 2, 6, ...;
    the unranked values, ascending, take the unused codewords, ascending,
    keeping the mapping a bijection so decode needs no flag bits.
    """
    n = 1 << granule_bits
    ranked = list(ranked_mfvs)
    if len(set(ranked)) != len(ranked):
        raise ConfigError("ranked values must be distinct")
    if any(not 0 <= v < n for v in ranked):
        raise ConfigError(f"ranked values must fit in {granule_bits} bits")

    chain = [i ^ (i >> 1) for i in range(len(ranked))]
    values = ranked + sorted(set(range(n)) - set(ranked))
    codewords = chain + sorted(set(range(n)) - set(chain))
    perm = [0] * n
    for v, cw in zip(values, codewords):
        perm[v] = cw
    return tuple(perm)


# ---------------------------------------------------------------------------
# granule packing (LSB-first: granule k occupies bits [k*g, (k+1)*g))

# per granule width below 8, one translate table per granule position of a byte
_SPLIT_TABLES = {g: [bytes((b >> k) & ((1 << g) - 1) for b in range(256))
                     for k in range(0, 8, g)] for g in (1, 2, 4)}


def _split_tables(granule_bits: int) -> list[bytes]:
    tables = _SPLIT_TABLES.get(granule_bits)
    if tables is None:
        raise ConfigError(f"unsupported granule width {granule_bits}")
    return tables


def split_granules(data: bytes, granule_bits: int) -> bytes:
    """Split payload bytes into granule values, a byte each, low-order granules
    first: granule i of byte j lands at j * k + i, k = 8 // granule_bits."""
    if granule_bits == 8:
        return data
    tables = _split_tables(granule_bits)
    k = len(tables)
    granules = bytearray(len(data) * k)
    for i, table in enumerate(tables):
        granules[i::k] = data.translate(table)
    return granules


def unpack_granules(data: bytes, granule_bits: int) -> np.ndarray:
    """`split_granules` as a uint8 array, a view that may be read-only."""
    return np.frombuffer(split_granules(data, granule_bits), dtype=np.uint8)


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
