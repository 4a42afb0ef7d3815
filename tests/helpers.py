"""Test-only views and switches over pcmsim internals, and the oracles the
tests check pcmsim against."""

import math
from dataclasses import dataclass

from pcmsim import MfvFinder
from pcmsim.mfv import split_granules


def hamming(a, b):
    """Number of bit positions in which a and b differ."""
    return bin(a ^ b).count("1")


def intrav_oracle(matrix):
    """Independent direct-summation evaluation of the wear-variation formula,
    over a list of equally long rows of per-cell counts."""
    n, c = len(matrix), len(matrix[0])
    bf_aver = sum(sum(row) for row in matrix) / (n * c)
    if bf_aver == 0:
        return 0.0
    acc = 0.0
    for row in matrix:
        mean = sum(row) / c
        acc += math.sqrt(sum((x - mean) ** 2 for x in row) / (c - 1))
    return acc / (bf_aver * n)


def rotate_left(x, r, width):
    """Rotate the low `width` bits of x left by r (bit j moves to j+r mod width),
    as `wire`'s encode tables rotate each codeword by the block's epoch."""
    r %= width
    return ((x << r) | (x >> (width - r))) & ((1 << width) - 1) if r else x


def rotate_right(x, r, width):
    """Rotate the low `width` bits of x right by r (bit j moves to j-r mod width);
    the inverse of `rotate_left`."""
    r %= width
    return ((x >> r) | (x << (width - r))) & ((1 << width) - 1) if r else x


@dataclass
class FifoEntry:
    value: int
    sat_counter: int = 1


def fifo(finder):
    """A finder's FIFO filter in order, with each entry's current saturation
    counter (the finder keeps them lazily decayed)."""
    return [FifoEntry(v, max(0, e - finder._misses))
            for v, e in zip(finder._fifo_values, finder._fifo_expiry)]


class PerGranuleFinder(MfvFinder):
    """A finder whose `observe_write` feeds every granule to `observe` in write
    order: the reference that `MfvFinder`'s bulk FV credit must match."""

    def observe_write(self, data, granule_bits=8):
        granules = split_granules(data, granule_bits)
        for v in granules:
            self.observe(v)
        return sum(1 << v for v in set(granules) if self.is_frequent(v))


def freeze_codebook(scheme):
    """Pin a `WireScheme` to its newest codebook version: version 0, the
    identity, unless the test appends another. The finder still observes
    every write, but no write builds a new version."""
    scheme.current_version = lambda: len(scheme.versions) - 1
    return scheme


class RegisterStartGap:
    """Start-gap's register rule, the reference `StartGapLeveler`'s table must
    equal after every step: the gap slides down one physical slot per step,
    and the step that wraps it from slot 0 back to the spare slot n bumps
    `start`, so every address has then moved one slot."""

    def __init__(self, n):
        self.n, self.start, self.gap = n, 0, n

    def map(self, logical):
        x = (logical + self.start) % self.n
        return x + 1 if x >= self.gap else x

    def inverse(self, physical):
        if physical == self.gap:
            raise ValueError("gap block backs no logical address")
        x = physical - 1 if physical > self.gap else physical
        return (x - self.start) % self.n

    def step(self):
        if self.gap == 0:
            self.start = (self.start + 1) % self.n
        self.gap = (self.gap - 1) % (self.n + 1)
