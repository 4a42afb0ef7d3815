"""Test-only views and switches over pcmsim internals."""

from dataclasses import dataclass


def rotate_right(x, r, width):
    """Rotate the low `width` bits of x right by r (bit j moves to j-r mod width);
    the inverse of `pcmsim.core.rotate_left`."""
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


def freeze_codebook(scheme):
    """Pin a `WireScheme` to its newest codebook version: version 0, the
    identity, unless the test appends another. The finder still observes
    every write, but no write builds a new version."""
    scheme.current_version = lambda: len(scheme.versions) - 1
    return scheme
