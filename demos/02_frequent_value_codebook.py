"""Watch the frequent-value finder build a distance-1 codebook.

Feeds a skewed granule stream through the FIFO filter, shows when values get
promoted into the frequent-value table, and prints the codeword table built
from the final ranking. Consecutively ranked values always differ in exactly
one codeword bit, so alternating between neighbors costs one flip per granule.
"""

import random

from pcmsim import MfvFinder, build_codebook


def main():
    rng = random.Random(5)
    # 50% zeros, 20% 0x7, some 0x1/0x3/0xF, a thin uniform tail
    pool = [0x0] * 50 + [0x7] * 20 + [0x1] * 6 + [0x3] * 5 + [0xF] * 4
    pool += list(range(16)) * 1

    finder = MfvFinder()
    for i in range(4000):
        v = rng.choice(pool)
        promoted = finder.observe(v)
        if promoted is not None:
            print(f"observation {i:>4}: value {promoted:#x} promoted to the FV table")

    ranked = finder.ranked_values()
    print("\nfinal ranking (by access counter):",
          " ".join(f"{v:#x}" for v in ranked))

    codewords = build_codebook(ranked, 4)
    print("\ncodeword table (rank, value, codeword):")
    rank = {v: k for k, v in enumerate(ranked, 1)}
    for v in sorted(range(16), key=lambda v: rank.get(v, 17)):
        print(f"{rank.get(v, '-')} {v:x} {codewords[v]:x}")

    print("\nadjacent ranked values differ in one codeword bit:")
    for a, b in zip(ranked, ranked[1:]):
        ca, cb_ = codewords[a], codewords[b]
        print(f"  {a:#x} -> {ca:04b}   {b:#x} -> {cb_:04b}   "
              f"distance {bin(ca ^ cb_).count('1')}")


if __name__ == "__main__":
    main()
