"""Check the Monte Carlo twirl against its closed form.

Averaging a 90-degree rotation over uniformly random axes has the exact
result diag(2/3, 1/3) on the polarized basis state, which the analytic mode
of the same channel returns.  The sampled estimate should approach it at the
usual 1/sqrt(N) rate: ten times more samples, about a third of the error.
The last column scales the reported standard error by sqrt(N) and should
hover around a constant.
"""

import math

import numpy as np

from pennyflip import SPIN_UP, RandomAxisRotation, RngStream, apply_channel


def main():
    theta = math.radians(90.0)
    twirl = RandomAxisRotation(theta)
    exact = apply_channel(twirl, SPIN_UP)

    print("      samples   max |MC - exact|   std error    std error * sqrt(N)")
    print("-" * 68)
    for power in range(2, 7):
        n = 10**power
        est = apply_channel(twirl, SPIN_UP, mode="mc", samples=n, rng=RngStream(0))
        dev = np.max(np.abs(est.mean - exact))
        print(
            f"{n:13,d}   {dev:16.3e}   {est.std_error:.3e}    {est.std_error * math.sqrt(n):.4f}"
        )

    print()
    print("Every run above uses seed 0, so rerunning the script reproduces the")
    print("numbers bit for bit.  Splitting a run across shards, e.g.")
    print('apply_channel(..., mode="mc", shards=8), draws from per-shard substreams and stays')
    print("reproducible for a fixed (seed, samples, shards) triple.")


if __name__ == "__main__":
    main()
