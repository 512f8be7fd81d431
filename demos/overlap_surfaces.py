#!/usr/bin/env python3
"""Overlap surfaces for the two worked qubit pairs.

Sweeps the two-angle measurement family over [0, pi] x [0, pi] for the
pairs (identity, sigma_y) and (identity, (I - i sigma_y)/sqrt(2)) and
prints where the maximal squared overlap peaks and bottoms out.  The
bottom of the surface is the largest entropic bound the measurement
family can enforce; the peaks are the trivial, zero-uncertainty testers.

Run:  python demos/overlap_surfaces.py [--csv DIR]
"""

import argparse
import pathlib

import numpy as np

from utp import su2_overlap_point, su2_overlap_surface, sweep_csv_blocks

GRID = 101


def describe(pair: str) -> None:
    surface = su2_overlap_surface(pair, GRID)
    max_overlap, bound_bits = surface.max_overlap, surface.bound_bits
    i, j = divmod(int(np.argmin(max_overlap)), GRID)  # row i * GRID + j is (angles[i], angles[j])
    print(f"pair {pair}:")
    print(f"  grid {GRID}x{GRID}, {len(surface)} samples")
    print(f"  min max-overlap {max_overlap.min():.12f} "
          f"at theta={surface.angles[i]:.6f}, phi={surface.angles[j]:.6f}")
    print(f"  strongest bound {bound_bits.max():.12f} bits")
    peak = su2_overlap_point(pair, np.pi / 4, np.pi / 2)
    print(f"  trivial-tester peak at (pi/4, pi/2): max-overlap {peak['max_overlap']:.12f}")
    # sanity: where the bound is strongest, the surface sits at 1/2
    n_at_half = int(np.sum(np.abs(max_overlap - 0.5) <= 1e-9))
    print(f"  samples pinned at overlap 1/2: {n_at_half}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--csv", type=pathlib.Path, help="directory for CSV dumps")
    args = parser.parse_args()
    for pair in ("i-sigmay", "i-omega"):
        describe(pair)
        if args.csv:
            args.csv.mkdir(parents=True, exist_ok=True)
            path = args.csv / f"surface_{pair.replace('-', '_')}.csv"
            with path.open("w") as f:  # block by block: no whole-file string
                f.writelines(sweep_csv_blocks(su2_overlap_surface(pair, GRID)))
            print(f"  wrote {path}")
        print()


if __name__ == "__main__":
    main()
