#!/usr/bin/env python3
"""Report where the rpz profile of one pool spends its eigensolver work.

Draws N random bases of dimension d from the seed, or takes the family set
(M1, M2, M3(a)) with --family a, and computes their rpz profile once with
np.linalg.eigvalsh wrapped to count its calls.  For each
subset size k it prints the number of k-subsets, how many of them got their
screened value from eigvalsh (their own frame operator or their
complement's was diagonalized) and how many Gram blocks of size k the
confirmation diagonalized.  Then it prints how many frame operators went to
eigvalsh and the time of a second, uncounted computation of the profile.

Every pool goes through one screen pipeline, and its prefilter decides
which frames reach eigvalsh:

- no prefilter (below 12 kets, and pools of one or two bases): every frame,
  2^(n-1) of them;
- the closed form (qutrit pools of 12 kets or more): the frames that it puts
  near a size's maximum;
- the certificate (other pools of at least three bases and 13 kets or
  more): one candidate frame per subset size, then every frame whose
  Cholesky certificate fails, that is, every frame that may lie within the
  margin of a size's maximum (on the 16-ket pool of four random d = 4
  bases, about 800 of 32 768).

    python scripts/rpz_screen_report.py --d 3 --n-bases 6 --seed 0
    python scripts/rpz_screen_report.py --d 4 --n-bases 4 --seed 0
    python scripts/rpz_screen_report.py --family 0.3
"""

import argparse
import math
import time

import numpy as np

from eurkit.bounds import rpz_profile
from eurkit.family import build_family
from eurkit.linalg import CapacityError, ValidationError
from eurkit.sampling import random_basis


def count_eigvalsh(measurements):
    """The rpz profile's eigvalsh calls: frames per frame size and Gram blocks per block size."""
    frames, blocks, calls = {}, {}, []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        # The first call is the whole pool's frame deviation and the Gram-block
        # confirmation starts at size 1; the screen's calls lie in between.
        if len(calls) > 1 and not blocks and a.shape[-1] > 1:
            sizes = np.rint(np.trace(a, axis1=-2, axis2=-1).real).astype(int).ravel()
            for k, count in zip(*np.unique(sizes, return_counts=True)):
                frames[int(k)] = frames.get(int(k), 0) + int(count)
        elif len(calls) > 1:
            blocks[a.shape[-1]] = blocks.get(a.shape[-1], 0) + math.prod(a.shape[:-2])
        return eigvalsh(a, *args, **kwargs)

    np.linalg.eigvalsh = counting
    try:
        rpz_profile(measurements)
    finally:
        np.linalg.eigvalsh = eigvalsh
    return frames, blocks


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--d", type=int, help="dimension of each basis")
    parser.add_argument("--n-bases", type=int, help="number of random bases pooled")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--family", type=float, metavar="A", help="profile the family set at a = A instead")
    args = parser.parse_args()
    if args.family is not None:
        if args.d is not None or args.n_bases is not None:
            parser.error("--family takes no --d or --n-bases")
        try:
            ms = build_family(args.family)
        except ValidationError as exc:
            parser.exit(2, f"error: {exc}\n")
    else:
        if args.d is None or args.n_bases is None:
            parser.error("--d and --n-bases are required without --family")
        if args.d < 2:
            parser.error(f"--d must be at least 2, got {args.d}")
        if args.n_bases < 1:
            parser.error(f"--n-bases must be at least 1, got {args.n_bases}")
        rng = np.random.default_rng(args.seed)
        ms = [random_basis(rng, dim=args.d, label=f"R{i}") for i in range(args.n_bases)]
    n = len(ms) * ms[0].dim
    try:
        frames, blocks = count_eigvalsh(ms)
    except CapacityError as exc:
        parser.exit(2, f"error: {exc}\n")
    print(f"{'size':>4} {'subsets':>9} {'eigvalsh':>9} {'confirmed':>9}")
    for k in range(1, n + 1):
        screened = frames.get(k, 0) + frames.get(n - k, 0)
        print(f"{k:>4} {math.comb(n, k):>9} {screened:>9} {blocks.get(k, 0):>9}")
    print(f"frames sent to eigvalsh: {sum(frames.values())} of {1 << (n - 1)}")
    start = time.perf_counter()
    rpz_profile(ms)
    print(f"total: {time.perf_counter() - start:.4f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
