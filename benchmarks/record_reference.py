#!/usr/bin/env python3
"""Write reference.json: the answers the benchmark checks against.

It holds the SHA-256 of the ``family_sweep`` CSV and, for every
``pool_scaling`` case, the recorded pool (Haar-random bases from a fixed
seed) with the profile or bound the library gave for it.  Rerun only when
a change is meant to alter those answers:

    python3 benchmarks/record_reference.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

POOL_SEED = 20140515


def main() -> int:
    from run import BLAS_PIN, SRC

    os.environ.update(BLAS_PIN)
    sys.path.insert(0, str(SRC))
    import numpy as np

    from eurkit.cli import sweep_csv
    from eurkit.family import sweep
    from eurkit.linalg import DensityOperator, ProjectiveMeasurement
    from workloads import KERNELS, LADDER, REFERENCE_PATH, FamilySweep, case_name, check_sizes, haar_unitary

    check_sizes(LADDER)
    csv = sweep_csv(sweep(FamilySweep().generate(0)))
    rng = np.random.default_rng(POOL_SEED)
    pool = {}
    for kernel, d, n in LADDER:
        bases = [haar_unitary(rng, d).T for _ in range(n)]
        ms = [ProjectiveMeasurement(b, f"M{j + 1}") for j, b in enumerate(bases)]
        if kernel == "rpz_profile":
            value = list(KERNELS[kernel](ms).s_coeffs)
        else:
            value = KERNELS[kernel](ms, DensityOperator.from_ket(np.eye(d)[0]))
        pool[case_name(kernel, d, n)] = {
            "bases": [[[[z.real, z.imag] for z in ket] for ket in b] for b in bases],
            "value": value,
        }
    reference = {"sweep_csv_sha256": hashlib.sha256(csv.encode("utf-8")).hexdigest(), "pool": pool}
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
