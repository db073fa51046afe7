#!/usr/bin/env python3
"""Kernel decay profiles of the two hierarchies on the default ohmic set.

Prints liou_norm(M_k)/liou_norm(M_1) for the optimal hierarchy and the same
ratio for the single-set transfer tensors, plus the first index where each
falls below the threshold.  Seeding cost grows as 4^(r-1): on one core of
a 2-vCPU Xeon the whole script takes about 1 s at r = 12 and 2 s at r = 13.
"""

import argparse

import numpy as np

from ifkernels import BathSpec, SpectralDensity, SystemSpec
from ifkernels.bath import eta_table
from ifkernels.kernels import KernelSet, compare, extract_ttm, solve_midpoint, solve_termination
from ifkernels.liouville import TimeGrid
from ifkernels.pathsum import oracle_trajectory

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rmax", type=int, default=11)
    parser.add_argument("--dt", type=float, default=0.1)
    parser.add_argument("--alpha", type=float, default=0.1)
    parser.add_argument("--omega-c", type=float, default=5.0)
    parser.add_argument("--beta", type=float, default=5.0)
    parser.add_argument("--threshold", type=float, default=1e-3)
    args = parser.parse_args()

    sys_ = SystemSpec(0.5 * PAULI_X, (1.0, -1.0))
    bath = BathSpec(SpectralDensity("ohmic_exponential", args.alpha, args.omega_c), args.beta)
    grid = TimeGrid(args.dt, args.rmax, args.rmax)
    table = eta_table(bath, grid, "sym_env")

    full, aux0, aux = oracle_trajectory(sys_, table, args.rmax)
    smatpi = KernelSet(
        "sym_env", args.dt, args.rmax, solve_midpoint(aux, aux0),
        solve_termination(full, aux, aux0), "smatpi",
        aux_zero_convention="terminal_times_I0", aux0=aux0,
    )
    ttm = KernelSet("sym_env", args.dt, args.rmax, extract_ttm(full), None, "ttm")
    report = compare(smatpi, ttm, threshold=args.threshold)

    print(f"{'k':>3} {'|M_k|/|M_1|':>14} {'|T_k|/|T_1|':>14} {'ttm rel':>14}")
    m1 = report.norms_a[0]
    t1 = report.term_norms_a[0]
    c1 = report.norms_b[0]
    for i, k in enumerate(report.ks):
        print(
            f"{k:>3} {report.norms_a[i] / m1:14.4e} "
            f"{report.term_norms_a[i] / t1:14.4e} {report.norms_b[i] / c1:14.4e}"
        )
    print(f"first below {args.threshold:g} x k=1 norm: smatpi {report.first_below_a}, "
          f"ttm {report.first_below_b}")


if __name__ == "__main__":
    main()
