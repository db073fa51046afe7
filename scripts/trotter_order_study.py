#!/usr/bin/env python3
"""Discretization-order study of the three splittings at fixed total time.

Uses a smooth compactly supported correlation function so every memory
kernel vanishes exactly beyond a known separation; truncated propagation is
then exact and the error ratios isolate the Trotter orders.  The reference
is the Richardson limit of the two finest half-step-dressed (sym_sys) runs.

Expected pattern: the uniform-window symmetric splitting converges at
second order (error ratio ~4 per halving of dt); the asymmetric splitting
at first order (~2); the centered-window splitting differs from the
uniform-window one at first order because its initial path point keeps the
full centered window.
"""

import argparse

import numpy as np

from ifkernels import SystemSpec
from ifkernels.bath import bump_correlation, eta_table_from_correlation
from ifkernels.kernels import extract_kernels, propagate_blocks
from ifkernels.liouville import TimeGrid, fb_propagator, liou_norm

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def final_map(sys_, corr, support, splitting, dt, t_total):
    n = round(t_total / dt)
    r = min(n, int(support / dt) + 4)
    table = eta_table_from_correlation(corr, TimeGrid(dt, r, r), splitting)
    kset, _, _ = extract_kernels(sys_, table, r, "smatpi")
    g_half = fb_propagator(sys_, dt / 2) if splitting == "sym_sys" else None
    *_, last = propagate_blocks(kset, n, g_half=g_half)  # blocks of U_k, the last ending at U_n
    return last[-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--t-total", type=float, default=1.6)
    parser.add_argument("--support", type=float, default=0.2)
    parser.add_argument("--re-amp", type=float, default=2.0)
    parser.add_argument("--im-amp", type=float, default=1.0)
    args = parser.parse_args()

    sys_ = SystemSpec(0.5 * PAULI_X, (1.0, -1.0))
    corr = bump_correlation(args.re_amp, args.im_amp, args.support)
    dts = (0.2, 0.1, 0.05)

    maps = {
        (s, dt): final_map(sys_, corr, args.support, s, dt, args.t_total)
        for s in ("sym_env", "sym_sys", "asym")
        for dt in dts
    }
    ref = (4.0 * maps[("sym_sys", 0.05)] - maps[("sym_sys", 0.1)]) / 3.0

    print(f"total time {args.t_total}, dt in {dts}")
    print(f"{'quantity':<22} {'err(0.2)':>12} {'err(0.1)':>12} {'err(0.05)':>12} {'ratios':>14}")
    for s in ("sym_env", "sym_sys", "asym"):
        e = [liou_norm(maps[(s, dt)] - ref) for dt in dts]
        print(
            f"{s + ' vs ref':<22} {e[0]:12.4e} {e[1]:12.4e} {e[2]:12.4e}"
            f"   {e[0] / e[1]:5.2f} {e[1] / e[2]:5.2f}"
        )
    d = [liou_norm(maps[("sym_env", dt)] - maps[("sym_sys", dt)]) for dt in dts]
    print(
        f"{'sym_env vs sym_sys':<22} {d[0]:12.4e} {d[1]:12.4e} {d[2]:12.4e}"
        f"   {d[0] / d[1]:5.2f} {d[1] / d[2]:5.2f}"
    )


if __name__ == "__main__":
    main()
