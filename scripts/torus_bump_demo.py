#!/usr/bin/env python3
"""Solve the two-vertex vortex system on the torus with a bump weight.

Solves at a coarse and a fine resolution, prints the Newton history, the
Newton steps and CG iterations of each grid the fine solve went through and
the coarse/fine agreement, and cross-checks the flat-case shortcut on the
constant-weight version of the same system.

Usage:
    python scripts/torus_bump_demo.py --t 1.5 --n 64 --out u.qvtx
"""
import argparse
import sys

import numpy as np

import quiverforge as qf
from quiverforge.gallery import kronecker_quiver
from quiverforge.io import write_potential_binary


def build(t, n, weight):
    quiver = kronecker_quiver(1)
    params = qf.StabilityParams({"1": 1.0, "2": 1.0}, {"1": -t, "2": t})
    return qf.build_torus_system(quiver, {"1": 0, "2": 0}, {"a0": weight}, params, n)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--t", type=float, default=1.5)
    ap.add_argument("--n", type=int, default=64)
    ap.add_argument("--amplitude", type=float, default=1.0)
    ap.add_argument("--width", type=float, default=0.4)
    ap.add_argument("--floor", type=float, default=0.05)
    ap.add_argument("--out", help="write the fine-grid potentials as QVTX1")
    args = ap.parse_args()

    bump = qf.WeightSpec(
        "bump", amplitude=args.amplitude, width=args.width, center=(0.3, 0.6), floor=args.floor
    )
    coarse = build(args.t, args.n, bump)
    fine = build(args.t, 2 * args.n, bump)

    rc = qf.solve_vortex(coarse)
    print(f"coarse {args.n}x{args.n}: {rc.iterations} Newton steps")
    for it, sup, damping in rc.history:
        print(f"  it {it:2d}  sup residual {sup:.3e}  damping {damping:g}")
    rf = qf.solve_vortex(fine)
    diff = max(
        np.abs(rf.state.u[v][::2, ::2] - rc.state.u[v]).max() for v in ("1", "2")
    )
    # a fine grid above COARSE_N starts from the solve on the grid of half its size
    levels = ", ".join(f"{n}x{n} {steps}" for n, steps in rf.levels)
    cg = ", ".join(f"{n}x{n} {iters}" for (n, _), iters in zip(rf.levels, rf.cg_iterations))
    print(
        f"fine {2*args.n}x{2*args.n}: {rf.iterations} steps (Newton steps per grid: {levels}; "
        f"CG iterations per grid: {cg}); coarse/fine sup diff {diff:.3e}"
    )

    flat = build(args.t, args.n, args.amplitude * np.exp(-2.0 / args.width**2) + args.floor)
    fc = qf.flat_case_reduce(flat)
    print(
        f"flat-case cross-check (constant weight): point/grid sup diff {fc.sup_difference:.3e}"
    )
    if args.out:
        write_potential_binary(args.out, rf.state, sorted(fine.quiver.vertices))
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
