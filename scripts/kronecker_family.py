#!/usr/bin/env python3
"""Sweep the one-arrow two-vertex family across the stability wall.

For each t in the sweep, runs the metric flow on the representation with a
single arrow map phi and parameters tau = (-t, t).  Positive t converges to
the closed-form metric ratio t/|phi|^2; negative t diverges and the
destabilizing subobject is extracted from the limit direction.

Usage:
    python scripts/kronecker_family.py --phi 1.0 --t-min -2 --t-max 2 --steps 9
"""
import argparse
import csv
import sys

import numpy as np

import quiverforge as qf
from quiverforge.gallery import kronecker_quiver


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--phi", type=complex, default=1.0)
    ap.add_argument("--t-min", type=float, default=-2.0)
    ap.add_argument("--t-max", type=float, default=2.0)
    ap.add_argument("--steps", type=int, default=9)
    ap.add_argument("--sigma2", type=float, default=1.0)
    ap.add_argument("--out", help="CSV output path (default: stdout table)")
    args = ap.parse_args()

    quiver = kronecker_quiver(1)
    rep = qf.build_rep(
        quiver, None, {"1": 1, "2": 1}, {"a0": [np.array([[args.phi]])]}
    )
    rows = []
    # fewer than one step is the empty sweep
    for t in np.linspace(args.t_min, args.t_max, max(args.steps, 0)):
        if abs(t) < 1e-12:
            continue  # wall: tau = 0 makes the pair strictly semistable
        params = qf.StabilityParams({"1": 1.0, "2": args.sigma2}, {"1": -t, "2": t})
        report = qf.flow_solve(rep, params)
        ratio = witness_dims = slope = ""
        if report.converged:
            h = report.final_metric.h
            ratio = f"{(h['2'][0, 0] / h['1'][0, 0]).real:.10f}"
        elif report.status == "diverged":
            steps = qf.destabilizer_extract(rep, params, report)
            witness_dims = "+".join(
                f"({s.witness.dims['1']},{s.witness.dims['2']})" for s in steps
            )
            slope = f"{max(s.slope for s in steps):.6f}"
        rows.append(
            {
                "t": f"{t:.4f}",
                "status": report.status,
                "iterations": report.iterations,
                "residual": f"{report.residual_norm:.3e}",
                "metric_ratio": ratio,
                # phi = 0 splits the pair: no metric solves it at any t
                "closed_form": f"{t / abs(args.phi) ** 2:.10f}" if t > 0 and args.phi != 0 else "",
                "witness_dims": witness_dims,
                "witness_slope": slope,
            }
        )
    if not rows:
        print("empty sweep: no t other than 0 in --t-min..--t-max with --steps points", file=sys.stderr)
        return 1
    fields = list(rows[0].keys())
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        widths = {f: max(len(f), max(len(str(r[f])) for r in rows)) for f in fields}
        print("  ".join(f.ljust(widths[f]) for f in fields))
        for r in rows:
            print("  ".join(str(r[f]).ljust(widths[f]) for f in fields))
    return 0


if __name__ == "__main__":
    sys.exit(main())
