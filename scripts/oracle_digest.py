#!/usr/bin/env python3
"""Digest of the stability oracle's verdicts on a fixed reference set.

Prints one line per oracle call, ``name tag hash``, where ``hash`` is the
first 12 hex digits of the SHA-1 of the ``check`` payload (tag, slope,
witness and witness slope, as ``quiverforge check`` exports them), then one
``count tag n`` line per tag.  Run it on two checkouts and diff the outputs:
a changed line is a changed tag or witness.  Standard error gets one
``oracle_cpu_s <seconds>`` line: the process CPU time summed over the
``stability_oracle`` calls, which is not deterministic and so stays out of
standard output; then ``members <n>``, the End(V)-family members the
oracle read (yielded by ``stability._endomorphism_family``), and
``complements <n>``, its calls to ``invariant_complement``.

With ``--flow`` it runs the Kempf-Ness flow instead of the oracle and prints
one line per call, ``name status stop iterations hash`` followed by one
``dims:slope`` word per step that :func:`destabilizer_extract` reads off a
diverged flow (dims in vertex order, comma separated; slope to 9 significant
digits).  ``hash`` is the first 12 hex digits of the SHA-1 of the ``flow``
payload (status, residual norm, iterations, monotone, metric and filtration,
as ``quiverforge flow`` exports them), so a change in the last bit of the
final metric changes the line.  Standard error gets ``flow_cpu_s
<seconds>``, the CPU time summed over the ``flow_solve`` and
``destabilizer_extract`` calls, and ``read_cpu_s <seconds>``, the part of
it spent reading cuts in ``filtration_steps`` (called by both, under the
names ``quiverforge.flow.filtration_steps`` and
``quiverforge.stability.filtration_steps``, which are both wrapped); then
``readings <n>``, the flows' proof readings (calls to
``flow._certifies_instability``), and ``polishes <n>``, the Gauss-Newton
roundings of a cut (calls to ``flow._polish_invariant``, extraction's
included).

The reference set, in this order:
- the benchmark's criterion-4 draws 5000-5099, twisted draws 6000-6039 and
  three-vertex draws 6500-6539 (``bench/gen.py``), each at its family's
  three sigma vectors;
- both benchmark point passes (seeds 1 and 7919);
- a sweep of 400 planted Kronecker representations from ``default_rng(11)``:
  2-4 arrows 1 -> 2, dims 1-3, every arrow map zero on the block from
  <e_1..e_a> to the span of f_(b+1), ... (so <e_1..e_a> + <f_1..f_b> is
  invariant), in a random unitary frame, tau = (-t d_2/d_1, t) with t
  normal, sigma = 1.

The script imports the library and the benchmark generator from the checkout
it lives in and writes nothing.

Usage:
    python scripts/oracle_digest.py [--limit N] [--flow] > digest.txt
"""
import argparse
import hashlib
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import gen  # noqa: E402
import quiverforge as qf  # noqa: E402
from quiverforge import flow, stability  # noqa: E402
from quiverforge import io as qio  # noqa: E402
from quiverforge.gallery import kronecker_quiver  # noqa: E402

PLANTED_SEED = 11
PLANTED_DRAWS = 400


def _family(name, base, draw, sigmas, count):
    for k in range(count):
        rep, tau = draw(base + k)
        for j, sigma in enumerate(sigmas):
            yield f"{name}-{base + k}-s{j}", rep, qf.StabilityParams(sigma, tau)


def planted_kronecker(rng):
    """One draw of the planted sweep, as (rep, params)."""
    n_arrows, d1, d2 = int(rng.integers(2, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
    a, b = int(rng.integers(1, d1 + 1)), int(rng.integers(0, d2))
    slices = {}
    for i in range(n_arrows):
        phi = rng.normal(size=(d2, d1)) + 1j * rng.normal(size=(d2, d1))
        phi[b:, :a] = 0
        slices[f"a{i}"] = [phi]
    rep = qf.build_rep(kronecker_quiver(n_arrows), None, {"1": d1, "2": d2}, slices)
    t = float(rng.normal())
    return gen.reframe(rep, rng), qf.StabilityParams({"1": 1.0, "2": 1.0}, {"1": -t * d2 / d1, "2": t})


def _point_pass(seed):
    for case in gen.point_pass(seed):
        yield f"pass{seed}-{case.name}", case.rep, case.params


def _planted_sweep():
    rng = np.random.default_rng(PLANTED_SEED)
    for k in range(PLANTED_DRAWS):
        yield f"planted-{k}", *planted_kronecker(rng)


def reference_set(limit):
    """(name, rep, params) of every call, at most ``limit`` per family."""
    families = [
        _family("criterion4", gen.CRITERION4_BASE, gen.criterion4_instance, gen.CRITERION4_SIGMAS, 100),
        _family("twisted", gen.TWISTED_BASE, gen.twisted_instance, gen.CRITERION4_SIGMAS, 40),
        _family("three-vertex", gen.THREE_VERTEX_BASE, gen.three_vertex_instance, gen.THREE_VERTEX_SIGMAS, 40),
        _point_pass(1),
        _point_pass(7919),
        _planted_sweep(),
    ]
    for family in families:
        for k, call in enumerate(family):
            if k == limit:
                break
            yield call


def check_payload(verdict) -> bytes:
    payload = {"verdict": verdict.tag, "slope": verdict.slope}
    if verdict.witness is not None:
        payload["witness"] = qio.encode_witness(verdict.witness)
        payload["witness_slope"] = verdict.witness_slope
    return qio.export_report(payload)


def flow_payload(report, steps) -> bytes:
    payload = {
        "status": report.status,
        "residual_norm": report.residual_norm,
        "iterations": report.iterations,
        "monotone": report.monotone,
        "metric": qio.encode_metric(report.final_metric),
    }
    if report.status == "diverged":
        payload["filtration"] = [
            {"witness": qio.encode_witness(st.witness), "slope": st.slope, "boundary": st.boundary} for st in steps
        ]
    return qio.export_report(payload)


def flow_line(name, rep, params) -> tuple[str, float]:
    """The ``--flow`` line of one call and the CPU time it took."""
    start = time.process_time()
    report = qf.flow_solve(rep, params)
    steps = qf.destabilizer_extract(rep, params, report) if report.status == "diverged" else []
    cpu = time.process_time() - start
    digest = hashlib.sha1(flow_payload(report, steps)).hexdigest()[:12]
    words = [name, report.status, report.stop, str(report.iterations), digest]
    for st in steps:
        dims = ",".join(str(st.witness.dim(v)) for v in rep.quiver.vertices)
        words.append(f"{dims}:{st.slope:.9g}")
    return " ".join(words), cpu


def timed_reading(cpu: list[float]) -> None:
    """Wrap ``filtration_steps`` under both names it is called by, adding
    each call's CPU time to ``cpu[0]``."""
    for owner in (flow, stability):
        read = owner.filtration_steps

        def wrapper(*args, read=read, **kwargs):
            start = time.process_time()
            try:
                return read(*args, **kwargs)
            finally:
                cpu[0] += time.process_time() - start

        owner.filtration_steps = wrapper


def counted_calls(counts: Counter, owner, names: dict[str, str]) -> None:
    """Wrap each function ``owner.<name>`` of ``names`` (label -> name),
    adding each call to ``counts[label]``."""
    for label, name in names.items():
        call = getattr(owner, name)

        def wrapper(*args, call=call, label=label, **kwargs):
            counts[label] += 1
            return call(*args, **kwargs)

        setattr(owner, name, wrapper)


def counted_members(counts: Counter) -> None:
    """Wrap ``stability._endomorphism_family``, adding each member it yields
    to ``counts["members"]``."""
    family = stability._endomorphism_family

    def wrapper(*args, **kwargs):
        for w in family(*args, **kwargs):
            counts["members"] += 1
            yield w

    stability._endomorphism_family = wrapper


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--limit", type=int, default=None, help="at most this many calls per family")
    ap.add_argument("--flow", action="store_true", help="digest the Kempf-Ness flow, not the oracle")
    args = ap.parse_args()
    if args.limit is not None and args.limit < 1:
        print("--limit must be a positive integer", file=sys.stderr)
        return 1
    if args.flow:
        cpu, read, counts = 0.0, [0.0], Counter()
        timed_reading(read)
        counted_calls(counts, flow, {"readings": "_certifies_instability", "polishes": "_polish_invariant"})
        for call in reference_set(args.limit):
            line, seconds = flow_line(*call)
            cpu += seconds
            print(line)
        print("flow_cpu_s", f"{cpu:.3f}", file=sys.stderr)
        print("read_cpu_s", f"{read[0]:.3f}", file=sys.stderr)
        print("readings", counts["readings"], file=sys.stderr)
        print("polishes", counts["polishes"], file=sys.stderr)
        return 0
    tags, counts = Counter(), Counter()
    counted_members(counts)
    counted_calls(counts, stability, {"complements": "invariant_complement"})
    cpu = 0.0
    for name, rep, params in reference_set(args.limit):
        start = time.process_time()
        verdict = qf.stability_oracle(rep, params, qf.OracleOptions(seed=0))
        cpu += time.process_time() - start
        tags[verdict.tag] += 1
        print(name, verdict.tag, hashlib.sha1(check_payload(verdict)).hexdigest()[:12])
    for tag in sorted(tags):
        print("count", tag, tags[tag])
    print("oracle_cpu_s", f"{cpu:.3f}", file=sys.stderr)
    print("members", counts["members"], file=sys.stderr)
    print("complements", counts["complements"], file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
