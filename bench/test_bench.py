"""Tests of the benchmark itself: the traced counts reproduce the ROADMAP
baseline and repeat exactly, the generators are deterministic per seed, and
a derivation that stops holding fails instead of reporting.

    PYTHONPATH=src python -m pytest -q bench
"""
import hashlib
import json
import os

import numpy as np
import pytest

import quiverforge as qf
from quiverforge.gallery import kronecker_quiver

import gen
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)
with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
COUNT_UNITS = {"count", "count/iter", "count/call", "count/step", "B"}
COUNTS = {m["name"] for m in BENCHMARK["per_layer"] if m["unit"] in COUNT_UNITS}


def traced(fn):
    """Run ``fn`` as one traced operation; returns (result, tracer)."""
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        with tracer.op("test"):
            result = fn()
    finally:
        tracer.uninstall()
    return result, tracer


def seed5065():
    rep, tau = gen.criterion4_instance(5065)
    return rep, qf.StabilityParams(gen.CRITERION4_SIGMAS[0], tau)


def bump_n64():
    spec = qf.WeightSpec("bump", amplitude=1.0, width=0.4, center=(0.3, 0.6), floor=0.05)
    params = qf.StabilityParams({"1": 1.0, "2": 1.0}, {"1": -1.5, "2": 1.5})
    return qf.build_torus_system(kronecker_quiver(1), {"1": 0, "2": 0}, {"a0": spec}, params, 64)


def newton_counts(tracer):
    """Newton-level counts of the one solve_vortex span in ``tracer``."""
    (solve,) = [s for s in tracer.spans if s[spans.NAME] == "torus.solve_vortex"]
    index = tracer.spans.index(solve)

    def under_solve(span):
        p = span[spans.PARENT]
        while p >= 0 and p != index:
            p = tracer.spans[p][spans.PARENT]
        return p == index

    laps = sum(1 for s in tracer.spans if s[spans.NAME] == "torus.lap" and under_solve(s))
    vertices, dampings = solve[spans.EXTRA]
    return spans.torus_counts(vertices, dampings, laps)


# ---------------------------------------------------------------------------
# ROADMAP baseline counts


def test_seed_5065_flow_counts():
    rep, params = seed5065()
    report, tracer = traced(lambda: qf.flow_solve(rep, params))
    m = spans.layer_metrics(tracer, 1)
    assert report.status == "diverged"
    assert m["flow.iters"] == 2169
    assert m["linalg.eigh_calls"] == 13152
    assert m["linalg.inv_calls"] == 17582


def test_seed_5065_oracle_closures():
    rep, params = seed5065()
    _, tracer = traced(lambda: qf.stability_oracle(rep, params, qf.OracleOptions(seed=0)))
    assert spans.layer_metrics(tracer, 1)["stability.closures_per_call"] == 278


def test_bump_n64_newton_and_cg_counts():
    system = bump_n64()
    _, tracer = traced(lambda: qf.solve_vortex(system))
    counts = newton_counts(tracer)
    assert counts["newton_steps"] == 11
    assert counts["cg_iters"] == 73


def test_const_system_takes_one_cg_iteration_per_step():
    case = next(c for c in gen.torus_round(1) if c.name == "const_n256")
    _, tracer = traced(lambda: qf.solve_vortex(case.system))
    counts = newton_counts(tracer)
    assert counts["damped_steps"] == 0
    assert counts["cg_iters"] == counts["newton_steps"]


# ---------------------------------------------------------------------------
# counts repeat exactly across traced runs


def traced_pass_counts(workload, seed, keep=None, root=ROOT):
    workload.setup(seed, root)
    if keep is not None:
        workload.cases = keep(workload.cases)
    tracer = spans.Tracer()
    rec = workloads.Recorder(tracer)
    spans.install(tracer)
    try:
        workload.run_pass(rec)
    finally:
        tracer.uninstall()
        getattr(workload, "cleanup", lambda: None)()
    assert rec.failures == []
    m = spans.layer_metrics(tracer, 1)
    return {k: m[k] for k in COUNTS if k in m}


@pytest.mark.parametrize(
    "workload, keep",
    [
        (workloads.PointSweep, lambda cases: cases[1:7] + cases[20:]),
        (workloads.TorusSolve, lambda cases: [c for c in cases if c.name != "kron_n512"]),
        (workloads.CliBatch, None),
    ],
    ids=["point-sweep", "torus-solve", "cli-batch"],
)
def test_counts_repeat_exactly(workload, keep, tmp_path):
    root = str(tmp_path)
    os.symlink(os.path.join(ROOT, "instances"), os.path.join(root, "instances"))
    first = traced_pass_counts(workload(), 3, keep, root)
    second = traced_pass_counts(workload(), 3, keep, root)
    assert first == second
    assert any(first.values())


def test_every_per_layer_metric_is_reported():
    tracer = spans.Tracer()
    names = set(spans.layer_metrics(tracer, 1)) | {"trace.overhead_pct"}
    assert names == {m["name"] for m in BENCHMARK["per_layer"]}


# ---------------------------------------------------------------------------
# seeds


def _digest_point(cases):
    h = hashlib.sha256()
    for c in cases:
        h.update(c.name.encode())
        for a in sorted(c.rep.slices):
            for s in c.rep.slices[a]:
                h.update(np.ascontiguousarray(s).tobytes())
        h.update(json.dumps([dict(c.params.sigma), dict(c.params.tau)], sort_keys=True).encode())
    return h.hexdigest()


def _digest_torus(cases):
    h = hashlib.sha256()
    for c in cases:
        h.update(c.name.encode())
        for a in sorted(c.system.weights):
            h.update(c.system.weights[a].tobytes())
        h.update(json.dumps([dict(c.system.params.sigma), dict(c.system.params.tau)], sort_keys=True).encode())
        for field in (c.state.u if c.state else {}), (c.phi or {}):
            for k in sorted(field):
                h.update(np.ascontiguousarray(field[k]).tobytes())
    return h.hexdigest()


def _digest_cli(seed, tmp_path):
    workdir = tmp_path / f"seed{seed}"
    workdir.mkdir(parents=True)
    entries = gen.cli_manifests(seed, str(workdir), "instances")
    h = hashlib.sha256()
    for path in sorted(workdir.iterdir()):
        h.update(path.name.encode() + path.read_bytes().replace(str(workdir).encode(), b""))
    mix = {c: [(e.code, e.key, e.expected) for e in items] for c, items in entries.items()}
    return h.hexdigest(), mix


def test_same_seed_same_inputs_other_seed_same_mix(tmp_path):
    seeds = SPEC["seeds"]
    default, held_out = seeds["default"], seeds["held_out"]
    assert default != held_out

    a, b, c = gen.point_pass(default), gen.point_pass(default), gen.point_pass(held_out)
    assert _digest_point(a) == _digest_point(b) != _digest_point(c)
    assert [(x.name, dict(x.rep.dims)) for x in a] == [(x.name, dict(x.rep.dims)) for x in c]

    a, b, c = gen.torus_round(default), gen.torus_round(default), gen.torus_round(held_out)
    assert _digest_torus(a) == _digest_torus(b) != _digest_torus(c)
    assert [(x.name, x.system.grid.n) for x in a] == [(x.name, x.system.grid.n) for x in c]

    (da, mixa), (db, _) = _digest_cli(default, tmp_path / "a"), _digest_cli(default, tmp_path / "b")
    (dc, mixc) = _digest_cli(held_out, tmp_path / "c")
    assert da == db != dc
    assert mixa == mixc


# ---------------------------------------------------------------------------
# derivations fail loudly


@pytest.mark.parametrize(
    "vertices, dampings, laps",
    [
        (2, [0.3], 100),  # damping not a power of 1/2
        (2, [1.0], 101),  # Laplacian calls do not split over the vertices
        (2, [0.5, 1.0], 6),  # fewer calls than residual evaluations
    ],
)
def test_broken_derivation_raises(vertices, dampings, laps):
    with pytest.raises(spans.DerivationError):
        spans.torus_counts(vertices, dampings, laps)
