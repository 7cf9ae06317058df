"""Independent cross-checks against exhaustive subobject enumeration.

For representations with every vertex dimension <= 1, the invariant
subobjects are exactly the vertex subsets closed under the nonzero arrow
maps, so stability is decidable by brute force over all 2^V subsets.  So is
polystability: the only complement of a subset's subobject is the
complementary subset.  The enumeration oracle, the flow classifier and the
vortex solver's solvability test must all agree with it.
"""
import itertools

import numpy as np

import pytest

import quiverforge as qf
from conftest import random_onedim_instance
from quiverforge import flow, stability, torus
from quiverforge.errors import NewtonStall
from quiverforge.slope import SLOPE_TOL


def closed_subsets(rep):
    """Proper nonempty vertex subsets closed under the nonzero arrows: the
    proper subobjects of a representation with every dimension 1."""
    verts = list(rep.quiver.vertices)
    nonzero = [
        a
        for a in rep.quiver.arrows
        if any(np.abs(s).max() > 0 for s in rep.slices[a.name])
    ]
    return [
        set(subset)
        for r in range(1, len(verts))
        for subset in itertools.combinations(verts, r)
        if not any(a.tail in subset and a.head not in subset for a in nonzero)
    ]


def brute_force_verdict(rep, params, tol=1e-9):
    """stable / unstable / polystable / strictly-semistable by subset
    enumeration: polystable when every closed subset of equal slope has a
    closed complement."""
    closed = closed_subsets(rep)
    _, mu = qf.degree_and_slope(rep, params)
    best_slope = -np.inf
    equal = False
    splits = True
    for S in closed:
        dd = qf.DegreeData({v: 0.0 for v in S}, {v: 1 for v in S})
        _, mu_s = qf.degree_and_slope(dd, params)
        best_slope = max(best_slope, mu_s)
        if abs(mu_s - mu) <= tol:
            equal = True
            splits &= set(rep.quiver.vertices) - S in closed
    if best_slope > mu + tol:
        return "unstable"
    if equal:
        return "polystable" if splits else "strictly-semistable"
    return "stable"


FLOW_STATUS = {
    "stable": "converged",
    "polystable": "converged",
    "unstable": "diverged",
    "strictly-semistable": "diverged",
}


def test_oracle_matches_exhaustive_enumeration():
    checked = 0
    for trial in range(60):
        inst = random_onedim_instance(20000 + trial)
        if inst is None:
            continue
        rep, params = inst
        want = brute_force_verdict(rep, params)
        got = qf.stability_oracle(rep, params, qf.OracleOptions(seed=0, n_random=60)).tag
        assert got == want, (trial, want, got)
        checked += 1
    assert checked >= 40


def test_coordinate_family_is_the_closed_subsets():
    # on one-dimensional vertices each closed subset S is its own closure
    # and its own largest invariant subobject, and every closure and
    # largest invariant subobject is a closed subset
    checked = 0
    draws = [random_onedim_instance(seed) for seed in range(20000, 20060)]
    draws += [random_onedim_instance(seed, integer_tau=True) for seed in range(30000, 30200)]
    for inst in filter(None, draws):
        rep, _ = inst
        verts = rep.quiver.vertices
        got = {
            tuple(w.dims[v] for v in verts)
            for w in stability._coordinate_family(rep)
            if 0 < w.total_dim < rep.total_dim
        }
        assert got == {tuple(int(v in s) for v in verts) for s in closed_subsets(rep)}
        checked += 1
    assert checked == 225


def test_flow_matches_exhaustive_enumeration():
    checked = 0
    for trial in range(40):
        inst = random_onedim_instance(20000 + trial)
        if inst is None:
            continue
        rep, params = inst
        want = brute_force_verdict(rep, params)
        report = qf.flow_solve(rep, params)
        assert report.status == FLOW_STATUS[want], (trial, want, report.status)
        checked += 1
    assert checked >= 20


def test_equal_slope_family_matches_exhaustive_enumeration():
    # integral tau makes equal-slope subsets common: the flow must prove
    # every strictly semistable draw (no invariant complement) instead of
    # running out its budget, and the oracle must tell polystable from
    # strictly semistable by splitting, not by orthogonality
    tags = []
    for seed in range(30000, 30200):
        inst = random_onedim_instance(seed, integer_tau=True)
        if inst is None:
            continue
        rep, params = inst
        want = brute_force_verdict(rep, params)
        got = qf.stability_oracle(rep, params, qf.OracleOptions(seed=0, n_random=60)).tag
        assert got == want, (seed, want, got)
        report = qf.flow_solve(rep, params)
        assert report.status == FLOW_STATUS[want], (seed, want, report.status, report.stop)
        tags.append(want)
    assert len(tags) == 171
    assert tags.count("strictly-semistable") == 27 and tags.count("polystable") == 4


def test_moment_weight_bound_holds_on_closed_subsets():
    # every destabilizing closed subset S is an invariant subobject, so at
    # every metric tr(m pi_S) = deg(S) + |phi_perp|^2 and the residual is at
    # least delta(S) = deg(S) sqrt(n / (|S| (n - |S|))); the flow's delta is
    # the brute-force minimum over all destabilizing subsets
    checked = 0
    for seed in range(30000, 30200):
        inst = random_onedim_instance(seed, integer_tau=True)
        if inst is None:
            continue
        rep, params = inst
        verts, n = rep.quiver.vertices, rep.total_dim
        _, mu = qf.degree_and_slope(rep, params)

        def bound(S):
            deg = -sum(params.tau[v] for v in S)
            return deg, deg * np.sqrt(n / (len(S) * (n - len(S))))

        def slope(S):
            return qf.degree_and_slope(qf.DegreeData({v: 0.0 for v in S}, {v: 1 for v in S}), params)[1]

        subsets = [set(c) for r in range(1, n) for c in itertools.combinations(verts, r)]
        delta, tied = flow._semistability_bound(rep, params, mu)
        want = min((bound(S)[1] for S in subsets if slope(S) > mu + SLOPE_TOL), default=np.inf)
        assert delta == pytest.approx(want, rel=1e-12), seed
        assert tied == any(abs(slope(S) - mu) <= SLOPE_TOL for S in subsets), seed
        destab = [S for S in closed_subsets(rep) if slope(S) > mu + SLOPE_TOL]
        rng = np.random.default_rng(seed)
        for _ in range(20 if destab else 0):
            metric = qf.MetricState({v: np.exp(rng.normal(scale=2.0, size=(1, 1))) for v in verts})
            m = qf.moment_map_residual(rep, metric, params)
            residual = qf.residual_norm_h(rep, metric, m)
            for S in destab:
                deg, delta_s = bound(S)
                assert residual >= delta_s * (1 - 1e-12), (seed, S)
                perp = {
                    a.name: [sl if a.head in S and a.tail not in S else 0 * sl for sl in rep.slices[a.name]]
                    for a in rep.quiver.arrows
                }
                leak = qf.phi_norm_sq(qf.TwistedRep(rep.quiver, rep.twist, rep.dims, perp), metric)
                trace = sum(float(np.real(m[v][0, 0])) for v in S)
                assert trace == pytest.approx(deg + leak, rel=1e-9, abs=1e-9), (seed, S)
            checked += 1
    assert checked == 20 * 74  # the unstable draws


def onedim_torus_draws():
    """The one-dimensional draws of the oracle tests, with their brute-force
    tags, lifted to degree-zero torus systems with constant weights
    w_a = |phi_a|^2 (zero slices give zero weights: the split case)."""
    draws = [(seed, {}) for seed in range(20000, 20060)]
    draws += [(seed, {"integer_tau": True}) for seed in range(30000, 30200)]
    for seed, kwargs in draws:
        inst = random_onedim_instance(seed, **kwargs)
        if inst is None:
            continue
        rep, params = inst
        weights = {name: float(abs(s[0][0, 0]) ** 2) for name, s in rep.slices.items()}
        degrees = dict.fromkeys(rep.quiver.vertices, 0)
        system = qf.build_torus_system(rep.quiver, degrees, weights, params, 16)
        yield seed, brute_force_verdict(rep, params), system


def test_vortex_solvability_test_matches_exhaustive_enumeration():
    # by the correspondence, the torus system has a solution exactly when
    # the point-scale object is polystable
    tags = []
    for seed, want, system in onedim_torus_draws():
        witness = torus._unsolvable_subset(system)
        unsolvable = want in ("unstable", "strictly-semistable")
        assert (witness is not None) == unsolvable, (seed, want, witness)
        if unsolvable:
            with pytest.raises(NewtonStall) as info:
                qf.solve_vortex(system)
            assert len(info.value.history) == 1
        else:
            result = qf.solve_vortex(system)
            residual = qf.vortex_residual(system, result.state)
            assert max(float(np.abs(r).max()) for r in residual.values()) <= 1e-8, seed
        tags.append(want)
    counts = {tag: tags.count(tag) for tag in FLOW_STATUS}
    assert counts == {"stable": 88, "polystable": 4, "unstable": 106, "strictly-semistable": 27}
