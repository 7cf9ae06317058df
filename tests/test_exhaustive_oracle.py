"""Independent cross-checks against exhaustive subobject enumeration.

For representations with every vertex dimension <= 1, the invariant
subobjects are exactly the vertex subsets closed under the nonzero arrow
maps, so stability is decidable by brute force over all 2^V subsets.  So is
polystability: the only complement of a subset's subobject is the
complementary subset.  Both the enumeration oracle and the flow classifier
must agree with it.
"""
import itertools

import numpy as np

import quiverforge as qf


def random_onedim_instance(seed, integer_tau=False):
    """Random one-dimensional representation on 2-4 vertices.  With
    ``integer_tau`` every slice is nonzero and tau is integral, which makes
    subsets of equal slope common."""
    rng = np.random.default_rng(seed)
    nv = int(rng.integers(2, 5))
    verts = [str(i) for i in range(nv)]
    arrows = []
    for i in range(nv):
        for j in range(nv):
            if i != j and rng.random() < 0.4:
                arrows.append((f"a{i}{j}", str(i), str(j)))
    if not arrows:
        return None
    q = qf.Quiver.from_lists(verts, arrows)
    slices = {}
    for name, _, _ in arrows:
        val = rng.normal() + 1j * rng.normal() if integer_tau or rng.random() < 0.8 else 0.0
        slices[name] = [np.array([[val]])]
    rep = qf.build_rep(q, None, {v: 1 for v in verts}, slices)
    if integer_tau:
        taus = [float(t) for t in rng.integers(-2, 3, size=nv - 1)]
        taus.append(-sum(taus))
    else:
        taus = rng.normal(size=nv)
        taus -= taus.mean()
    params = qf.StabilityParams(
        {v: 1.0 for v in verts}, {v: float(t) for v, t in zip(verts, taus)}
    )
    return rep, params


def brute_force_verdict(rep, params, tol=1e-9):
    """stable / unstable / polystable / strictly-semistable by subset
    enumeration: polystable when every closed subset of equal slope has a
    closed complement."""
    verts = list(rep.quiver.vertices)
    nonzero = [
        a
        for a in rep.quiver.arrows
        if any(np.abs(s).max() > 0 for s in rep.slices[a.name])
    ]

    def closed(S):
        return not any(a.tail in S and a.head not in S for a in nonzero)

    _, mu = qf.degree_and_slope(rep, params)
    best_slope = -np.inf
    equal = False
    splits = True
    for r in range(1, len(verts)):
        for subset in itertools.combinations(verts, r):
            S = set(subset)
            if not closed(S):
                continue
            dd = qf.DegreeData({v: 0.0 for v in S}, {v: 1 for v in S})
            _, mu_s = qf.degree_and_slope(dd, params)
            best_slope = max(best_slope, mu_s)
            if abs(mu_s - mu) <= tol:
                equal = True
                splits &= closed(set(verts) - S)
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
