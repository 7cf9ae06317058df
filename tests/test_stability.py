import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quiverforge as qf
from quiverforge.errors import (
    InadmissibleParameters,
    NonpositiveScale,
    NoSeparation,
    NotASolution,
    NotDivergent,
    ZeroTotalRank,
)
from quiverforge._linalg import eigh_checked, herm, orthonormal_columns
from quiverforge.flow import FlowReport, MetricState
from quiverforge import stability
from quiverforge.gallery import kronecker_quiver
from quiverforge.reps import invariant_closure, witness_intersection, witness_sum
from conftest import (
    jordan_params,
    jordan_rep,
    kronecker_params,
    kronecker_rep,
    random_onedim_instance,
    random_two_vertex_instance,
    two_arrow_kron_rep,
)


# ---------------------------------------------------------------------------
# degree and slope


def test_point_scale_slope():
    rep = kronecker_rep()
    params = kronecker_params(t=1.0)
    deg, mu = qf.degree_and_slope(rep, params)
    assert deg == 0.0 and mu == 0.0


def test_degree_hand_arithmetic():
    dd = qf.DegreeData({"1": 2.0, "2": 0.0}, {"1": 1, "2": 1})
    params = qf.StabilityParams({"1": 1.0, "2": 1.0}, {"1": 1.0, "2": 1.0})
    deg, mu = qf.degree_and_slope(dd, params)
    assert deg == pytest.approx(0.0)
    assert mu == pytest.approx(0.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.floats(-3, 3))
def test_slope_shift_under_tau_translation(seed, d):
    rng = np.random.default_rng(seed)
    ranks = {"1": int(rng.integers(1, 5)), "2": int(rng.integers(1, 5))}
    dd = qf.DegreeData({"1": float(rng.normal()), "2": float(rng.normal())}, ranks)
    sigma = {"1": float(rng.uniform(0.5, 3)), "2": float(rng.uniform(0.5, 3))}
    tau = {"1": float(rng.normal()), "2": float(rng.normal())}
    params = qf.StabilityParams(sigma, tau)
    shifted = qf.StabilityParams(sigma, {v: tau[v] + d * sigma[v] for v in tau})
    _, mu = qf.degree_and_slope(dd, params)
    _, mu_shift = qf.degree_and_slope(dd, shifted)
    assert mu_shift == pytest.approx(mu - d, abs=1e-12 * (1 + abs(mu)))


def test_zero_total_rank():
    dd = qf.DegreeData({}, {})
    with pytest.raises(ZeroTotalRank):
        qf.degree_and_slope(dd, qf.StabilityParams({}, {}))


# ---------------------------------------------------------------------------
# admissibility


def test_admissibility_point_scale():
    rep = kronecker_rep()
    assert qf.admissibility(rep, kronecker_params(t=2.0))
    assert not qf.admissibility(rep, qf.StabilityParams({"1": 1, "2": 1}, {"1": 1.0, "2": 1.0}))


@pytest.mark.parametrize(
    "sigma, tau",
    [
        ({"1": 1.0, "2": 1.0}, {"1": float("nan"), "2": 0.0}),
        ({"1": 1.0, "2": 1.0}, {"1": float("inf"), "2": float("-inf")}),
        ({"1": float("inf"), "2": 1.0}, {"1": -1.0, "2": 1.0}),
        ({"1": float("nan"), "2": 1.0}, {"1": -1.0, "2": 1.0}),
    ],
)
def test_params_reject_non_finite(sigma, tau):
    # every comparison with NaN is False, so a non-finite parameter would
    # pass the sign and admissibility tests and get classified
    with pytest.raises(InadmissibleParameters):
        qf.StabilityParams(sigma, tau)


def test_admissibility_torus_degrees_telescope():
    for t in (0.0, 0.5, -3.0):
        dd = qf.DegreeData({"1": 0.0, "2": 0.0}, {"1": 1, "2": 1})
        params = qf.StabilityParams({"1": 1.0, "2": 1.0}, {"1": -t, "2": t})
        assert qf.admissibility(dd, params)


# ---------------------------------------------------------------------------
# reparameterization


def test_reparameterize_identity():
    params = kronecker_params(t=1.0)
    new, factor = qf.reparameterize(params, 1.0, 0.0)
    assert factor == 1.0
    assert new.sigma == params.sigma and new.tau == params.tau


def test_reparameterize_rescale_factor():
    params = kronecker_params(t=1.0)
    _, factor = qf.reparameterize(params, 4.0, 0.0)
    assert factor == pytest.approx(2.0)


def test_reparameterize_slope_shift():
    rep = kronecker_rep()
    params = kronecker_params(t=1.0)  # slope 0
    new, _ = qf.reparameterize(params, 1.0, 2.0)
    _, mu = qf.degree_and_slope(rep, new)
    assert mu == pytest.approx(-2.0)


def test_reparameterize_rejects_nonpositive_scale():
    with pytest.raises(NonpositiveScale):
        qf.reparameterize(kronecker_params(), -1.0, 0.0)


@pytest.mark.parametrize(
    "options",
    # a float count or seed raised TypeError inside the oracle, and a
    # negative count silently meant 0
    [dict(n_random=2.5), dict(n_random=-3), dict(n_random=True), dict(seed=2.5)],
    ids=["n-random-float", "n-random-negative", "n-random-bool", "seed-float"],
)
def test_oracle_options_refuse_non_counts(options):
    with pytest.raises(NonpositiveScale):
        qf.OracleOptions(**options)


def test_reparameterize_global_scale_preserves_verdict():
    rep = kronecker_rep(phi=1.0)
    params = kronecker_params(t=1.0)
    base = qf.stability_oracle(rep, params, qf.OracleOptions(seed=0, n_random=40))
    scaled, factor = qf.reparameterize(params, 3.0, 0.0)
    scaled_rep = qf.build_rep(
        rep.quiver, rep.twist, rep.dims,
        {a.name: [factor * s for s in rep.slices[a.name]] for a in rep.quiver.arrows},
    )
    again = qf.stability_oracle(scaled_rep, scaled, qf.OracleOptions(seed=0, n_random=40))
    assert base.tag == again.tag


# ---------------------------------------------------------------------------
# the oracle


def test_oracle_kronecker_stable():
    rep = kronecker_rep(phi=1.0)
    v = qf.stability_oracle(rep, kronecker_params(t=1.0))
    assert v.tag == "stable"
    assert v.certificate_source == "oracle-enumeration"


def test_oracle_kronecker_unstable_with_witness():
    rep = kronecker_rep(phi=1.0)
    params = qf.StabilityParams({"1": 1.0, "2": 1.0}, {"1": 1.0, "2": -1.0})
    v = qf.stability_oracle(rep, params)
    assert v.tag == "unstable"
    assert v.witness is not None and v.witness.dims == {"1": 0, "2": 1}
    assert v.witness_slope == pytest.approx(1.0)
    assert v.witness_slope > v.slope


def test_oracle_direct_sum_polystable():
    r1 = two_arrow_kron_rep((1.0, 0.0))
    r2 = two_arrow_kron_rep((0.0, 1.0))
    summed = qf.direct_sum(r1, r2)
    v = qf.stability_oracle(summed, kronecker_params(t=1.0))
    assert v.tag == "polystable"


def test_oracle_polystable_in_a_general_frame():
    # the summands of a polystable sum are not orthogonal after a GL change
    # of basis at each vertex; the splitting is found anyway
    summed = qf.direct_sum(two_arrow_kron_rep((1.0, 0.0)), two_arrow_kron_rep((0.0, 1.0)))
    params = kronecker_params(t=1.0)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        g = {v: rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for v in ("1", "2")}
        rep = qf.build_rep(
            summed.quiver, None, summed.dims,
            {
                a.name: [g[a.head] @ sl @ np.linalg.inv(g[a.tail]) for sl in summed.slices[a.name]]
                for a in summed.quiver.arrows
            },
        )
        assert qf.stability_oracle(rep, params).tag == "polystable", seed


def test_oracle_jordan_strictly_semistable():
    v = qf.stability_oracle(jordan_rep(), jordan_params())
    assert v.tag == "strictly-semistable"


def test_oracle_undecided_beyond_envelope():
    rng = np.random.default_rng(0)
    q = kronecker_quiver(1)
    d = 5
    rep = qf.build_rep(
        q, None, {"1": d, "2": d},
        {"a0": [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))]},
    )
    params = qf.StabilityParams({"1": 1.0, "2": 1.0}, {"1": -1.0, "2": 1.0})
    v = qf.stability_oracle(rep, params, qf.OracleOptions(seed=0, n_random=40))
    assert v.tag in ("undecided", "unstable")  # a found witness is a certificate
    if v.tag == "undecided" and v.witness is not None:
        # informative equal-slope witness, not a destabilizing certificate
        assert v.witness_slope == pytest.approx(v.slope, abs=1e-9)


def test_oracle_sigma_independent_verdicts():
    for seed in range(8):
        rep, tau = random_two_vertex_instance(900 + seed)
        tags = set()
        for sigma in ({"1": 1.0, "2": 1.0}, {"1": 2.0, "2": 3.0}, {"1": 5.0, "2": 1.0}):
            params = qf.StabilityParams(sigma, tau)
            tags.add(qf.stability_oracle(rep, params, qf.OracleOptions(seed=0, n_random=60)).tag)
        assert len(tags) == 1


# ---------------------------------------------------------------------------
# the oracle's candidate enumeration


def twisted_draw(base_seed):
    """Twisted draw of the benchmark generator (``bench/gen.py``): arrow
    1 -> 2 of multiplicity 2 with a random positive twist weight and an
    optional plain back arrow."""
    rng = np.random.default_rng(base_seed)
    d1, d2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    arrows = [("a", "1", "2")]
    if rng.random() < 0.5:
        arrows.append(("b", "2", "1"))
    q = qf.Quiver.from_lists(["1", "2"], arrows)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    weight = g @ g.conj().T + 0.5 * np.eye(2)
    twist = qf.TwistSpec({"a": 2, **{n: 1 for n, _, _ in arrows[1:]}},
                         {"a": weight, **{n: np.eye(1, dtype=complex) for n, _, _ in arrows[1:]}})
    dims = {"1": d1, "2": d2}

    def gaussian(shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    slices = {"a": [gaussian((d2, d1)) for _ in range(2)]}
    for name, t, h in arrows[1:]:
        slices[name] = [gaussian((dims[h], dims[t]))]
    return qf.build_rep(q, twist, dims, slices)


def three_vertex_draw(base_seed):
    """Three-vertex draw of the benchmark generator: arrows 1 -> 2 -> 3 and
    an optional 3 -> 1, dims 1-2."""
    rng = np.random.default_rng(base_seed)
    dims = {v: int(rng.integers(1, 3)) for v in ("1", "2", "3")}
    arrows = [("a", "1", "2"), ("b", "2", "3")]
    if rng.random() < 0.5:
        arrows.append(("c", "3", "1"))
    q = qf.Quiver.from_lists(["1", "2", "3"], arrows)
    slices = {
        name: [rng.normal(size=(dims[h], dims[t])) + 1j * rng.normal(size=(dims[h], dims[t]))]
        for name, t, h in arrows
    }
    return qf.build_rep(q, None, dims, slices)


def _full_enumeration(closures):
    """Reference: admit the given generator closures, then pair every two
    candidates in every enrichment round, with no work skipped."""
    seen, dims_count = {}, {}

    def add(w):
        if len(seen) >= stability.MAX_CANDIDATES:
            return
        key = stability._witness_key(w)
        if key in seen:
            return
        dims_key = tuple(sorted(w.dims.items()))
        if dims_count.get(dims_key, 0) >= stability.PER_DIMS_CAP:
            return
        seen[key] = w
        dims_count[dims_key] = dims_count.get(dims_key, 0) + 1

    for w in closures:
        add(w)
    for _ in range(stability.ENRICHMENT_DEPTH):
        current = list(seen.values())
        for i in range(len(current)):
            for j in range(i + 1, len(current)):
                add(witness_sum(current[i], current[j]))
                add(witness_intersection(current[i], current[j]))
    return list(seen.values())


def _duplicate_pairs(candidates):
    projs = [{v: b @ b.conj().T for v, b in w.basis.items()} for w in candidates]
    return [
        (i, j)
        for i, j in itertools.combinations(range(len(projs)), 2)
        if all(np.abs(projs[i][v] - projs[j][v]).max(initial=0.0) < 1e-9 for v in projs[i])
    ]


def test_candidates_span_distinct_subspaces():
    # rounding leaves -0.0 on a projector's diagonal where another basis of
    # the same subspace gives 0.0; both must give one key, or copies of one
    # subspace use up the slots of its dimension vector (draw 6017 held 18
    # such pairs)
    reps = [twisted_draw(6017)] + [random_two_vertex_instance(5000 + k)[0] for k in range(10)]
    for rep in reps:
        assert _duplicate_pairs(stability._candidate_subreps(rep, qf.OracleOptions(seed=0))) == []


def _oracle_draws():
    yield from (random_two_vertex_instance(5000 + k)[0] for k in range(20))
    yield from (twisted_draw(6000 + k) for k in range(12))
    yield from (three_vertex_draw(6500 + k) for k in range(6))
    yield from (inst[0] for inst in map(random_onedim_instance, range(20000, 20030)) if inst)


def _basis_bytes(w):
    return [(v, w.basis[v].shape, w.basis[v].tobytes()) for v in sorted(w.basis)]


def test_candidates_match_full_enumeration():
    # candidates do not depend on the stability parameters, so one list per
    # representation covers every sigma; the random vectors of a smaller
    # n_random are the first ones of a larger, so their closures are shared
    for rep in _oracle_draws():
        options = qf.OracleOptions(seed=0, n_random=200)
        exact, random = stability._generator_vectors(rep, options, np.random.default_rng(options.seed))
        closures = [invariant_closure(rep, {v: x}) for v, x in exact + list(random)]
        for n_random in (20, 200):
            got = stability._candidate_subreps(rep, qf.OracleOptions(seed=0, n_random=n_random))
            want = _full_enumeration(closures[: len(exact) + n_random])
            assert [_basis_bytes(w) for w in got] == [_basis_bytes(w) for w in want]


def test_oracle_cost_does_not_grow_with_n_random(monkeypatch):
    # random generators at a vertex stop at the first rejected closure
    rep, tau = random_two_vertex_instance(5008)
    assert "b" in {a.name for a in rep.quiver.arrows}
    params = qf.StabilityParams({"1": 1.0, "2": 1.0}, tau)
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return invariant_closure(*args)

    monkeypatch.setattr(stability, "invariant_closure", counted)
    counts = []
    for n_random in (200, 2000):
        calls[0] = 0
        qf.stability_oracle(rep, params, qf.OracleOptions(seed=0, n_random=n_random))
        counts.append(calls[0])
    assert counts[0] == counts[1]


def _closure_reference(rep, generators):
    """invariant_closure with an SVD at every step, none skipped."""
    bases = {v: np.zeros((rep.dims[v], 0), dtype=complex) for v in rep.quiver.vertices}
    for v, g in generators.items():
        bases[v] = orthonormal_columns(np.hstack([bases[v], np.asarray(g, dtype=complex)[:, None]]))
    changed = True
    while changed:
        changed = False
        for a in rep.quiver.arrows:
            src = bases[a.tail]
            if src.shape[1] == 0:
                continue
            grown = orthonormal_columns(np.hstack([bases[a.head]] + [s @ src for s in rep.slices[a.name]]))
            if grown.shape[1] != bases[a.head].shape[1]:
                bases[a.head] = grown
                changed = True
    return qf.SubrepWitness(bases)


def test_closure_matches_always_svd_reference():
    for rep in _oracle_draws():
        options = qf.OracleOptions(seed=0, n_random=10)
        exact, random = stability._generator_vectors(rep, options, np.random.default_rng(options.seed))
        for v, x in exact + list(random):
            got = invariant_closure(rep, {v: x})
            assert _basis_bytes(got) == _basis_bytes(_closure_reference(rep, {v: x}))


def _all_exact_generators(rep, seed):
    """Basis vectors and the eigenvectors of every selfadjoint word, repeats
    included."""
    gens = [(v, e) for v in rep.quiver.vertices for e in np.eye(rep.dims[v], dtype=complex)]
    for v, op in stability._selfadjoint_words(rep, np.random.default_rng(seed)):
        if op.shape[0]:
            gens += [(v, x) for x in eigh_checked(herm(op))[1].T]
    return gens


@pytest.mark.parametrize("rep", [random_two_vertex_instance(5008)[0], twisted_draw(6004)], ids=["criterion-4", "twisted"])
def test_oracle_closes_each_distinct_generator_once(rep, monkeypatch):
    # a random path of length 1 is an arrow's own phi^dagger phi, so words
    # repeat, and so do eigenvectors (a basis vector at a 1-dim vertex)
    everything = [(v, x.tobytes()) for v, x in _all_exact_generators(rep, 0)]
    exact = set(everything)
    assert len(exact) < len(everything)
    closed = []

    def counted(rep_, generators):
        ((v, x),) = generators.items()
        closed.append((v, np.asarray(x).tobytes()))
        return invariant_closure(rep_, generators)

    monkeypatch.setattr(stability, "invariant_closure", counted)
    stability._candidate_subreps(rep, qf.OracleOptions(seed=0))
    n_random = sum(c not in exact for c in closed)
    assert n_random > 0
    assert len(closed) == len(exact) + n_random


def _inside(u, w):
    return all(
        np.linalg.norm(u.basis[v] - w.basis[v] @ (w.basis[v].conj().T @ u.basis[v])) <= 1e-10
        for v in u.basis
    )


def test_enrichment_skips_nested_pairs(monkeypatch):
    # U inside W has sum W and intersection U, both stored already
    pairs = []

    def checked(u, w):
        pairs.append((u, w))
        assert not _inside(u, w) and not _inside(w, u)
        return witness_sum(u, w)

    monkeypatch.setattr(stability, "witness_sum", checked)
    for rep in itertools.islice(_oracle_draws(), 40):
        stability._candidate_subreps(rep, qf.OracleOptions(seed=0))
    assert pairs


# ---------------------------------------------------------------------------
# destabilizer extraction


def test_extract_jordan_span_e1():
    rep, params = jordan_rep(), jordan_params()
    rpt = qf.flow_solve(rep, params)
    steps = qf.destabilizer_extract(rep, params, rpt)
    assert len(steps) == 1
    w = steps[0].witness
    assert w.dims == {"v": 1}
    assert abs(abs(w.basis["v"][0, 0]) - 1.0) < 1e-6
    assert steps[0].slope == pytest.approx(0.0, abs=1e-12)
    ok, _ = qf.check_subrep(rep, w, tol=1e-6)
    assert ok


def test_extract_kronecker_negative_t():
    rep = kronecker_rep(phi=1.0)
    for sigma2 in (1.0, 2.0):
        params = qf.StabilityParams({"1": 1.0, "2": sigma2}, {"1": 0.75, "2": -0.75})
        rpt = qf.flow_solve(rep, params)
        assert rpt.status == "diverged"
        steps = qf.destabilizer_extract(rep, params, rpt)
        dims = [s.witness.dims for s in steps]
        assert {"1": 0, "2": 1} in dims
        step = steps[dims.index({"1": 0, "2": 1})]
        assert step.slope == pytest.approx(0.75 / sigma2, abs=1e-9)


def test_extract_requires_divergence():
    rep = kronecker_rep(phi=1.0)
    params = kronecker_params(t=1.0)
    rpt = qf.flow_solve(rep, params)
    with pytest.raises(NotDivergent):
        qf.destabilizer_extract(rep, params, rpt)


def test_extract_no_separation():
    rep, params = jordan_rep(), jordan_params()
    # craft a divergent-looking report whose limit spectrum has no usable gap
    fake = FlowReport(
        status="diverged",
        final_metric=MetricState.identity(rep),
        residual_norm=1.0,
        iterations=1,
        limit_direction={"v": np.diag([0.0, 1e-13]).astype(complex)},
    )
    with pytest.raises(NoSeparation):
        qf.destabilizer_extract(rep, params, fake)


def test_extraction_witnesses_pass_subrep_check():
    for seed in (1, 2, 4, 9):
        rep, tau = random_two_vertex_instance(700 + seed)
        params = qf.StabilityParams({"1": 1.0, "2": 1.0}, tau)
        rpt = qf.flow_solve(rep, params)
        if rpt.status != "diverged":
            continue
        for step in qf.destabilizer_extract(rep, params, rpt):
            ok, leak = qf.check_subrep(rep, step.witness, tol=1e-6)
            assert ok, leak


# ---------------------------------------------------------------------------
# degree identity


def test_degree_identity_full_witness():
    rep = kronecker_rep(phi=1.0)
    params = kronecker_params(t=1.0)
    rpt = qf.flow_solve(rep, params)
    full = qf.reps.full_witness(rep)
    assert qf.subrep_degree_identity(rep, rpt.final_metric, full, params) < 1e-12


def test_degree_identity_kronecker_closed_form():
    rep = kronecker_rep(phi=1.0)
    params = kronecker_params(t=1.0)
    rpt = qf.flow_solve(rep, params)
    w = qf.SubrepWitness({"1": np.zeros((1, 0)), "2": np.eye(1, dtype=complex)})
    assert qf.subrep_degree_identity(rep, rpt.final_metric, w, params) < 1e-10


def test_degree_identity_requires_solution():
    rep = kronecker_rep(phi=1.0)
    params = kronecker_params(t=1.0)
    bad_metric = MetricState({"1": np.array([[1.0]]), "2": np.array([[7.0]])})
    w = qf.reps.full_witness(rep)
    with pytest.raises(NotASolution):
        qf.subrep_degree_identity(rep, bad_metric, w, params)


def test_degree_identity_random_solved_instance():
    # stable two-summand sum: the first summand is an invariant witness
    r1 = two_arrow_kron_rep((1.0, 0.0))
    r2 = two_arrow_kron_rep((0.0, 1.0))
    summed = qf.direct_sum(r1, r2)
    params = kronecker_params(t=1.0)
    rpt = qf.flow_solve(summed, params)
    assert rpt.converged
    w = qf.SubrepWitness({"1": np.eye(2)[:, :1].astype(complex), "2": np.eye(2)[:, :1].astype(complex)})
    ok, _ = qf.check_subrep(summed, w)
    assert ok
    assert qf.subrep_degree_identity(summed, rpt.final_metric, w, params) <= 1e-8


def test_degree_additive_under_direct_sum():
    r1 = two_arrow_kron_rep((1.0, 0.0))
    r2 = two_arrow_kron_rep((0.0, 2.0))
    params = qf.StabilityParams({"1": 1.5, "2": 0.5}, {"1": 0.7, "2": -0.7})
    d1, _ = qf.degree_and_slope(r1, params)
    d2, _ = qf.degree_and_slope(r2, params)
    ds, _ = qf.degree_and_slope(qf.direct_sum(r1, r2), params)
    assert ds == d1 + d2


def test_extract_two_step_filtration_on_chain():
    # chain 0 -> 1 -> 2 with tau = (1, 0, -1): nested destabilizers
    # (0,0,1) of slope 1 and (0,1,1) of slope 1/2 come out as an
    # ascending two-step filtration
    from quiverforge.gallery import chain_quiver

    q = chain_quiver(2)
    rep = qf.build_rep(
        q, None, {v: 1 for v in q.vertices},
        {"a0": [np.array([[1.0]])], "a1": [np.array([[1.0]])]},
    )
    params = qf.StabilityParams(
        {v: 1.0 for v in q.vertices}, {"0": 1.0, "1": 0.0, "2": -1.0}
    )
    report = qf.flow_solve(rep, params)
    assert report.status == "diverged"
    steps = qf.destabilizer_extract(rep, params, report)
    dims = [tuple(s.witness.dims[v] for v in ("0", "1", "2")) for s in steps]
    slopes = [s.slope for s in steps]
    assert dims == [(0, 0, 1), (0, 1, 1)]
    assert slopes[0] == pytest.approx(1.0, abs=1e-9)
    assert slopes[1] == pytest.approx(0.5, abs=1e-9)
    for s in steps:
        assert qf.check_subrep(rep, s.witness, tol=1e-6)[0]


def test_slope_shift_at_three():
    rng = np.random.default_rng(31)
    for _ in range(5):
        rep, tau = random_two_vertex_instance(int(rng.integers(10**6)))
        sigma = {"1": float(rng.uniform(0.5, 2)), "2": float(rng.uniform(0.5, 2))}
        params = qf.StabilityParams(sigma, tau)
        shifted = qf.StabilityParams(sigma, {v: tau[v] + 3.0 * sigma[v] for v in tau})
        _, mu = qf.degree_and_slope(rep, params)
        _, mu3 = qf.degree_and_slope(rep, shifted)
        assert mu3 == pytest.approx(mu - 3.0, abs=1e-12)
