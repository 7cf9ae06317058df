import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quiverforge as qf
from quiverforge.errors import (
    DimensionOverflow,
    InadmissibleParameters,
    NonpositiveScale,
    NoSeparation,
    NotASolution,
    NotDivergent,
    QuiverMismatch,
    ShapeMismatch,
    SingularMetric,
    ZeroTotalRank,
)
from quiverforge._linalg import complement_basis, null_space, orthonormal_columns
from quiverforge.flow import FlowReport, MetricState
from quiverforge import flow, slope, stability
from quiverforge import io as qio
from quiverforge.gallery import kronecker_quiver
from quiverforge.reps import _adjoint, full_witness, invariant_closure, invariant_closures, module_map_operator
from conftest import (
    jordan_params,
    jordan_rep,
    kronecker_params,
    kronecker_rep,
    random_onedim_instance,
    random_two_vertex_instance,
    twisted_instance,
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


def test_dimension_grid_slopes_equal_degree_and_slope_bit_for_bit():
    # the oracle stops on equality with the grid's largest slope, so every
    # grid entry must be the slope degree_and_slope gives a subobject of
    # that dimension vector, to the last bit
    rng = np.random.default_rng(4)
    checked = 0
    for trial in range(40):
        n_verts = 3 if trial % 2 else 2
        verts = [str(i + 1) for i in range(n_verts)]
        # every fourth draw may leave vertex 1 zero-dimensional
        dims = {v: int(rng.integers(0 if k == 0 and trial % 4 == 1 else 1, 4)) for k, v in enumerate(verts)}
        q = qf.Quiver.from_lists(verts, [("a", verts[0], verts[1])])
        rep = qf.build_rep(q, None, dims)
        params = qf.StabilityParams(
            {v: float(rng.uniform(0.1, 5.0)) for v in verts}, {v: float(rng.normal()) for v in verts}
        )
        rows, deg, slopes = slope.dimension_grid(rep, params)
        assert len(rows) == np.prod([d + 1 for d in dims.values()]) - 2
        for row, d, mu in zip(rows, deg, slopes):
            w = qf.SubrepWitness({v: np.eye(dims[v], k, dtype=complex) for v, k in zip(verts, row)})
            assert qf.degree_and_slope(w, params) == (d, mu)
            checked += 1
    assert checked > 400


@pytest.mark.parametrize(
    "sigma, tau, missing",
    [({"1": 1.0}, {"1": 0.0, "2": 0.0}, "sigma"), ({"1": 1.0, "2": 1.0}, {"1": 0.0}, "tau")],
    ids=["sigma", "tau"],
)
def test_parameters_that_miss_a_vertex_are_refused(sigma, tau, missing):
    # a missing vertex raised a bare KeyError deep inside the solvers
    rep = kronecker_rep(phi=1.0)
    params = qf.StabilityParams(sigma, tau)
    good = kronecker_params(t=-1.0)
    report = qf.flow_solve(rep, good)
    assert report.status == "diverged"
    calls = [
        lambda: qf.stability_oracle(rep, params),
        lambda: qf.flow_solve(rep, params),
        lambda: qf.destabilizer_extract(rep, params, report),
        lambda: slope.dimension_grid(rep, params),
    ]
    for call in calls:
        with pytest.raises(QuiverMismatch, match=f"vertex '2' is missing from {missing}"):
            call()


@pytest.mark.parametrize(
    "call",
    [
        lambda rep, metric, params: qf.moment_map_residual(rep, metric, params),
        lambda rep, metric, params: qf.kempf_ness(rep, {"1": np.zeros((1, 1)), "2": np.zeros((1, 1))}, params),
        lambda rep, metric, params: qf.kempf_ness_metric(rep, metric, params),
        lambda rep, metric, params: qf.kempf_ness_gradient(rep, {"1": np.zeros((1, 1)), "2": np.zeros((1, 1))}, params),
        lambda rep, metric, params: qf.subrep_degree_identity(rep, metric, full_witness(rep), params),
    ],
    ids=["moment_map_residual", "kempf_ness", "kempf_ness_metric", "kempf_ness_gradient", "subrep_degree_identity"],
)
def test_kernel_refuses_tau_that_misses_a_vertex(call):
    # the chart kernel's per-vertex tau raised a bare KeyError
    rep = kronecker_rep(phi=1.0)
    params = qf.StabilityParams({"1": 1.0, "2": 1.0}, {"1": 1.0})
    with pytest.raises(QuiverMismatch, match="vertex '2' is missing from tau"):
        call(rep, MetricState.identity(rep), params)


@pytest.mark.parametrize(
    "call",
    [
        lambda rep, params: qf.flow_solve(rep, params),
        lambda rep, params: qf.stability_oracle(rep, params),
        lambda rep, params: slope.dimension_grid(rep, params),
        lambda rep, params: qf.moment_map_residual(rep, MetricState.identity(rep), params),
        lambda rep, params: qf.kempf_ness(rep, {"1": np.zeros((1, 1)), "2": np.zeros((1, 1))}, params),
        lambda rep, params: qf.kempf_ness_metric(rep, MetricState.identity(rep), params),
        lambda rep, params: qf.kempf_ness_gradient(rep, {"1": np.zeros((1, 1)), "2": np.zeros((1, 1))}, params),
        lambda rep, params: qf.subrep_degree_identity(rep, MetricState.identity(rep), full_witness(rep), params),
    ],
    ids=[
        "flow_solve", "stability_oracle", "dimension_grid", "moment_map_residual", "kempf_ness",
        "kempf_ness_metric", "kempf_ness_gradient", "subrep_degree_identity",
    ],
)
def test_parameters_that_name_an_unknown_vertex_are_refused(call):
    # a misspelt vertex beside a complete rest was ignored: the flow
    # diverged, the oracle said unstable and the energy read 0.0
    rep = kronecker_rep(phi=1.0)
    params = qf.StabilityParams({"1": 1.0, "2": 1.0, "3": 1.0}, {"1": 1.0, "2": -1.0, "3": 5.0})
    with pytest.raises(QuiverMismatch, match="at '3': not a vertex of the quiver"):
        call(rep, params)
    # a witness's degree sees only the witness's vertices and still works
    witness = qf.SubrepWitness({"2": np.eye(1, dtype=complex)})
    assert qf.degree_and_slope(witness, params) == (1.0, 1.0)


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
    "sigma, tau, missing",
    [({"1": 1.0, "2": 1.0}, {"1": 0.0}, "tau"), ({"1": 1.0}, {"1": 0.0, "2": 3.0}, "sigma")],
    ids=["tau-misses-a-vertex", "tau-has-an-extra-vertex"],
)
def test_reparameterize_refuses_sigma_and_tau_on_different_vertices(sigma, tau, missing):
    # the first raised a bare KeyError, the second dropped the extra vertex
    with pytest.raises(QuiverMismatch, match=f"vertex '2' is missing from {missing}"):
        qf.reparameterize(qf.StabilityParams(sigma, tau), 2.0, 0.5)

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
    return twisted_instance(base_seed)[0]


def three_vertex_instance(base_seed):
    """Three-vertex draw of the benchmark generator, as (rep, tau): arrows
    1 -> 2 -> 3 and an optional 3 -> 1, dims 1-2."""
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
    t1, t2 = float(rng.normal()), float(rng.normal())
    tau = {"1": t1, "2": t2, "3": -(t1 * dims["1"] + t2 * dims["2"]) / dims["3"]}
    return qf.build_rep(q, None, dims, slices), tau


def three_vertex_draw(base_seed):
    return three_vertex_instance(base_seed)[0]


def _duplicate_pairs(candidates):
    projs = [{v: b @ b.conj().T for v, b in w.basis.items()} for w in candidates]
    return [
        (i, j)
        for i, j in itertools.combinations(range(len(projs)), 2)
        if all(np.abs(projs[i][v] - projs[j][v]).max(initial=0.0) < 1e-9 for v in projs[i])
    ]


def test_candidates_span_distinct_subspaces(monkeypatch):
    # rounding leaves -0.0 on a projector's diagonal where another basis of
    # the same subspace gives 0.0; both must give one key, or copies of one
    # subspace are read twice (draw 6017 held 18 such pairs).  Every
    # candidate the oracle admits has its slope taken once, and with no
    # grid every candidate is read
    reps = [(twisted_draw(6017), twisted_instance(6017)[1])] + [random_two_vertex_instance(5000 + k) for k in range(10)]
    monkeypatch.setattr(stability, "dimension_grid", lambda rep, params: None)
    real = stability.degree_and_slope
    admitted, repeats = 0, 0
    for rep, tau in reps:
        read = []
        monkeypatch.setattr(stability, "degree_and_slope", lambda w, params: read.append(w) or real(w, params))
        qf.stability_oracle(rep, qf.StabilityParams({v: 1.0 for v in rep.quiver.vertices}, tau))
        candidates = read[1:]
        assert _proper(rep, candidates) == candidates
        assert _duplicate_pairs(candidates) == []
        members = list(stability._coordinate_family(rep))
        members += stability._endomorphism_family(rep, stability._endomorphisms(rep))
        admitted += len(candidates)
        repeats += len(_duplicate_pairs(_proper(rep, members)))
    # the families themselves repeat subspaces
    assert admitted > 0 and repeats > 0


def _oracle_draws():
    """(rep, params) pairs: criterion-4, twisted and three-vertex draws at
    sigma = 1, then one-dimensional draws."""
    instances = (
        [random_two_vertex_instance(5000 + k) for k in range(20)]
        + [twisted_instance(6000 + k) for k in range(12)]
        + [three_vertex_instance(6500 + k) for k in range(6)]
    )
    for rep, tau in instances:
        yield rep, qf.StabilityParams({v: 1.0 for v in rep.quiver.vertices}, tau)
    yield from filter(None, map(random_onedim_instance, range(20000, 20030)))


def _basis_bytes(w):
    return [(v, w.basis[v].shape, w.basis[v].tobytes()) for v in sorted(w.basis)]


def _check_payload(verdict):
    """The bytes of a ``check`` report's verdict, slope and witness."""
    payload = {"verdict": verdict.tag, "slope": verdict.slope}
    if verdict.witness is not None:
        payload["witness"] = qio.encode_witness(verdict.witness)
        payload["witness_slope"] = verdict.witness_slope
    return qio.export_report(payload)


def test_oracle_options_change_no_verdict():
    # the enumeration draws nothing at random: seed and n_random are checked
    # but change neither the tag nor the reported witness
    options = [qf.OracleOptions(), qf.OracleOptions(seed=7, n_random=0), qf.OracleOptions(seed=3, n_random=2000)]
    for rep, params in _oracle_draws():
        verdicts = [qf.stability_oracle(rep, params, o) for o in options]
        assert len({v.tag for v in verdicts}) == 1
        assert len({_check_payload(v) for v in verdicts}) == 1


def _closure_reference(rep, generators):
    """invariant_closure with an SVD at every step, none skipped."""
    bases = {v: np.zeros((rep.dims[v], 0), dtype=complex) for v in rep.quiver.vertices}
    for v, g in generators.items():
        g = np.asarray(g, dtype=complex).reshape(rep.dims[v], -1)
        bases[v] = orthonormal_columns(np.hstack([bases[v], g]))
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


def _closure_generators(rep):
    """Generators of closures: the oracle's coordinate spans, and random unit
    vectors at random nonzero vertices, like those the flow's filtration
    closes."""
    verts = [v for v in rep.quiver.vertices if rep.dims[v]]
    for r in range(1, len(verts)):
        for subset in itertools.combinations(verts, r):
            yield {v: np.eye(rep.dims[v], dtype=complex) for v in subset}
    rng = np.random.default_rng(0)
    for _ in range(10):
        v = verts[rng.integers(len(verts))]
        x = rng.normal(size=rep.dims[v]) + 1j * rng.normal(size=rep.dims[v])
        yield {v: x / np.linalg.norm(x)}


def test_closure_matches_always_svd_reference():
    # one at a time through invariant_closure, and all of a draw's members
    # in one invariant_closures call from orthonormal starts: the coordinate
    # spans' identity bases as they are, and the orthonormal_columns of each
    # random vector
    for rep, _ in _oracle_draws():
        members = list(_closure_generators(rep))
        want = [_basis_bytes(_closure_reference(rep, g)) for g in members]
        assert [_basis_bytes(invariant_closure(rep, g)) for g in members] == want
        starts = [{v: g if g.ndim == 2 else orthonormal_columns(g) for v, g in m.items()} for m in members]
        assert [_basis_bytes(w) for w in invariant_closures(rep, starts)] == want


def test_endomorphism_family_reads_one_generic_endomorphism(monkeypatch):
    # twisted draw 6004 has dim End(V) = 3; the family reads one unit-norm
    # module map f, the fixed combination of that basis, with one eigvals
    # call per nonzero vertex, and its members equal, byte for byte, the
    # kernel and then the image of f - lambda for each eigenvalue cluster
    rep = twisted_draw(6004)
    ends = stability._endomorphisms(rep)
    assert len(ends) == 3
    coef = np.exp(1j * stability.GENERIC_PHASE * np.arange(3)) / np.sqrt(3)
    f = {v: np.tensordot(coef, [e[v] for e in ends], axes=1) for v in rep.quiver.vertices}
    assert np.linalg.norm(np.concatenate([m.ravel() for m in f.values()])) == pytest.approx(1.0, abs=1e-12)
    for a in rep.quiver.arrows:
        for sl in rep.slices[a.name]:
            assert np.abs(f[a.head] @ sl - sl @ f[a.tail]).max() < 1e-12
    verts = [v for v in rep.quiver.vertices if rep.dims[v]]
    want = []
    for lam in stability._eigenvalue_clusters(np.concatenate([np.linalg.eigvals(f[v]) for v in verts])):
        shifted = {v: m - lam * np.eye(len(m)) for v, m in f.items()}
        want.append(_basis_bytes(qf.SubrepWitness({v: null_space(m) for v, m in shifted.items()})))
        want.append(_basis_bytes(qf.SubrepWitness({v: orthonormal_columns(m) for v, m in shifted.items()})))
    assert len(want) >= 4

    calls = []
    real = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda m: calls.append(m) or real(m))
    members = list(stability._endomorphism_family(rep, ends))
    assert len(calls) == len(verts)
    assert [_basis_bytes(w) for w in members] == want


def test_endomorphism_family_is_invariant_as_built(monkeypatch):
    # f is a module map, so ker(f - lambda) and im(f - lambda) are invariant
    # as built: the family closes nothing, every member passes check_subrep
    # and carries a basis at every vertex, a zero-dimensional one included
    # (the last draw, whose End(V) is all of M_2)
    def refuse(*args):
        raise AssertionError("the End(V) family closed a member")

    monkeypatch.setattr(stability, "invariant_closures", refuse)
    zero_vertex = qf.build_rep(kronecker_quiver(1), None, {"1": 0, "2": 2}, {})
    members = 0
    for rep in [rep for rep, _ in _oracle_draws()] + [zero_vertex]:
        for w in stability._endomorphism_family(rep, stability._endomorphisms(rep)):
            assert list(w.basis) == list(rep.quiver.vertices)
            assert all(b.shape[0] == rep.dims[v] for v, b in w.basis.items())
            ok, leak = qf.check_subrep(rep, w)
            assert ok, leak
            members += 1
    assert members > 0


def test_coordinate_family_takes_identity_starts_as_they_are(monkeypatch):
    # the identity bases of the coordinate spans are orthonormal already:
    # with every map zero no closure grows and every complement is empty or
    # full, so the family takes no SVD at all
    rep = qf.build_rep(kronecker_quiver(3), None, {"1": 2, "2": 3}, {})
    calls = []
    real = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    family = list(stability._coordinate_family(rep))
    assert len(calls) == 0
    assert [w.dims for w in family] == [{"1": 2, "2": 0}] * 2 + [{"1": 0, "2": 3}] * 2


def _proper(rep, family):
    return [w for w in family if 0 < w.total_dim < rep.total_dim]


def _end_dim(rep):
    """dim End(V), the nullity of the module-map operator."""
    op = module_map_operator(rep)
    return op.shape[1] - np.linalg.matrix_rank(op)


# the sigma vectors of acceptance criterion 4 and of the benchmark's
# three-vertex draws
SIGMAS = {
    2: [{"1": 1.0, "2": 1.0}, {"1": 2.0, "2": 3.0}, {"1": 5.0, "2": 1.0}],
    3: [{"1": 1.0, "2": 1.0, "3": 1.0}, {"1": 2.0, "2": 3.0, "3": 1.0}, {"1": 5.0, "2": 1.0, "3": 2.0}],
}


@pytest.mark.parametrize(
    "rep, tau, end_dim, semistable",
    [(*random_two_vertex_instance(5018), 2, True), (*twisted_instance(6004), 3, False)],
    ids=["criterion-4", "twisted"],
)
def test_exact_families_are_invariant(rep, tau, end_dim, semistable):
    # End(V) is computed once, by one SVD; both families give exactly
    # invariant subobjects, and in the semistable draw 5018 every kernel and
    # image of an endomorphism has the total slope (semistable objects of
    # one slope form an abelian category)
    ends = stability._endomorphisms(rep)
    assert len(ends) == _end_dim(rep) == end_dim
    for f in ends:
        for a in rep.quiver.arrows:
            for sl in rep.slices[a.name]:
                assert np.abs(f[a.head] @ sl - sl @ f[a.tail]).max() < 1e-12
    coordinate = _proper(rep, stability._coordinate_family(rep))
    endomorphism = _proper(rep, stability._endomorphism_family(rep, ends))
    assert endomorphism
    for w in coordinate + endomorphism:
        ok, leak = qf.check_subrep(rep, w)
        assert ok, leak
    for sigma in SIGMAS[2] if semistable else []:
        params = qf.StabilityParams(sigma, tau)
        _, mu = qf.degree_and_slope(rep, params)
        slopes = [qf.degree_and_slope(w, params)[1] for w in endomorphism]
        assert slopes == pytest.approx([mu] * len(slopes), abs=1e-12)


def _wong_largest_inside(rep, subset):
    """Largest invariant subobject inside the sum of V_v over ``subset`` by
    the Wong sequence U_tail <- U_tail ∩ phi^{-1}(U_head) over every slice,
    to a fixed point (Ivanyos-Karpinski-Qiao-Santha)."""
    n = rep.dims
    bases = {v: np.eye(n[v], n[v] if v in subset else 0, dtype=complex) for v in rep.quiver.vertices}
    changed = True
    while changed:
        changed = False
        for a in rep.quiver.arrows:
            src, head = bases[a.tail], bases[a.head]
            if src.shape[1] == 0:
                continue
            perp = np.eye(n[a.head]) - head @ head.conj().T
            keep = null_space(np.vstack([perp @ s @ src for s in rep.slices[a.name]]))
            if keep.shape[1] < src.shape[1]:
                bases[a.tail] = src @ keep
                changed = True
    return qf.SubrepWitness(bases)


def test_coordinate_family_matches_the_wong_sequence():
    # the largest invariant subobject inside a coordinate subobject is the
    # complement of an adjoint closure; the family equals, key for key and
    # in order, the pairs [closure, Wong-sequence fixed point] for every
    # vertex subset; in 135 of the 520 subsets the sequence cuts the
    # coordinate subobject to a nonzero proper part
    reps = (
        [random_two_vertex_instance(5000 + k)[0] for k in range(100)]
        + [twisted_draw(6000 + k) for k in range(40)]
        + [three_vertex_draw(6500 + k) for k in range(40)]
    )
    cuts = 0
    for rep in reps:
        verts = [v for v in rep.quiver.vertices if rep.dims[v]]
        reference = []
        for subset in (s for r in range(1, len(verts)) for s in itertools.combinations(verts, r)):
            inside = _wong_largest_inside(rep, subset)
            cuts += 0 < inside.total_dim < sum(rep.dims[v] for v in subset)
            reference += [invariant_closure(rep, {v: np.eye(rep.dims[v]) for v in subset}), inside]
        family = list(stability._coordinate_family(rep))
        assert list(map(stability._witness_key, family)) == list(map(stability._witness_key, reference))
    assert cuts == 135


def test_exact_families_are_invariant_in_the_adjoint():
    # W is invariant exactly when W^perp is invariant under the adjoint
    # maps phi^H on the reversed arrows; here with a twisted arrow of
    # multiplicity 2, a zero-dimensional vertex and, from a direct sum in a
    # general frame, an End(V) that is not the scalars
    rng = np.random.default_rng(17)

    def gaussian(shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    q = qf.Quiver.from_lists(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "1"), ("c", "3", "1"), ("d", "2", "3")])
    g = gaussian((2, 2))
    twist = qf.TwistSpec(
        {"a": 2, "b": 1, "c": 1, "d": 1},
        {"a": g @ g.conj().T + 0.5 * np.eye(2), **{n: np.eye(1) for n in "bcd"}},
    )

    def summand(dims):
        dims = {**dims, "3": 0}
        slices = {a.name: [gaussian((dims[a.head], dims[a.tail])) for _ in range(twist.rank(a.name))] for a in q.arrows}
        return qf.build_rep(q, twist, dims, slices)

    rep = qf.direct_sum(summand({"1": 1, "2": 1}), summand({"1": 1, "2": 2}))
    frames = {v: np.eye(n) + 0.3 * gaussian((n, n)) for v, n in rep.dims.items()}
    rep = qf.build_rep(q, twist, rep.dims, {
        a.name: [frames[a.head] @ s @ np.linalg.inv(frames[a.tail]) for s in rep.slices[a.name]]
        for a in q.arrows
    })
    adjoint = _adjoint(rep)
    assert [(a.tail, a.head) for a in adjoint.quiver.arrows] == [(a.head, a.tail) for a in q.arrows]
    ends = stability._endomorphisms(rep)
    members = list(stability._coordinate_family(rep)) + list(stability._endomorphism_family(rep, ends))
    assert len(ends) == 2 and _proper(rep, members)
    for w in members:
        assert qf.check_subrep(rep, w)[0]
        perp = qf.SubrepWitness({v: complement_basis(b) for v, b in w.basis.items()})
        assert qf.check_subrep(adjoint, perp)[0]


def _nilpotent_block(n, frame):
    """The n x n nilpotent Jordan block in the basis ``frame`` (columns)."""
    nil = np.diag(np.ones(n - 1), 1).astype(complex)
    q = qf.Quiver.from_lists(["v"], [("phi", "v", "v")])
    rep = qf.build_rep(q, None, {"v": n}, {"phi": [frame @ nil @ np.linalg.inv(frame)]})
    return rep, rep.slices["phi"][0]


@pytest.mark.parametrize("n", [2, 3])
def test_endomorphism_family_yields_nilpotent_kernels(n):
    # End(V) of a nilpotent block N is spanned by 1, N, ..., N^(n-1); rounding
    # splits the eigenvalue of each element, which must be taken as one, or
    # the kernel leaks and its closure is the whole space.  The family
    # yields ker N, and the oracle reports it, in any frame
    params = qf.StabilityParams({"v": 1.0}, {"v": 0.0})
    rng = np.random.default_rng(n)
    frames = [np.eye(n)] + [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(5)]
    for frame in frames:
        rep, nil = _nilpotent_block(n, frame)
        assert _end_dim(rep) == n
        kernels = [
            w for w in stability._endomorphism_family(rep, stability._endomorphisms(rep))
            if w.dims == {"v": 1}
        ]
        assert kernels
        for w in kernels:
            assert np.linalg.norm(nil @ w.basis["v"]) <= 1e-10 * np.linalg.norm(nil)
        verdict = qf.stability_oracle(rep, params)
        assert verdict.tag == "strictly-semistable"
        assert qf.check_subrep(rep, verdict.witness)[0]


CORRECTED_DRAWS = [
    ("twisted-6004", twisted_instance(6004), "unstable"),
    ("twisted-6019", twisted_instance(6019), "unstable"),
    ("criterion-4-5018", random_two_vertex_instance(5018), "polystable"),
    ("twisted-6013", twisted_instance(6013), "polystable"),
    ("three-vertex-6508", three_vertex_instance(6508), "polystable"),
]


@pytest.mark.parametrize("instance, tag", [d[1:] for d in CORRECTED_DRAWS], ids=[d[0] for d in CORRECTED_DRAWS])
def test_oracle_verdicts_where_end_is_not_scalar(instance, tag):
    # these draws were called stable although End(V) is not the scalars:
    # 6004 and 6019 have a common kernel of the two slices of arrow a (the
    # Wong interior of V_1), the others split into equal-slope summands
    rep, tau = instance
    assert _end_dim(rep) > 1
    for sigma in SIGMAS[len(rep.quiver.vertices)]:
        params = qf.StabilityParams(sigma, tau)
        verdict = qf.stability_oracle(rep, params, qf.OracleOptions(seed=0))
        assert verdict.tag == tag
        if tag == "unstable":
            assert verdict.witness.dims == {"1": 1, "2": 0}
            assert qf.check_subrep(rep, verdict.witness)[0]
            assert verdict.witness_slope > verdict.slope


def test_schur_guard(monkeypatch):
    # with no equal-slope candidate, only End(V) = C gives stable; here
    # neither family yields a candidate
    monkeypatch.setattr(stability, "_coordinate_family", lambda rep, built=None: iter(()))
    monkeypatch.setattr(stability, "_endomorphism_family", lambda rep, ends: iter(()))
    rep, tau = random_two_vertex_instance(5018)
    params = qf.StabilityParams({"1": 1.0, "2": 1.0}, tau)
    assert qf.stability_oracle(rep, params).tag == "undecided"
    assert qf.stability_oracle(kronecker_rep(phi=1.0), kronecker_params(t=1.0)).tag == "stable"


def test_isotypic_polystable_object_reads_one_endomorphism(monkeypatch):
    # S + S + T of stable, non-isomorphic (1, 1) summands of slope 0, in a
    # general frame: End(V) = M_2 x C.  One generic f has three eigenvalue
    # clusters, two copies of S and T, so the End(V) family reads one
    # eigvals call per nonzero vertex and at most a kernel and an image per
    # cluster; every kernel is an invariant summand of slope mu
    rng = np.random.default_rng(32)
    s, t = two_arrow_kron_rep((1.0, 0.5)), two_arrow_kron_rep((0.3, -1.0))
    rep = qf.direct_sum(qf.direct_sum(s, s), t)
    frames = {v: rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for v in rep.quiver.vertices}
    rep = qf.build_rep(rep.quiver, None, rep.dims, {
        a.name: [frames[a.head] @ sl @ np.linalg.inv(frames[a.tail]) for sl in rep.slices[a.name]]
        for a in rep.quiver.arrows
    })
    params = kronecker_params(t=1.0)
    assert _end_dim(rep) == 5

    members, clusters, calls = [], [], []
    family, cluster = stability._endomorphism_family, stability._eigenvalue_clusters

    def recorded(*args):
        for w in family(*args):
            members.append(w)
            yield w

    monkeypatch.setattr(stability, "_endomorphism_family", recorded)
    monkeypatch.setattr(stability, "_eigenvalue_clusters", lambda vals: clusters.append(cluster(vals)) or clusters[-1])
    real = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda m: calls.append(m) or real(m))
    verdict = qf.stability_oracle(rep, params)
    assert verdict.tag == "polystable"
    assert len(calls) == 2
    assert [len(c) for c in clusters] == [3] and len(members) <= 2 * 3
    kernels = members[::2]
    assert sorted(w.total_dim for w in kernels) == [2, 2, 2]
    for w in kernels:
        assert qf.check_subrep(rep, w)[0]
        assert qf.degree_and_slope(w, params)[1] == pytest.approx(verdict.slope, abs=1e-12)


def _planted_kronecker(n_arrows, dims, tau, seed):
    """Kronecker representation whose arrow maps all send e_1 into <f_1>
    (each a complex normal draw with the rest of its first column zeroed),
    so <e_1> + <f_1> is an exactly invariant subobject."""
    rng = np.random.default_rng(seed)
    slices = {}
    for i in range(n_arrows):
        phi = rng.normal(size=(dims[1], dims[0])) + 1j * rng.normal(size=(dims[1], dims[0]))
        phi[1:, 0] = 0
        slices[f"a{i}"] = [phi]
    rep = qf.build_rep(kronecker_quiver(n_arrows), None, {"1": dims[0], "2": dims[1]}, slices)
    return rep, qf.StabilityParams({"1": 1.0, "2": 1.0}, {"1": tau[0], "2": tau[1]})


# (instance, slope of <e_1> + <f_1>, flow stop): the oracle's families miss
# the planted subobject of both, and both are bricks, so the Schur guard
# passes; the first is strictly semistable, the second unstable
PLANTED_MISSES = [
    (_planted_kronecker(3, (2, 2), (-1.0, 1.0), 2), 0.0, "no-complement"),
    (_planted_kronecker(4, (2, 3), (-1.5, 1.0), 1), 0.25, "certificate"),
]


def test_planted_subobject_is_invariant_and_the_flow_stops_on_it():
    for (rep, params), planted_slope, stop in PLANTED_MISSES:
        planted = qf.SubrepWitness({v: np.eye(rep.dims[v], 1, dtype=complex) for v in ("1", "2")})
        assert qf.check_subrep(rep, planted)[0]
        assert qf.degree_and_slope(rep, params)[1] == 0.0
        assert qf.degree_and_slope(planted, params)[1] == pytest.approx(planted_slope, abs=1e-12)
        assert len(stability._endomorphisms(rep)) == 1
        report = qf.flow_solve(rep, params)
        assert (report.status, report.stop) == ("diverged", stop)


@pytest.mark.xfail(
    strict=True,
    reason="the enumeration misses a planted subobject of equal or larger slope and the Schur guard "
    "does not rule that out; ROADMAP item 1 (every oracle tag a checked certificate) mends this",
)
def test_oracle_does_not_call_a_planted_miss_stable():
    tags = [qf.stability_oracle(rep, params).tag for (rep, params), _, _ in PLANTED_MISSES]
    assert "stable" not in tags


def _oracle_stop_calls():
    """(rep, params) of the oracle-stop tests: the oracle draws, the
    corrected draws at their family's sigmas and the planted misses."""
    calls = list(_oracle_draws())
    for _, (rep, tau), _ in CORRECTED_DRAWS:
        calls += [(rep, qf.StabilityParams(sigma, tau)) for sigma in SIGMAS[len(rep.quiver.vertices)]]
    return calls + [instance for instance, _, _ in PLANTED_MISSES]


def test_oracle_stop_at_the_largest_grid_slope_is_invisible(monkeypatch):
    # with no grid there is no largest slope, so the same code reads every
    # candidate; stopping at the top slope must change no tag and no byte of
    # the check payload, and it must actually skip End(V) somewhere
    calls = _oracle_stop_calls()
    builds = []
    real = stability._endomorphisms
    monkeypatch.setattr(stability, "_endomorphisms", lambda rep: builds.append(rep) or real(rep))
    stopped = [qf.stability_oracle(rep, params) for rep, params in calls]
    stopped_builds = len(builds)
    monkeypatch.setattr(stability, "dimension_grid", lambda rep, params: None)
    full = [qf.stability_oracle(rep, params) for rep, params in calls]
    assert [v.tag for v in stopped] == [v.tag for v in full]
    assert [_check_payload(v) for v in stopped] == [_check_payload(v) for v in full]
    assert len(builds) - stopped_builds == len(calls)
    assert stopped_builds < len(calls)


def test_oracle_stop_at_the_largest_subobject_slope_is_invisible(monkeypatch):
    # once the coordinate family is read, the grid rows that no subobject
    # can have (not above the closure of their full vertices, or not inside
    # the largest invariant subobject on their support) drop out of the
    # bound; with the filter off the same calls give the same bytes, and
    # the filter skips End(V) on some of them
    calls = _oracle_stop_calls()
    builds = []
    real = stability._endomorphisms
    monkeypatch.setattr(stability, "_endomorphisms", lambda rep: builds.append(rep) or real(rep))
    filtered = [qf.stability_oracle(rep, params) for rep, params in calls]
    filtered_builds = len(builds)
    monkeypatch.setattr(stability, "_subobject_top", lambda rep, grid, built: grid[2].max(initial=-np.inf))
    unfiltered = [qf.stability_oracle(rep, params) for rep, params in calls]
    assert [_check_payload(v) for v in filtered] == [_check_payload(v) for v in unfiltered]
    assert filtered_builds < len(builds) - filtered_builds


def test_subobject_top_keeps_the_rows_of_every_subobject():
    # on one-dimensional draws the subobjects are the closed vertex subsets:
    # every closed subset keeps its row, and every kept row's slope is at
    # most the largest slope of a closed subset
    checked = 0
    for seed in range(30000, 30060):
        instance = random_onedim_instance(seed, integer_tau=True)
        if instance is None:
            continue
        rep, params = instance
        grid = slope.dimension_grid(rep, params)
        built = {}
        list(stability._coordinate_family(rep, built))
        verts = rep.quiver.vertices
        closed = [
            s for r in range(1, len(verts)) for s in itertools.combinations(verts, r)
            if all(a.head in s for a in rep.quiver.arrows if a.tail in s and np.abs(rep.slices[a.name][0]).max() > 0)
        ]
        best = max((qf.degree_and_slope(qf.DegreeData.point_scale({v: int(v in s) for v in verts}), params)[1]
                    for s in closed), default=-np.inf)
        assert stability._subobject_top(rep, grid, built) == best, seed
        checked += 1
    assert checked > 40


def test_oracle_reads_no_end_below_the_largest_subobject_slope(monkeypatch):
    # criterion-4 draw 5006 at sigma = 1 (dims (1, 3)): no coordinate member
    # reaches the largest grid slope, but one reaches the largest slope of a
    # row that a subobject can have, so End(V) is never built
    rep, tau = random_two_vertex_instance(5006)
    params = qf.StabilityParams({"1": 1.0, "2": 1.0}, tau)
    with monkeypatch.context() as m:
        m.setattr(stability, "dimension_grid", lambda rep, params: None)
        full = qf.stability_oracle(rep, params)

    def refuse(*args):
        raise AssertionError("the oracle reached End(V)")

    monkeypatch.setattr(stability, "_endomorphisms", refuse)
    monkeypatch.setattr(stability, "_endomorphism_family", refuse)
    verdict = qf.stability_oracle(rep, params)
    assert verdict.tag == "unstable"
    assert _check_payload(verdict) == _check_payload(full)


def test_oracle_builds_no_end_once_a_coordinate_member_reaches_the_top_slope(monkeypatch):
    # on criterion-4 draw 5012 at sigma = 1 the coordinate member V_2 has the
    # largest slope of any proper dimension vector, so the oracle neither
    # computes End(V) nor starts its family, and reports what the full
    # enumeration reports
    rep, tau = random_two_vertex_instance(5012)
    params = qf.StabilityParams({"1": 1.0, "2": 1.0}, tau)
    with monkeypatch.context() as m:
        m.setattr(stability, "dimension_grid", lambda rep, params: None)
        full = qf.stability_oracle(rep, params)

    def refuse(*args):
        raise AssertionError("the oracle reached End(V)")

    monkeypatch.setattr(stability, "_endomorphisms", refuse)
    monkeypatch.setattr(stability, "_endomorphism_family", refuse)
    verdict = qf.stability_oracle(rep, params)
    assert verdict.tag == "unstable"
    assert verdict.witness.dims == {"1": 0, "2": 3}
    assert _check_payload(verdict) == _check_payload(full)


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


@pytest.mark.parametrize("k", range(8))
def test_extracted_witnesses_have_a_real_positive_largest_entry(k):
    # the Jordan block of the cli-batch manifests carries a phase on its
    # arrow; the flow's kernel e_1 came out as -e_1 where LAPACK's
    # eigenvector sign said so (cli-batch seeds 2 and 7919)
    phases = [1.0, 0.8895389068513451 - 0.456859423890669j, 0.9910372652906421 + 0.13358569835594525j]
    phase = phases[k] if k < len(phases) else np.exp(2j * np.pi * k / 8)
    rep = qf.build_rep(
        qf.Quiver.from_lists(["v"], [("phi", "v", "v")]), None, {"v": 2},
        {"phi": [np.array([[0.0, phase], [0.0, 0.0]])]},
    )
    params = jordan_params()
    steps = qf.destabilizer_extract(rep, params, qf.flow_solve(rep, params))
    assert [st.witness.dims for st in steps] == [{"v": 1}]
    for st in steps:
        for b in st.witness.basis.values():
            lead = b[np.abs(b).argmax(axis=0), np.arange(b.shape[1])]
            assert np.all(lead.imag == 0) and np.all(lead.real > 0), lead


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


def test_extract_reuses_certified_steps(monkeypatch):
    # a diverged report carries the steps its proof read, so extraction
    # rounds only the cuts at or below mu - SLOPE_TOL, and merged in cut
    # order they are the full reading, byte for byte
    polished = [0]
    polish = flow._polish_invariant

    def counted(*args):
        polished[0] += 1
        return polish(*args)

    monkeypatch.setattr(flow, "_polish_invariant", counted)
    diverged = saved = 0
    for k in range(30):
        rep, tau = random_two_vertex_instance(5000 + k)
        params = qf.StabilityParams({"1": 2.0, "2": 3.0}, tau)
        rpt = qf.flow_solve(rep, params)
        if rpt.status != "diverged":
            assert rpt.certified_steps is None
            continue
        diverged += 1
        polished[0] = 0
        want = flow.filtration_steps(rep, params, rpt.limit_direction)
        full = polished[0]
        polished[0] = 0
        got = qf.destabilizer_extract(rep, params, rpt)
        saved += full - polished[0]
        assert [(st.boundary, st.slope, _basis_bytes(st.witness)) for st in got] == [
            (st.boundary, st.slope, _basis_bytes(st.witness)) for st in want
        ]
    assert diverged >= 10 and saved > 0


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


@pytest.mark.parametrize(
    "basis, error",
    [
        ({"1": np.eye(2)[:, :1], "2": np.eye(1)}, ShapeMismatch),
        ({"1": np.eye(1), "2": np.eye(1), "3": np.eye(1)}, QuiverMismatch),
        ({"1": np.ones((1, 2)), "2": np.eye(1)}, DimensionOverflow),
    ],
    ids=["wrong-ambient-size", "unknown-vertex", "too-many-columns"],
)
def test_degree_identity_refuses_malformed_witnesses(basis, error):
    # these were a numpy ValueError, a raw KeyError and a mismatch of 1.0;
    # the witness is refused as check_subrep refuses it, before the metric
    # is read
    rep, params = kronecker_rep(), kronecker_params(t=1.0)
    report = qf.flow_solve(rep, params)
    assert report.converged
    witness = qf.SubrepWitness(basis)
    with pytest.raises(error):
        qf.subrep_degree_identity(rep, report.final_metric, witness, params)
    with pytest.raises(error):
        qf.check_subrep(rep, witness)


def test_degree_identity_reads_one_chart(monkeypatch):
    # m~ and psi come from one chart of the metric: its eigh at each vertex
    # and one for the twist weight of arrow a; the conditioning check reads
    # the chart's eigenvalues.  Charting the metric once per term took 8
    # eigh and 2 solve calls here, and a separate conditioning check 2
    # eigvalsh
    rep, tau = twisted_instance(6013)
    params = qf.StabilityParams(SIGMAS[2][0], tau)
    report = qf.flow_solve(rep, params)
    assert report.converged and dict(rep.dims) == {"1": 2, "2": 2}
    summand = next(stability._endomorphism_family(rep, stability._endomorphisms(rep)))
    calls = {"eigh": 0, "eigvalsh": 0, "solve": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    assert qf.subrep_degree_identity(rep, report.final_metric, summand, params) <= 1e-8
    assert calls == {"eigh": 3, "eigvalsh": 0, "solve": 0}


def test_metric_checks_read_the_chart():
    # a metric of condition above 1e12 is refused by both functions that
    # take their conditioning check from the chart; zero-dimensional
    # vertices are accepted
    rep = kronecker_rep(dims=(2, 1))
    params = kronecker_params()
    bad = MetricState({"1": np.diag([1e13, 1.0]).astype(complex), "2": np.eye(1, dtype=complex)})
    with pytest.raises(SingularMetric, match="condition number exceeds 1e\\+12"):
        qf.moment_map_residual(rep, bad, params)
    with pytest.raises(SingularMetric, match="condition number exceeds 1e\\+12"):
        qf.subrep_degree_identity(rep, bad, full_witness(rep), params)
    empty = kronecker_rep(dims=(1, 0))
    zero = qf.StabilityParams({"1": 1.0, "2": 1.0}, {"1": 0.0, "2": 0.0})
    metric = MetricState.identity(empty)
    assert qf.moment_map_residual(empty, metric, zero)["2"].shape == (0, 0)
    assert qf.subrep_degree_identity(empty, metric, full_witness(empty), zero) == 0.0


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


# ---------------------------------------------------------------------------
# the flow against the oracle


def _cross_check_calls():
    """The baseline's oracle set with one sigma per draw: criterion-4,
    twisted and three-vertex draws at sigma index k mod 3 (criterion 4
    shows that their tags do not depend on sigma), and the one-dimensional
    draws with integer tau."""
    for k in range(100):
        rep, tau = random_two_vertex_instance(5000 + k)
        yield rep, qf.StabilityParams(SIGMAS[2][k % 3], tau)
    for k in range(40):
        rep, tau = twisted_instance(6000 + k)
        yield rep, qf.StabilityParams(SIGMAS[2][k % 3], tau)
    for k in range(12):
        rep, tau = three_vertex_instance(6500 + k)
        yield rep, qf.StabilityParams(SIGMAS[3][k % 3], tau)
    yield from filter(None, (random_onedim_instance(seed, integer_tau=True) for seed in range(30000, 30200)))


def test_flow_stop_agrees_with_oracle_tag():
    # the paper's correspondence read two independent ways: a metric exists
    # exactly for polystable objects, and each divergence proof names a
    # subobject that the oracle must see too.  A no-complement stop does not
    # by itself mean strictly semistable: one-dimensional draw 30050 is
    # unstable
    seen = set()
    for rep, params in _cross_check_calls():
        report = qf.flow_solve(rep, params)
        tag = qf.stability_oracle(rep, params).tag
        seen.add((report.stop, tag))
        assert (report.stop == "tol") == (tag in ("stable", "polystable")), (report.stop, tag)
        assert report.status == ("converged" if report.stop == "tol" else "diverged")
        if report.stop == "certificate":
            assert tag == "unstable"
        elif report.stop == "no-complement":
            assert tag in ("strictly-semistable", "unstable")
    assert seen == {
        ("tol", "stable"), ("tol", "polystable"), ("certificate", "unstable"),
        ("no-complement", "strictly-semistable"), ("no-complement", "unstable"),
    }
