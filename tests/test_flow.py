import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quiverforge as qf
from quiverforge._linalg import eigh_checked, funm_herm, herm, random_hermitian, random_unitary
from quiverforge.errors import (
    IllConditionedSpectrum,
    InadmissibleParameters,
    NonFiniteData,
    NonpositiveScale,
    QuiverMismatch,
    ShapeMismatch,
    SingularMetric,
    ZeroTotalRank,
)
from quiverforge import flow, slope
from quiverforge.flow import (
    PSI_EXP,
    PSI_REMAINDER,
    MetricState,
    apply_bivariate_rep,
    difference_quotient,
    eigen_calculus,
    filtration_steps,
    gauge_project,
)
from quiverforge.gallery import kronecker_quiver
from quiverforge import _linalg, reps
from quiverforge.reps import module_map_operator
from conftest import (
    geodesic_energy,
    h_selfadjoint_direction,
    jordan_params,
    jordan_rep,
    kronecker_params,
    kronecker_rep,
    random_two_vertex_instance,
    two_arrow_kron_rep,
)


# ---------------------------------------------------------------------------
# adjoints


def test_adjoint_euclidean_is_conjugate_transpose(rng):
    rep, tau = random_two_vertex_instance(7)
    metric = MetricState.identity(rep)
    adj = qf.adjoint(rep, metric)
    for a in rep.quiver.arrows:
        for sl, ad in zip(rep.slices[a.name], adj[a.name]):
            assert np.abs(ad - sl.conj().T).max() < 1e-14


def test_adjoint_scalar_formula():
    rep = kronecker_rep(phi=2.0 + 1.0j)
    h1, h2 = 0.7, 1.9
    metric = MetricState({"1": np.array([[h1]]), "2": np.array([[h2]])})
    adj = qf.adjoint(rep, metric)
    assert adj["a0"][0][0, 0] == pytest.approx((2.0 - 1.0j) * h2 / h1)


def test_adjoint_pairing_identity(rng):
    # (phi u, w)_{H_head} = (u, phi* w)_{H_tail (x) q} on random vectors
    q = kronecker_quiver(1)
    twist = qf.TwistSpec({"a0": 2}, {"a0": np.array([[2.0, 0.3j], [-0.3j, 1.0]])})
    d1, d2 = 3, 2
    slices = {"a0": [rng.normal(size=(d2, d1)) + 1j * rng.normal(size=(d2, d1)) for _ in range(2)]}
    rep = qf.build_rep(q, twist, {"1": d1, "2": d2}, slices)
    h = {
        "1": herm(random_hermitian(rng, d1) @ random_hermitian(rng, d1).conj().T) + 3 * np.eye(d1),
        "2": herm(random_hermitian(rng, d2) @ random_hermitian(rng, d2).conj().T) + 3 * np.eye(d2),
    }
    metric = MetricState(h)
    adj = qf.adjoint(rep, metric)
    qmat = twist.metric("a0")
    big_phi = sum(np.kron(sl, np.eye(1, 2, k)) for k, sl in enumerate(rep.slices["a0"]))
    big_adj = sum(np.kron(ad, np.eye(2, 1, -k)) for k, ad in enumerate(adj["a0"]))
    dom_metric = np.kron(h["1"], qmat)
    for _ in range(100):
        u = rng.normal(size=d1 * 2) + 1j * rng.normal(size=d1 * 2)
        w = rng.normal(size=d2) + 1j * rng.normal(size=d2)
        lhs = w.conj() @ h["2"] @ (big_phi @ u)
        rhs = (big_adj @ w).conj() @ dom_metric @ u
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_adjoint_singular_metric():
    rep = kronecker_rep()
    metric = MetricState({"1": np.array([[1e13]]), "2": np.array([[1.0]])})
    qf.adjoint(rep, metric)  # per-vertex conditioning is fine
    bad = MetricState({"1": np.diag([1e13, 1.0]).astype(complex), "2": np.eye(1, dtype=complex)})
    rep2 = kronecker_rep(dims=(2, 1))
    with pytest.raises(SingularMetric):
        qf.adjoint(rep2, bad)


# ---------------------------------------------------------------------------
# moment map


def test_moment_map_zero_data():
    q = kronecker_quiver(1)
    rep = qf.build_rep(q, None, {"1": 2, "2": 2}, {})
    params = qf.StabilityParams({"1": 1, "2": 1}, {"1": 0.0, "2": 0.0})
    m = qf.moment_map_residual(rep, MetricState.identity(rep), params)
    assert all(np.abs(mv).max() == 0.0 for mv in m.values())


def test_moment_map_kronecker_solution():
    rep = kronecker_rep(phi=1.0)
    params = kronecker_params(t=1.0)
    m = qf.moment_map_residual(rep, MetricState.identity(rep), params)
    assert abs(m["1"][0, 0]) < 1e-15 and abs(m["2"][0, 0]) < 1e-15


def test_moment_map_jordan_hand_formula():
    rep = jordan_rep()
    params = jordan_params()
    h1, h2 = 0.8, 2.5
    metric = MetricState({"v": np.diag([h1, h2]).astype(complex)})
    m = qf.moment_map_residual(rep, metric, params)["v"]
    want = np.diag([h1 / h2, -h1 / h2])
    assert np.abs(m - want).max() < 1e-14


def test_moment_map_h_selfadjoint(rng):
    rep, tau = random_two_vertex_instance(11)
    params = qf.StabilityParams({"1": 1.0, "2": 1.0}, tau)
    s = {v: random_hermitian(rng, rep.dims[v], 0.4) for v in rep.quiver.vertices}
    metric = MetricState.from_log(s)
    m = qf.moment_map_residual(rep, metric, params)
    for v, mv in m.items():
        h = metric.h[v]
        star = np.linalg.inv(h) @ mv.conj().T @ h
        assert np.abs(star - mv).max() < 1e-12 * (1 + np.abs(mv).max())


# ---------------------------------------------------------------------------
# energy


def test_kempf_ness_zero():
    rep = kronecker_rep()
    params = kronecker_params()
    s = {"1": np.zeros((1, 1)), "2": np.zeros((1, 1))}
    assert qf.kempf_ness(rep, s, params) == pytest.approx(0.0)


def test_kempf_ness_kronecker_closed_form():
    rep = kronecker_rep(phi=1.0)
    params = kronecker_params(t=1.0)
    for t_val in (0.3, -1.2, 2.0):
        s = {"1": np.array([[-t_val / 2]]), "2": np.array([[t_val / 2]])}
        want = np.exp(t_val) - 1.0 - t_val
        assert qf.kempf_ness(rep, s, params) == pytest.approx(want, abs=1e-12)


def test_kempf_ness_matches_metric_form(rng):
    rep, tau = random_two_vertex_instance(5)
    params = qf.StabilityParams({"1": 1.0, "2": 1.0}, tau)
    s = {v: random_hermitian(rng, rep.dims[v], 0.5) for v in rep.quiver.vertices}
    a = qf.kempf_ness(rep, s, params)
    b = qf.kempf_ness_metric(rep, MetricState.from_log(s), params)
    assert a == pytest.approx(b, abs=1e-10 * (1 + abs(a)))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_kempf_ness_cocycle(seed):
    # M(K,H) + M(H,J) = M(K,J); holds exactly, commuting blocks or not
    rng = np.random.default_rng(seed)
    rep, tau = random_two_vertex_instance(rng.integers(10**6))
    params = qf.StabilityParams({"1": 1.0, "2": 1.0}, tau)
    mk = lambda: MetricState.from_log(
        {v: random_hermitian(rng, rep.dims[v], 0.5) for v in rep.quiver.vertices}
    )
    h, j = mk(), mk()
    k = MetricState.identity(rep)
    lhs = qf.kempf_ness_metric(rep, h, params, k) + qf.kempf_ness_metric(rep, j, params, h)
    rhs = qf.kempf_ness_metric(rep, j, params, k)
    assert lhs == pytest.approx(rhs, abs=1e-10 * (1 + abs(rhs)))


# ---------------------------------------------------------------------------
# eigenvalue calculus


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_eigh_checked_refuses_a_non_finite_spectrum(bad):
    # nan > x is False, so a comparison-based check lets a NaN through
    with pytest.raises(IllConditionedSpectrum), np.errstate(invalid="ignore"):
        eigh_checked(np.array([[bad, 0.0], [0.0, 1.0]]))


def test_eigen_calculus_identity_returns_s(rng):
    s = {"v": random_hermitian(rng, 3)}
    table = qf.ScalarFunctionTable("id", unary=lambda x: x)
    out = eigen_calculus(s, table)
    assert np.abs(out["v"] - s["v"]).max() < 1e-12


def test_eigen_calculus_product_form(rng):
    # F(x,y) = e^x e^{-y} acting on slices equals exp(s_head) phi exp(-s_tail)
    rep, _ = random_two_vertex_instance(3)
    s = {v: random_hermitian(rng, rep.dims[v], 0.7) for v in rep.quiver.vertices}
    out = apply_bivariate_rep(s, PSI_EXP, rep)
    from quiverforge._linalg import expm_herm

    for a in rep.quiver.arrows:
        eh = expm_herm(s[a.head])
        et = expm_herm(-s[a.tail])
        for sl, got in zip(rep.slices[a.name], out[a.name]):
            assert np.abs(got - eh @ sl @ et).max() < 1e-12 * (1 + np.abs(got).max())


def test_psi_remainder_scalar_multiple():
    # s = lambda * id scales every coefficient by 1/2
    rep = kronecker_rep(phi=3.0)
    lam = 0.8
    s = {"1": lam * np.eye(1), "2": lam * np.eye(1)}
    out = apply_bivariate_rep(s, PSI_REMAINDER, rep)
    assert out["a0"][0][0, 0] == pytest.approx(1.5)


def test_psi_remainder_diagonal_value():
    f = PSI_REMAINDER.bivariate
    assert f(np.array(1.0), np.array(1.0)) == pytest.approx(0.5)
    assert f(np.array(0.0), np.array(1e-9)) == pytest.approx(0.5, abs=1e-9)
    assert f(np.array(0.0), np.array(2.0)) == pytest.approx((np.e**2 - 3.0) / 4.0)


def test_difference_quotient_table():
    table = difference_quotient(np.exp, np.exp)
    f = table.bivariate
    assert f(np.array(1.0), np.array(1.0)) == pytest.approx(np.e)
    assert f(np.array(0.0), np.array(1.0)) == pytest.approx(np.e - 1.0)


# ---------------------------------------------------------------------------
# gradient


def test_gradient_vanishes_at_minimum():
    rep = kronecker_rep(phi=1.0)
    params = kronecker_params(t=1.0)
    g = qf.kempf_ness_gradient(rep, {"1": np.zeros((1, 1)), "2": np.zeros((1, 1))}, params)
    assert max(np.abs(gv).max() for gv in g.values()) < 1e-14


def test_gradient_finite_difference(rng):
    failures = 0
    for seed in range(10):
        rep, tau = random_two_vertex_instance(300 + seed)
        params = qf.StabilityParams({"1": 1.0, "2": 1.0}, tau)
        s = {v: random_hermitian(rng, rep.dims[v], 0.4) for v in rep.quiver.vertices}
        metric = MetricState.from_log(s)
        g = qf.kempf_ness_gradient(rep, s, params)
        u = h_selfadjoint_direction(metric, rng)
        pair = sum(float(np.real(np.trace(g[v] @ u[v]))) for v in rep.quiver.vertices)
        h = 1e-5
        fd = (geodesic_energy(rep, metric, params, u, h) - geodesic_energy(rep, metric, params, u, -h)) / (2 * h)
        if abs(pair - fd) > 1e-6 * (1 + abs(fd)):
            failures += 1
    assert failures == 0


def test_second_difference_nonnegative(rng):
    for seed in range(10):
        rep, tau = random_two_vertex_instance(400 + seed)
        params = qf.StabilityParams({"1": 1.0, "2": 1.0}, tau)
        s = {v: random_hermitian(rng, rep.dims[v], 0.3) for v in rep.quiver.vertices}
        metric = MetricState.from_log(s)
        u = h_selfadjoint_direction(metric, rng)
        h = 1e-4
        second = (
            geodesic_energy(rep, metric, params, u, h)
            - 2 * geodesic_energy(rep, metric, params, u, 0.0)
            + geodesic_energy(rep, metric, params, u, -h)
        ) / h**2
        assert second >= -1e-9


# ---------------------------------------------------------------------------
# Hessian


def _h_frame(rep, metric):
    """H^{1/2} factors and the H-frame slices H_head^{1/2} phi H_tail^{-1/2},
    twist slices rotated by (q^{-1})^{1/2}."""
    half = {}
    for v, h in metric.h.items():
        w, u = np.linalg.eigh(h)
        half[v] = ((u * np.sqrt(w)) @ u.conj().T, (u / np.sqrt(w)) @ u.conj().T)
    psi = {}
    for a in rep.quiver.arrows:
        w, u = np.linalg.eigh(rep.twist.metric_inv(a.name))
        root = (u * np.sqrt(w)) @ u.conj().T
        tilde = [half[a.head][0] @ sl @ half[a.tail][1] for sl in rep.slices[a.name]]
        psi[a.name] = [sum(root[k, j] * t for k, t in enumerate(tilde)) for j in range(len(tilde))]
    return half, psi


def _hermitian_kernel_dim(rep, psi):
    """Real dimension of the Hermitian u with u_head psi = psi u_tail."""
    cols = []
    for v in rep.quiver.vertices:
        n = rep.dims[v]
        for i in range(n):
            for j in range(n):
                # e_ij + e_ji for i <= j and i (e_ij - e_ji) for i > j span
                # the Hermitian matrices over the reals
                e = np.zeros((n, n), dtype=complex)
                if i <= j:
                    e[i, j] += 1.0
                    e[j, i] += 1.0
                else:
                    e[i, j], e[j, i] = 1j, -1j
                cols.append(np.concatenate(
                    [e.ravel() if x == v else np.zeros(rep.dims[x] ** 2) for x in rep.quiver.vertices]
                ))
    op = module_map_operator(rep, psi) @ np.array(cols).T
    sv = np.linalg.svd(np.vstack([op.real, op.imag]), compute_uv=False)
    return int(np.sum(sv <= 1e-10 * sv.max()))


def _check_hessian(rep, params, metric, rng):
    # |L u|^2 on the H-frame direction u equals the second derivative of the
    # energy along H^{1/2} e^{tu} H^{1/2}
    half, psi = _h_frame(rep, metric)
    direction = h_selfadjoint_direction(metric, rng)
    u = np.concatenate([herm(half[v][0] @ direction[v] @ half[v][1]).ravel() for v in rep.quiver.vertices])
    hess = float(np.linalg.norm(module_map_operator(rep, psi) @ u) ** 2)
    energy = lambda t: geodesic_energy(rep, metric, params, direction, t)
    diff = lambda h: (energy(h) - 2 * energy(0.0) + energy(-h)) / h**2
    second = (4 * diff(5e-4) - diff(1e-3)) / 3  # Richardson: O(h^4) truncation
    assert abs(hess - second) <= 1e-6 * hess


def test_hessian_is_second_derivative_of_energy(rng):
    for seed in range(10):
        rep, tau = random_two_vertex_instance(500 + seed)
        params = qf.StabilityParams({"1": 1.0, "2": 1.0}, tau)
        s = {v: random_hermitian(rng, rep.dims[v], 0.4) for v in rep.quiver.vertices}
        _check_hessian(rep, params, MetricState.from_log(s), rng)


def test_hessian_twisted_second_derivative(rng):
    # a multiplicity-2 arrow with a non-diagonal twist weight
    q = kronecker_quiver(1)
    twist = qf.TwistSpec({"a0": 2}, {"a0": np.array([[1.5, 0.2j], [-0.2j, 0.9]])})
    rep = qf.build_rep(
        q, twist, {"1": 2, "2": 3},
        {"a0": [rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)) for _ in range(2)]},
    )
    params = qf.StabilityParams({"1": 1.0, "2": 1.0}, {"1": -0.3, "2": 0.2})
    for _ in range(5):
        s = {v: random_hermitian(rng, rep.dims[v], 0.5) for v in ("1", "2")}
        _check_hessian(rep, params, MetricState.from_log(s), rng)


def test_hessian_kernel_is_hermitian_commutant():
    # ker L on Hermitian u is the selfadjoint part of End(V): 1 for a stable
    # rep, 4 for R + R (End = gl(2)) and 2 for R + R' with R, R' stable,
    # non-isomorphic and of one slope (End = C x C)
    r = two_arrow_kron_rep((1.0, 2.0))
    r_other = two_arrow_kron_rep((1.0, -1.0))
    for rep, want in ((r, 1), (qf.direct_sum(r, r), 4), (qf.direct_sum(r, r_other), 2)):
        _, psi = _h_frame(rep, MetricState.identity(rep))
        assert _hermitian_kernel_dim(rep, psi) == want


def test_flow_metric_makes_the_stabilizer_selfadjoint():
    # R + R in a general frame, phi_a = g_2 phi_a g_1^{-1}: at the identity
    # the selfadjoint part of End(V) = gl(2) is the commutant of M^dagger M,
    # M = g_2 g_1^{-1} (dimension 2); at the flow's metric End(V) is a
    # *-algebra again, so all 4 dimensions come back
    rng = np.random.default_rng(3)
    r = two_arrow_kron_rep((1.0, 2.0))
    rep0 = qf.direct_sum(r, r)
    g = {v: rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for v in ("1", "2")}
    rep = qf.build_rep(
        rep0.quiver, None, rep0.dims,
        {a.name: [g[a.head] @ sl @ np.linalg.inv(g[a.tail]) for sl in rep0.slices[a.name]]
         for a in rep0.quiver.arrows},
    )
    assert _hermitian_kernel_dim(rep, _h_frame(rep, MetricState.identity(rep))[1]) == 2
    rpt = qf.flow_solve(rep, kronecker_params(t=1.0))
    assert rpt.converged
    assert _hermitian_kernel_dim(rep, _h_frame(rep, rpt.final_metric)[1]) == 4


# ---------------------------------------------------------------------------
# the flow


def test_flow_kronecker_converges_to_closed_form():
    for phi, t in ((1.0, 1.0), (2.0, 0.5), (1 + 1j, 2.0)):
        rep = kronecker_rep(phi=phi)
        params = kronecker_params(t=t)
        rpt = qf.flow_solve(rep, params)
        assert rpt.converged and rpt.residual_norm <= 1e-10
        h = rpt.final_metric.h
        ratio = (h["2"][0, 0] / h["1"][0, 0]).real
        assert abs(ratio - t / abs(phi) ** 2) < 1e-8


def test_flow_jordan_diverges():
    rpt = qf.flow_solve(jordan_rep(), jordan_params())
    assert rpt.status == "diverged"
    assert rpt.limit_direction is not None
    assert rpt.monotone
    # strictly semistable: the kernel line has the total slope and no
    # invariant complement, which proves that no metric exists
    assert rpt.stop == "no-complement"


def test_conjugated_jordan_flows_prove_no_complement():
    # the verdict must not depend on the frame: each conjugated, scaled
    # Jordan block ends on the proof, and extraction returns its kernel
    params = jordan_params()
    nil = np.array([[0.0, 1.0], [0.0, 0.0]])
    for seed in range(6):
        u = random_unitary(np.random.default_rng(seed), 2)
        kernel = np.outer(u[:, 0], u[:, 0].conj())
        for scale in (0.5, 1.0, 2.0):
            rep = qf.build_rep(
                jordan_rep().quiver, None, {"v": 2}, {"phi": [scale * u @ nil @ u.conj().T]}
            )
            rpt = qf.flow_solve(rep, params)
            assert (rpt.status, rpt.stop) == ("diverged", "no-complement"), (seed, scale)
            steps = qf.destabilizer_extract(rep, params, rpt)
            assert len(steps) == 1
            b = steps[0].witness.basis["v"]
            assert np.abs(b @ b.conj().T - kernel).max() < 1e-6


def test_filtration_keeps_an_exactly_invariant_cut():
    # J + J with direction diag(-1, 1, -1, 1): the cut span(e1, e3) is ker
    # phi, exactly invariant; the leakage form is degenerate there, so a
    # polish would trade it for another invariant plane
    nil = np.zeros((4, 4))
    nil[0, 1] = nil[2, 3] = 1.0
    rep = qf.build_rep(jordan_rep().quiver, None, {"v": 4}, {"phi": [nil]})
    direction = {"v": np.diag([-1.0, 1.0, -1.0, 1.0]).astype(complex)}
    (step,) = filtration_steps(rep, jordan_params(), direction)
    b = step.witness.basis["v"]
    assert np.abs(b @ b.conj().T - np.diag([1.0, 0.0, 1.0, 0.0])).max() < 1e-12


def test_flow_stops_on_certificate():
    # the criterion-4 draws at sigma = 1: every divergent flow stops on an
    # exact certificate within a few checkpoints, and extraction from the
    # report returns that certified step
    sigma = {"1": 1.0, "2": 1.0}
    diverged = 0
    for seed in range(100):
        rep, tau = random_two_vertex_instance(5000 + seed)
        params = qf.StabilityParams(sigma, tau)
        rpt = qf.flow_solve(rep, params)
        if rpt.status != "diverged":
            assert rpt.status == "converged" and rpt.stop == "tol"
            continue
        diverged += 1
        assert rpt.stop == "certificate"
        assert rpt.iterations <= 32
        _, mu = qf.degree_and_slope(rep, params)
        assert any(
            qf.check_subrep(rep, step.witness)[0]
            and 0 < step.witness.total_dim < rep.total_dim
            and step.slope > mu
            for step in qf.destabilizer_extract(rep, params, rpt)
        )
    assert diverged > 0


CRITERION4_SIGMAS = ({"1": 1.0, "2": 1.0}, {"1": 2.0, "2": 3.0}, {"1": 5.0, "2": 1.0})


def test_divergent_flows_stay_above_the_semistability_bound():
    # an unstable object has a destabilizing invariant subobject, whose
    # moment-weight bound holds at every metric: no iterate of a divergent
    # criterion-4 flow goes below delta
    diverged = 0
    for seed in range(100):
        rep, tau = random_two_vertex_instance(5000 + seed)
        for sigma in CRITERION4_SIGMAS:
            params = qf.StabilityParams(sigma, tau)
            rpt = qf.flow_solve(rep, params)
            if rpt.status != "diverged":
                continue
            diverged += 1
            delta, _ = flow._semistability_bound(rep, params, qf.degree_and_slope(rep, params)[1])
            assert min(row[2] for row in rpt.iter_log) >= delta, (seed, sigma)
    assert diverged == 186


def test_semistability_bound_builds_no_oversized_grid(monkeypatch):
    # 17 vertices of dimension 2 have 3^17 dimension vectors, several GiB
    # of grid; above the row limit the shared kernel gives no grid and the
    # bound is (0, True), which rules no proof reading out
    indices = np.indices

    def guarded(dimensions, *args, **kwargs):
        assert math.prod(dimensions) <= flow.BOUND_GRID_ROWS, dimensions
        return indices(dimensions, *args, **kwargs)

    monkeypatch.setattr(np, "indices", guarded)
    verts = [str(i) for i in range(17)]
    q = qf.Quiver.from_lists(verts, [(f"a{i}", verts[i], verts[i + 1]) for i in range(16)])
    rep = qf.build_rep(q, None, {v: 2 for v in verts})
    params = qf.StabilityParams({v: 1.0 for v in verts}, {v: 0.0 for v in verts})
    assert slope.dimension_grid(rep, params) is None
    assert flow._semistability_bound(rep, params, 0.0) == (0.0, True)


def test_converged_flow_decomposes_its_final_metric_once(monkeypatch):
    # the final metric is checked against the eigenvalues of the chart it
    # is built from, so packaging it runs no eigvalsh of its own
    rep, params = kronecker_rep(n_arrows=3, dims=(2, 2)), kronecker_params()
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    rpt = qf.flow_solve(rep, params)
    assert rpt.status == "converged"
    assert calls == []


def test_converged_flows_skip_readings_below_the_bound(monkeypatch):
    # below the semistability bound the flow reads no cut for a proof, and
    # a cut whose own bound exceeds the residual goes to the closure without
    # the rounding; before the bound the 24 converged flows of draws
    # 5000-5029 made 51 readings and 108 roundings, and draw 5004 at
    # sigma = (2, 3) made 3 readings
    calls = {"read": 0, "polish": 0}
    steps = []
    read, polish, cuts = flow._certifies_instability, flow._polish_invariant, flow.filtration_steps

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def recorded(*args, **kwargs):
        out = cuts(*args, **kwargs)
        steps.extend((args[0], st) for st in out)
        return out

    monkeypatch.setattr(flow, "_certifies_instability", counted("read", read))
    monkeypatch.setattr(flow, "_polish_invariant", counted("polish", polish))
    monkeypatch.setattr(flow, "filtration_steps", recorded)
    totals = {"read": 0, "polish": 0}
    converged = 0
    for seed in range(30):
        rep, tau = random_two_vertex_instance(5000 + seed)
        for sigma in CRITERION4_SIGMAS:
            before = dict(calls)
            rpt = qf.flow_solve(rep, qf.StabilityParams(sigma, tau))
            if not rpt.converged:
                continue
            converged += 1
            for name in totals:
                totals[name] += calls[name] - before[name]
            if seed == 4 and sigma == CRITERION4_SIGMAS[1]:
                assert dict(rep.dims) == {"1": 1, "2": 1}
                assert calls["read"] == before["read"]
    assert converged == 24
    assert totals == {"read": 30, "polish": 54}
    assert steps and all(qf.check_subrep(rep, st.witness)[0] for rep, st in steps)


def test_converged_flows_take_newton_steps():
    # Newton steps converge quadratically: every converged criterion-4 draw
    # at sigma = 1 needs at most 15 iterations
    sigma = {"1": 1.0, "2": 1.0}
    converged = 0
    for seed in range(100):
        rep, tau = random_two_vertex_instance(5000 + seed)
        rpt = qf.flow_solve(rep, qf.StabilityParams(sigma, tau))
        if rpt.converged:
            converged += 1
            assert rpt.iterations <= 15 and rpt.residual_norm <= qf.FlowOptions().tol, seed
    assert converged > 0


def test_gl_frame_nilpotent_blocks_prove_no_complement():
    # the 3x3 nilpotent block in a general frame: the cuts of s/||s|| leak
    # above check_subrep's bound until the Gauss-Newton rounding makes the
    # kernels of phi and phi^2 exactly invariant
    nil = np.diag([1.0, 1.0], 1)
    for seed in range(12):
        re, im = (np.random.default_rng(k).normal(size=(3, 3)) for k in (seed, seed + 100))
        g = re + 1j * im
        rep = qf.build_rep(jordan_rep().quiver, None, {"v": 3}, {"phi": [g @ nil @ np.linalg.inv(g)]})
        rpt = qf.flow_solve(rep, jordan_params())
        assert rpt.status == "diverged" and rpt.stop in ("certificate", "no-complement"), seed


def test_small_jordan_block_takes_its_first_step():
    # the Newton step does not shrink with phi: a Jordan block scaled by
    # 1e-3, in unitary frames, is proved not polystable at iteration 1
    nil = np.array([[0.0, 1.0], [0.0, 0.0]])
    frames = [np.eye(2)] + [random_unitary(np.random.default_rng(seed), 2) for seed in range(3)]
    for u in frames:
        rep = qf.build_rep(jordan_rep().quiver, None, {"v": 2}, {"phi": [1e-3 * u @ nil @ u.conj().T]})
        rpt = qf.flow_solve(rep, jordan_params())
        assert (rpt.status, rpt.stop, rpt.iterations) == ("diverged", "no-complement", 1)


def test_flow_refuses_inadmissible():
    rep = kronecker_rep()
    bad = qf.StabilityParams({"1": 1.0, "2": 1.0}, {"1": 1.0, "2": 1.0})
    with pytest.raises(InadmissibleParameters):
        qf.flow_solve(rep, bad)


@pytest.mark.parametrize(
    "opts, error",
    [
        # an infinite scale starts from NaN; NaN and negative scales used to
        # be ignored as if they were 0
        (dict(init_scale=float("inf")), NonFiniteData),
        (dict(init_scale=float("nan")), NonFiniteData),
        (dict(init_scale=-2.0), NonpositiveScale),
        # a negative budget used to end max-iter on a solved instance, a
        # float one raised TypeError from range and True meant 1
        (dict(max_iter=-1), NonpositiveScale),
        (dict(max_iter=2.5), NonpositiveScale),
        (dict(max_iter=True), NonpositiveScale),
        # numpy raised TypeError on a float seed
        (dict(seed=1.5, init_scale=1.0), NonpositiveScale),
    ],
    ids=["scale-inf", "scale-nan", "scale-negative", "iter-negative", "iter-float", "iter-bool", "seed-float"],
)
def test_flow_refuses_invalid_options(opts, error):
    with pytest.raises(error):
        qf.flow_solve(kronecker_rep(), kronecker_params(), qf.FlowOptions(**opts))


def test_flow_refuses_a_random_start_beyond_the_chart_cap():
    # every trial step keeps ||s||_F <= EIG_CAP; a start above it raised
    # numpy's LinAlgError after overflowing exp(s)
    rep = kronecker_rep(n_arrows=2, dims=(2, 2))
    with pytest.raises(IllConditionedSpectrum, match="EIG_CAP = 175"):
        qf.flow_solve(rep, kronecker_params(), qf.FlowOptions(init_scale=1000, seed=1))


def test_flow_refuses_what_admissibility_refuses():
    # a trace defect of 1e-10: no solution can exist, so the flow must agree
    # with admissibility and refuse rather than report convergence
    rep = kronecker_rep()
    params = qf.StabilityParams({"1": 1.0, "2": 1.0}, {"1": -1.0, "2": 1.0 + 1e-10})
    assert not qf.admissibility(rep, params)
    with pytest.raises(InadmissibleParameters):
        qf.flow_solve(rep, params)


def test_flow_zero_total_rank():
    q = kronecker_quiver(1)
    rep = qf.build_rep(q, None, {"1": 0, "2": 0}, {})
    with pytest.raises(ZeroTotalRank):
        qf.flow_solve(rep, qf.StabilityParams({"1": 1, "2": 1}, {"1": 0.0, "2": 0.0}))


def test_flow_energy_monotone_along_iterates():
    rep, tau = random_two_vertex_instance(21)
    params = qf.StabilityParams({"1": 1.0, "2": 1.0}, tau)
    rpt = qf.flow_solve(rep, params)
    energies = [row[1] for row in rpt.iter_log]
    for a, b in zip(energies, energies[1:]):
        assert b <= a + 1e-10 * (1 + abs(a))
    assert rpt.monotone


def test_gauge_projection_idempotent(rng):
    rep, tau = random_two_vertex_instance(33)
    params = qf.StabilityParams({"1": 2.0, "2": 3.0}, tau)
    layout = flow._Layout(rep)
    sigma = layout.diagonal(params.sigma)
    u = layout.pack({v: random_hermitian(rng, rep.dims[v]) for v in rep.quiver.vertices}, "u")
    once = gauge_project(u, sigma)
    twice = gauge_project(once, sigma)
    assert np.abs(once - twice).max() < 1e-13
    assert not once[~layout.mask].any()
    tr = sum(params.sigma[v] * np.trace(b).real for v, b in layout.blocks(once).items())
    assert abs(tr) < 1e-12


def test_gauge_equivariance(rng):
    # unitary change of basis conjugates the moment map
    rep, tau = random_two_vertex_instance(8)
    params = qf.StabilityParams({"1": 1.0, "2": 1.0}, tau)
    g = {v: random_unitary(rng, rep.dims[v]) for v in rep.quiver.vertices}
    s = {v: random_hermitian(rng, rep.dims[v], 0.4) for v in rep.quiver.vertices}
    metric = MetricState.from_log(s)
    m = qf.moment_map_residual(rep, metric, params)
    moved = qf.build_rep(
        rep.quiver,
        rep.twist,
        rep.dims,
        {
            a.name: [g[a.head] @ sl @ g[a.tail].conj().T for sl in rep.slices[a.name]]
            for a in rep.quiver.arrows
        },
    )
    metric_g = MetricState({v: g[v] @ metric.h[v] @ g[v].conj().T for v in g})
    m_g = qf.moment_map_residual(moved, metric_g, params)
    for v in m:
        want = g[v] @ m[v] @ np.linalg.inv(g[v])
        assert np.abs(m_g[v] - want).max() < 1e-10


def test_scaling_covariance(rng):
    rep, tau = random_two_vertex_instance(14)
    s = {v: random_hermitian(rng, rep.dims[v], 0.4) for v in rep.quiver.vertices}
    metric = MetricState.from_log(s)
    for c in (0.5, 2.0, 10.0):
        params = qf.StabilityParams({"1": 1.0, "2": 1.0}, tau)
        scaled_params = qf.StabilityParams({"1": c, "2": c}, {v: c * tv for v, tv in tau.items()})
        scaled_rep = qf.build_rep(
            rep.quiver,
            rep.twist,
            rep.dims,
            {
                a.name: [np.sqrt(c) * sl for sl in rep.slices[a.name]]
                for a in rep.quiver.arrows
            },
        )
        m1 = qf.moment_map_residual(rep, metric, params)
        m2 = qf.moment_map_residual(scaled_rep, metric, scaled_params)
        for v in m1:
            assert np.abs(m2[v] - c * m1[v]).max() <= 1e-12 * (1 + c * np.abs(m1[v]).max())


def test_flow_uniqueness_up_to_scalar_on_stable_instance():
    rep = kronecker_rep(phi=1.3)
    params = kronecker_params(t=0.9)
    r1 = qf.flow_solve(rep, params, qf.FlowOptions(seed=1, init_scale=0.4))
    r2 = qf.flow_solve(rep, params, qf.FlowOptions(seed=2, init_scale=0.4))
    assert r1.converged and r2.converged
    # simple instance: one scalar freedom, pinned by the gauge, so the
    # metrics agree outright
    for v in ("1", "2"):
        ratio = r1.final_metric.h[v][0, 0] / r2.final_metric.h[v][0, 0]
        assert abs(ratio - 1.0) < 1e-8


def test_flow_twisted_closed_form():
    # twist rank 2 with a nontrivial weight: the solved metric ratio is
    # t over the inverse-weight magnitude of the slice vector
    q = kronecker_quiver(1)
    qmat = np.array([[2.0, 0.3j], [-0.3j, 1.0]])
    twist = qf.TwistSpec({"a0": 2}, {"a0": qmat})
    phi = np.array([1.0 + 0.5j, -0.7])
    rep = qf.build_rep(
        q, twist, {"1": 1, "2": 1},
        {"a0": [np.array([[phi[0]]]), np.array([[phi[1]]])]},
    )
    qinv = np.linalg.inv(qmat)
    phi_eff = float(np.real(sum(qinv[k, l] * phi[k] * np.conj(phi[l]) for k in range(2) for l in range(2))))
    for t in (0.8, 2.0):
        params = qf.StabilityParams({"1": 1.0, "2": 1.0}, {"1": -t, "2": t})
        r = qf.flow_solve(rep, params)
        assert r.converged and r.stop == "tol"
        ratio = (r.final_metric.h["2"][0, 0] / r.final_metric.h["1"][0, 0]).real
        assert abs(ratio - t / phi_eff) < 1e-8
    params = qf.StabilityParams({"1": 1.0, "2": 1.0}, {"1": 1.0, "2": -1.0})
    r = qf.flow_solve(rep, params)
    assert r.status == "diverged"
    steps = qf.destabilizer_extract(rep, params, r)
    assert steps[0].witness.dims == {"1": 0, "2": 1}
    assert steps[0].slope == pytest.approx(1.0, abs=1e-9)


def test_flow_with_zero_dimensional_vertex():
    q = kronecker_quiver(1)
    rep = qf.build_rep(q, None, {"1": 0, "2": 2}, {})
    params = qf.StabilityParams({"1": 1.0, "2": 1.0}, {"1": 3.0, "2": 0.0})
    r = qf.flow_solve(rep, params)
    assert r.converged
    v = qf.stability_oracle(rep, params, qf.OracleOptions(seed=0, n_random=20))
    assert v.tag == "polystable"


def _twisted_pair(rng):
    """Kronecker arrow of multiplicity 2 with a non-diagonal twist weight q."""
    q = kronecker_quiver(1)
    qmat = np.array([[1.5, 0.2j], [-0.2j, 0.9]])
    twist = qf.TwistSpec({"a0": 2}, {"a0": qmat})
    rep = qf.build_rep(
        q, twist, {"1": 2, "2": 2},
        {"a0": [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2)]},
    )
    return rep, qf.StabilityParams({"1": 1.0, "2": 1.0}, {"1": -0.3, "2": 0.3})


def test_kempf_ness_twisted_matches_metric_form(rng):
    rep, params = _twisted_pair(rng)
    s = {v: random_hermitian(rng, 2, 0.5) for v in ("1", "2")}
    a = qf.kempf_ness(rep, s, params)
    b = qf.kempf_ness_metric(rep, MetricState.from_log(s), params)
    assert a == pytest.approx(b, abs=1e-10 * (1 + abs(a)))


def _pairing(rep, x, adj):
    """Re sum_a tr(x_a adj_a) over the slices of every arrow."""
    return sum(
        float(np.real(np.trace(sl @ ad)))
        for a in rep.quiver.arrows
        for sl, ad in zip(x[a.name], adj[a.name])
    )


@pytest.mark.parametrize("seed", range(6))
def test_chart_kernel_matches_adjoint_formulas(seed):
    # the moment map, |phi|^2_H and both energies all come from the chart
    # kernel; these references do not: the public adjoint and the psi calculus
    rng = np.random.default_rng(seed)
    rep, params = _twisted_pair(rng)
    s = {v: random_hermitian(rng, 2, 1.0) for v in ("1", "2")}
    metric = MetricState.from_log(s)
    adj = qf.adjoint(rep, metric)
    want = {v: -params.tau[v] * np.eye(2, dtype=complex) for v in ("1", "2")}
    for a in rep.quiver.arrows:
        for sl, ad in zip(rep.slices[a.name], adj[a.name]):
            want[a.head] = want[a.head] + sl @ ad
            want[a.tail] = want[a.tail] - ad @ sl
    scale = max(np.abs(w).max() for w in want.values())
    for got in (qf.moment_map_residual(rep, metric, params), qf.kempf_ness_gradient(rep, s, params)):
        for v in want:
            assert np.abs(got[v] - want[v]).max() <= 1e-12 * scale
    assert qf.phi_norm_sq(rep, metric) == pytest.approx(_pairing(rep, rep.slices, adj), rel=1e-12)
    eye = qf.adjoint(rep, MetricState.identity(rep))
    psi_form = (
        _pairing(rep, apply_bivariate_rep(s, PSI_EXP, rep), eye)
        - _pairing(rep, rep.slices, eye)
        - sum(params.tau[v] * float(np.real(np.trace(s[v]))) for v in s)
    )
    tol = 1e-10 * (1 + abs(psi_form))
    assert qf.kempf_ness(rep, s, params) == pytest.approx(psi_form, abs=tol)
    assert qf.kempf_ness_metric(rep, metric, params) == pytest.approx(psi_form, abs=tol)


def test_non_positive_metrics_are_refused():
    # validate=False lets an indefinite form through; the kernel must refuse
    # it rather than return a negative norm squared or a NaN energy or H-norm
    rep = kronecker_rep()
    metric = MetricState({"1": -np.eye(1), "2": np.eye(1)}, validate=False)
    with pytest.raises(SingularMetric):
        qf.phi_norm_sq(rep, metric)
    with pytest.raises(SingularMetric):
        qf.kempf_ness_metric(rep, metric, kronecker_params())
    with pytest.raises(SingularMetric):
        qf.residual_norm_h(rep, metric, {"1": np.eye(1), "2": np.eye(1)})


@pytest.mark.parametrize(
    "bad",
    [np.full((2, 2), np.nan), np.diag([np.inf, 1.0]), np.array([[1.0, np.nan], [0.0, 1.0]])],
    ids=["nan", "inf-diagonal", "nan-off-diagonal"],
)
def test_non_finite_metrics_are_refused(bad):
    # every comparison with NaN is False, so check_hpd let these through
    rep = kronecker_rep(dims=(2, 2))
    with pytest.raises(NonFiniteData):
        MetricState({"1": bad, "2": np.eye(2)})
    with pytest.raises(NonFiniteData):
        qf.moment_map_residual(rep, MetricState({"1": bad, "2": np.eye(2)}, validate=False), kronecker_params())


def _chart_entry_points():
    rep, params = kronecker_rep(dims=(2, 2)), kronecker_params()
    return {
        "kempf_ness": lambda c: qf.kempf_ness(rep, c, params),
        "kempf_ness_gradient": lambda c: qf.kempf_ness_gradient(rep, c, params),
        "kempf_ness_metric": lambda c: qf.kempf_ness_metric(rep, MetricState(c, validate=False), params),
        "moment_map_residual": lambda c: qf.moment_map_residual(rep, MetricState(c, validate=False), params),
        "phi_norm_sq": lambda c: qf.phi_norm_sq(rep, MetricState(c, validate=False)),
        "residual_norm_h": lambda c: qf.residual_norm_h(rep, MetricState(c, validate=False), c),
    }


@pytest.mark.parametrize("entry", sorted(_chart_entry_points()))
@pytest.mark.parametrize(
    "collection, error, named",
    [
        ({"1": np.eye(2)}, QuiverMismatch, "'2'"),
        ({"1": np.eye(2), "2": np.eye(2), "3": np.eye(1)}, QuiverMismatch, "'3'"),
        ({"1": np.eye(3), "2": np.eye(2)}, ShapeMismatch, "'1'"),
    ],
    ids=["missing-vertex", "unknown-vertex", "wrong-shape"],
)
def test_chart_entry_points_refuse_a_collection_that_does_not_fit(entry, collection, error, named):
    # a raw KeyError or numpy's matmul ValueError escaped before the chart
    # was packed in one step
    with pytest.raises(error, match=named):
        _chart_entry_points()[entry](collection)


# ---------------------------------------------------------------------------
# the packed chart against the per-vertex arithmetic it replaced


def _reference_chart(rep, s):
    """Per-vertex eigen-data of s and H-frame slices, arrow by arrow."""
    eig = {v: eigh_checked(herm(sv)) for v, sv in s.items()}
    half = {v: ((u * np.exp(0.5 * w)) @ u.conj().T, (u * np.exp(-0.5 * w)) @ u.conj().T) for v, (w, u) in eig.items()}
    psi = {}
    for a in rep.quiver.arrows:
        c = funm_herm(rep.twist.metric_inv(a.name), np.sqrt)
        sl = rep.slices[a.name]
        rotated = [sum(c[k, j] * sl[k] for k in range(len(sl))) for j in range(len(sl))]
        psi[a.name] = [half[a.head][0] @ p @ half[a.tail][1] for p in rotated]
    return eig, psi


def _reference_moment(rep, s, psi, tau, c):
    m = {v: -tau[v] * np.eye(rep.dims[v], dtype=complex) for v in rep.quiver.vertices}
    energy = c
    for a in rep.quiver.arrows:
        for p in psi[a.name]:
            m[a.head] = m[a.head] + p @ p.conj().T
            m[a.tail] = m[a.tail] - p.conj().T @ p
            energy += float(np.linalg.norm(p)) ** 2
    energy -= sum(tau[v] * float(np.real(np.trace(s[v]))) for v in rep.quiver.vertices)
    return m, energy


def _reference_hermitian_basis(sizes):
    """Columns: the row-major entries of an orthonormal basis of the
    Hermitian matrices of each size, block by block (the column layout of
    module_map_operator)."""
    total = sum(n * n for n in sizes)
    out = np.zeros((total, total), dtype=complex)
    col = start = 0
    root = np.sqrt(0.5)
    for n in sizes:
        for i in range(n):
            out[start + i * n + i, col] = 1.0
            col += 1
            for j in range(i + 1, n):
                out[start + i * n + j, col] = out[start + j * n + i, col] = root
                out[start + i * n + j, col + 1] = 1j * root
                out[start + j * n + i, col + 1] = -1j * root
                col += 2
        start += n * n
    return out


def _reference_newton(rep, params, psi, m):
    verts = rep.quiver.vertices
    basis = _reference_hermitian_basis([rep.dims[v] for v in verts])
    op = module_map_operator(rep, psi) @ basis
    grad = (basis.conj().T @ np.concatenate([m[v].ravel() for v in verts])).real
    w, q = eigh_checked((op.conj().T @ op).real)
    keep = w > flow.PINV_RTOL * w[-1]
    x = basis @ -(q[:, keep] @ ((q[:, keep].conj().T @ grad) / w[keep])).real
    ends = np.cumsum([0] + [rep.dims[v] ** 2 for v in verts])
    u = {v: x[lo:hi].reshape(rep.dims[v], rep.dims[v]) for v, lo, hi in zip(verts, ends, ends[1:])}
    c = sum(params.sigma[v] * float(np.real(np.trace(u[v]))) for v in verts) / sum(
        params.sigma[v] * rep.dims[v] for v in verts
    )
    u = {v: u[v] - c * np.eye(rep.dims[v]) for v in verts}
    return u, sum(float(np.real(np.vdot(m[v], u[v]))) for v in verts)


def _reference_to_chart(eig, u):
    xi = {}
    for v, (w, q) in eig.items():
        d = w[None, :] - w[:, None]
        coeff = flow._dexp_inverse(d) * np.exp(0.5 * d)
        xi[v] = herm(q @ (coeff * (q.conj().T @ u[v] @ q)) @ q.conj().T)
    return xi


def _packed_kernel_rep(kind, rng):
    """Random representations covering the packed layout: a rank-2 twist with
    a non-diagonal weight, a loop, two parallel arrows, three vertices, and
    a zero-dimensional vertex."""
    g = lambda m, n: rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    qmat = np.array([[1.5, 0.2j], [-0.2j, 0.9]])
    if kind == "three-vertex":
        dims = {"1": 2, "2": 1, "3": 3}
        arrows = [("a", "1", "2"), ("b", "3", "3"), ("c", "1", "3"), ("d", "1", "3"), ("e", "3", "2")]
    else:
        dims = {"1": 2, "2": 0, "3": 2}
        arrows = [("a", "1", "3"), ("b", "1", "1"), ("c", "2", "3"), ("d", "3", "2"), ("e", "3", "1")]
    q = qf.Quiver.from_lists(list(dims), arrows)
    twist = qf.TwistSpec({"a": 2, "b": 1, "c": 1, "d": 1, "e": 1}, {"a": qmat})
    slices = {
        name: [g(dims[head], dims[tail]) for _ in range(twist.rank(name))] for name, tail, head in arrows
    }
    rep = qf.build_rep(q, twist, dims, slices)
    params = qf.StabilityParams({"1": 1.0, "2": 2.0, "3": 0.5}, {v: float(rng.normal()) for v in dims})
    return rep, params


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", ["three-vertex", "zero-vertex"])
def test_packed_chart_matches_the_per_vertex_arithmetic(kind, seed):
    rng = np.random.default_rng(seed)
    rep, params = _packed_kernel_rep(kind, rng)
    s = {v: random_hermitian(rng, rep.dims[v], 0.5) for v in rep.quiver.vertices}

    def close(got, want):
        for v in want:
            scale = max(np.abs(x).max(initial=0.0) for x in want.values())
            assert np.abs(got[v] - want[v]).max(initial=0.0) <= 1e-12 * scale, v

    eig, psi = _reference_chart(rep, s)
    m_ref, energy_ref = _reference_moment(rep, s, psi, params.tau, -3.0)
    u_ref, slope_ref = _reference_newton(rep, params, psi, m_ref)
    xi_ref = _reference_to_chart(eig, u_ref)

    layout = flow._Layout(rep)
    chart = flow._Chart.of_log(s, layout)
    layers = iter(chart.psi)
    for a in rep.quiver.arrows:
        for p in psi[a.name]:
            layer = next(layers).copy()
            assert np.abs(layer[layout.index[a.head], layout.index[a.tail]] - p).max(initial=0.0) <= 1e-12 * np.abs(p).max(initial=1.0)
            layer[layout.index[a.head], layout.index[a.tail]] = 0.0
            assert not layer.any()
    m, energy = chart.moment(layout.diagonal(params.tau), -3.0)
    close(layout.blocks(m), m_ref)
    assert not m[~layout.mask].any()
    assert energy == pytest.approx(energy_ref, rel=1e-12)
    u, slope = flow._newton_direction(chart, m, flow._hermitian_basis(layout), layout.diagonal(params.sigma))
    close(layout.blocks(u), u_ref)
    assert slope == pytest.approx(slope_ref, rel=1e-12)
    close(layout.blocks(chart.velocity(u)), xi_ref)


def test_flow_builds_no_module_map_operator_and_no_complement(monkeypatch):
    # the Newton step applies L to the Hermitian block basis in one
    # broadcast product, and each cut takes its complement from the
    # eigenvector columns above it
    def refuse(*args, **kwargs):
        raise AssertionError("called")

    for owner in (flow, reps):
        monkeypatch.setattr(owner, "module_map_operator", refuse, raising=False)
    for owner in (flow, _linalg):
        monkeypatch.setattr(owner, "complement_basis", refuse, raising=False)
    sigma = {"1": 1.0, "2": 1.0}
    diverged = 0
    for seed in range(5000, 5020):
        rep, tau = random_two_vertex_instance(seed)
        params = qf.StabilityParams(sigma, tau)
        rpt = qf.flow_solve(rep, params)
        if rpt.status == "diverged":
            diverged += 1
            assert qf.destabilizer_extract(rep, params, rpt)
    assert diverged > 0
