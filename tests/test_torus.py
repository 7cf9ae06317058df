import warnings

import numpy as np
import pytest

import quiverforge as qf
from quiverforge.errors import (
    GaugeViolation,
    InadmissibleParameters,
    NewtonStall,
    NonFiniteData,
    NonpositiveScale,
    NotFlatCase,
    QuiverMismatch,
    ShapeMismatch,
    UnsupportedDegrees,
)
from quiverforge.gallery import kronecker_quiver, two_way_quiver
from quiverforge import torus
from quiverforge.torus import (
    PotentialState,
    TorusGrid,
    WeightSpec,
    _forcing_term,
    _residual_fields,
    gauge_fix,
    residual_integral_defect,
    vortex_residual,
)
from conftest import random_smooth_field

TWO_PI = 2 * np.pi


def two_vertex_system(t=1.0, c=1.0, n=64, sigma=(1.0, 1.0), weight=None):
    q = kronecker_quiver(1)
    params = qf.StabilityParams(
        {"1": sigma[0], "2": sigma[1]}, {"1": -t, "2": t}
    )
    w = weight if weight is not None else c
    return qf.build_torus_system(q, {"1": 0, "2": 0}, {"a0": w}, params, n)


# ---------------------------------------------------------------------------
# grid basics


def test_grid_requires_power_of_two():
    with pytest.raises(ShapeMismatch):
        TorusGrid(48)
    with pytest.raises(ShapeMismatch):
        TorusGrid(2)


def test_laplacian_kills_constants_exactly():
    grid = TorusGrid(32)
    f = np.full((32, 32), 3.7)
    assert np.abs(grid.lap(f)).max() == 0.0


def test_laplacian_integrates_to_zero(rng):
    grid = TorusGrid(64)
    f = random_smooth_field(rng, 64, modes=6, scale=2.0)
    assert abs(grid.mean(grid.lap(f))) < 1e-13


def test_laplacian_negative_semidefinite(rng):
    grid = TorusGrid(32)
    f = random_smooth_field(rng, 32, modes=5)
    assert grid.mean(f * grid.lap(f)) <= 1e-13


def test_solve_lap_inverts_mean_zero(rng):
    grid = TorusGrid(32)
    f = random_smooth_field(rng, 32, modes=5)
    f -= grid.mean(f)
    u = grid.solve_lap(f)
    assert np.abs(grid.lap(u) - f).max() < 1e-11


# ---------------------------------------------------------------------------
# real-transform kernels against the complex-FFT formulas


def _wavenumbers(n):
    k = np.fft.fftfreq(n) * n
    return np.meshgrid(k, k, indexing="ij")


def _lap_reference(f):
    k1, k2 = _wavenumbers(f.shape[0])
    return np.real(np.fft.ifft2(-4.0 * np.pi**2 * (k1**2 + k2**2) * np.fft.fft2(f)))


def _solve_lap_reference(f):
    k1, k2 = _wavenumbers(f.shape[0])
    sym = -4.0 * np.pi**2 * (k1**2 + k2**2)
    sym[0, 0] = 1.0
    fh = np.fft.fft2(f) / sym
    fh[0, 0] = 0.0
    return np.real(np.fft.ifft2(fh))


def _dx_dy_reference(f):
    k1, k2 = _wavenumbers(f.shape[0])
    fh = np.fft.fft2(f)
    return np.fft.ifft2(2j * np.pi * k1 * fh), np.fft.ifft2(2j * np.pi * k2 * fh)


def _assert_rel_close(got, want, rtol=1e-12):
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


@pytest.mark.parametrize("n", [8, 16, 64])
def test_spectral_kernels_match_complex_fft(rng, n):
    grid = TorusGrid(n)
    real_fields = [
        random_smooth_field(rng, n, modes=n // 2 - 2, scale=2.0),
        random_smooth_field(rng, n, modes=3) + 0.4,
        rng.normal(size=(n, n)),  # every mode, Nyquist included
    ]
    for f in real_fields:
        _assert_rel_close(grid.lap(f), _lap_reference(f))
        _assert_rel_close(grid.solve_lap(f), _solve_lap_reference(f))
        _assert_rel_close(grid._dhol_of_spectrum(np.fft.rfft2(f)), grid.dhol(f))
    complex_fields = real_fields + [
        random_smooth_field(rng, n, modes=n // 2 - 2, complex_valued=True),
    ]
    for f in complex_fields:
        dx, dy = _dx_dy_reference(f)
        _assert_rel_close(grid.dbar(f), 0.5 * (dx + 1j * dy))
        _assert_rel_close(grid.dhol(f), 0.5 * (dx - 1j * dy))


# ---------------------------------------------------------------------------
# system construction


def test_build_trivial_system():
    q = qf.Quiver.from_lists(["v"], [])
    params = qf.StabilityParams({"v": 1.0}, {"v": 0.0})
    system = qf.build_torus_system(q, {"v": 0}, {}, params, 16)
    res = qf.solve_vortex(system)
    assert res.iterations == 0
    assert np.abs(res.state.u["v"]).max() == 0.0


def test_build_chain_admissible_for_all_t():
    for t in (0.1, 1.0, 7.5):
        system = two_vertex_system(t=t)
        assert abs(system.admissibility_defect()) < 1e-12


def test_build_rejects_inadmissible_degrees():
    q = kronecker_quiver(1)
    params = qf.StabilityParams({"1": 1.0, "2": 1.0}, {"1": 0.0, "2": 0.0})
    with pytest.raises(InadmissibleParameters):
        qf.build_torus_system(q, {"1": 1, "2": 0}, {"a0": 1.0}, params, 16)


def test_build_refuses_what_admissibility_refuses():
    # a defect of 5e-11: admissibility (and so the flat-case flow) refuses
    # it, and building the torus system must refuse it too
    q = kronecker_quiver(1)
    params = qf.StabilityParams({"1": 1.0, "2": 1.0}, {"1": -1.0, "2": 1.0 + 5e-11})
    with pytest.raises(InadmissibleParameters):
        qf.build_torus_system(q, {"1": 0, "2": 0}, {"a0": 1.0}, params, 16)


@pytest.mark.parametrize(
    "weight",
    [
        np.nan,
        np.full((16, 16), np.inf),
        np.where(np.eye(16) > 0, np.nan, 1.0),
    ],
)
def test_build_refuses_non_finite_weight_field(weight):
    q = kronecker_quiver(1)
    params = qf.StabilityParams({"1": 1.0, "2": 1.0}, {"1": -1.0, "2": 1.0})
    with pytest.raises(NonFiniteData):
        qf.build_torus_system(q, {"1": 0, "2": 0}, {"a0": weight}, params, 16)


@pytest.mark.parametrize(
    "fields",
    [{"value": np.nan}, {"amplitude": np.inf}, {"width": np.nan}, {"center": (0.5, np.nan)}, {"floor": -np.inf}],
)
def test_weight_spec_refuses_non_finite_field(fields):
    with pytest.raises(NonFiniteData):
        WeightSpec("bump", **fields)


@pytest.mark.parametrize("width", [0.0, -0.4])
def test_weight_spec_refuses_nonpositive_width(width):
    with pytest.raises(ShapeMismatch):
        WeightSpec("bump", width=width)


def test_build_rejects_negative_weight():
    q = kronecker_quiver(1)
    params = qf.StabilityParams({"1": 1.0, "2": 1.0}, {"1": -1.0, "2": 1.0})
    with pytest.raises(ShapeMismatch):
        qf.build_torus_system(q, {"1": 0, "2": 0}, {"a0": -2.0}, params, 16)


# ---------------------------------------------------------------------------
# residuals


def test_residual_zero_data():
    q = qf.Quiver.from_lists(["v"], [])
    params = qf.StabilityParams({"v": 1.0}, {"v": 0.0})
    system = qf.build_torus_system(q, {"v": 0}, {}, params, 16)
    state = PotentialState({"v": np.zeros((16, 16))})
    res = vortex_residual(system, state)
    assert np.abs(res["v"]).max() == 0.0


def test_residual_constant_closed_form():
    t, c = 2.0, 0.5
    system = two_vertex_system(t=t, c=c, n=16)
    delta = 0.5 * np.log(t / c)
    u = gauge_fix(system, {"1": np.zeros((16, 16)), "2": np.full((16, 16), delta)})
    res = vortex_residual(system, PotentialState(u))
    assert max(np.abs(r).max() for r in res.values()) < 1e-12


def test_residual_gauge_violation():
    system = two_vertex_system()
    state = PotentialState({"1": np.ones((64, 64)), "2": np.ones((64, 64))})
    with pytest.raises(GaugeViolation):
        vortex_residual(system, state)


def test_integral_identity_any_state(rng):
    system = two_vertex_system(t=1.3, c=0.7, n=32)
    for _ in range(3):
        u = {
            "1": random_smooth_field(rng, 32, modes=3),
            "2": random_smooth_field(rng, 32, modes=3),
        }
        res = _residual_fields(system, u)
        assert abs(residual_integral_defect(system, res)) < 1e-10


# ---------------------------------------------------------------------------
# the Newton solver


def test_solve_constant_matches_closed_form():
    t, c = 3.0, 0.75
    system = two_vertex_system(t=t, c=c, n=64)
    result = qf.solve_vortex(system, tol=1e-11)
    want = 0.25 * np.log(t / c)
    assert np.abs(result.state.u["1"] + want).max() < 1e-10
    assert np.abs(result.state.u["2"] - want).max() < 1e-10


def test_solve_t_equals_c_gives_zero():
    system = two_vertex_system(t=1.0, c=1.0, n=16)
    result = qf.solve_vortex(system)
    assert np.abs(result.state.u["1"]).max() < 1e-12
    assert np.abs(result.state.u["2"]).max() < 1e-12


def vortex_energy(system, u):
    """The convex energy the solver minimizes, with the Dirichlet term read
    off the full complex spectrum:
    sum_v sigma_v/2 mean|grad u_v|^2 + sum_v (2 pi sigma_v d_v - tau_v) mean(u_v)
    + sum_a mean(w_a e^{2(u_head - u_tail)}) / 2."""
    n = system.grid.n
    k1, k2 = _wavenumbers(n)
    k_sq = 4.0 * np.pi**2 * (k1**2 + k2**2)
    sig, tau = system.params.sigma, system.params.tau
    energy = 0.0
    for v in system.quiver.vertices:
        spectrum = np.fft.fft2(u[v])
        energy += 0.5 * sig[v] * float(np.sum(k_sq * np.abs(spectrum) ** 2)) / n**4
        energy += (TWO_PI * sig[v] * system.degrees[v] - tau[v]) * float(np.mean(u[v]))
    for a in system.quiver.arrows:
        energy += 0.5 * float(np.mean(system.weights[a.name] * np.exp(2.0 * (u[a.head] - u[a.tail]))))
    return energy


def test_solve_bump_weights():
    spec = WeightSpec("bump", amplitude=1.0, width=0.4, center=(0.3, 0.6), floor=0.05)
    system = two_vertex_system(t=1.5, n=64, weight=spec)
    result = qf.solve_vortex(system, record_states=True)
    assert result.iterations <= 8
    assert result.sup_residual <= 1e-8
    # the line search decreases the energy, not the sup residual
    energies = [vortex_energy(system, st.u) for st in result.states]
    assert all(b < a for a, b in zip(energies, energies[1:]))
    # gauge is preserved along the Newton iterates
    for st in result.states:
        defect = sum(
            system.params.sigma[v] * system.grid.mean(st.u[v]) for v in ("1", "2")
        )
        assert abs(defect) < 1e-12


def test_forcing_term_cap_and_floors():
    # the cap on a large Eisenstat-Walker term
    assert _forcing_term(0.9, 1.0, 1e-8, 1e-12) == torus.EW_ETA_MAX
    # near tol: no linear residual below a fraction of tol is asked for
    assert _forcing_term(1e-9, 1e-6, 1e-8, 1e-12) == pytest.approx(torus.EW_TOL_FRACTION * 1e-2)
    # cg_rtol is the floor of everything
    assert _forcing_term(1e-20, 1e3, 1e-8, 1e-12) == 1e-12
    assert _forcing_term(0.9, 1.0, 1e-8, 0.7) == 0.7


def test_inexact_newton_matches_exact_newton(monkeypatch):
    spec = WeightSpec("bump", amplitude=1.0, width=0.4, center=(0.3, 0.6), floor=0.05)
    system = two_vertex_system(t=1.5, n=64, weight=spec)
    laps = [0]
    lap = TorusGrid.lap

    def counted_lap(self, f):
        laps[0] += 1
        return lap(self, f)

    monkeypatch.setattr(TorusGrid, "lap", counted_lap)
    inexact = qf.solve_vortex(system)
    inexact_laps, laps[0] = laps[0], 0
    # a zero cap leaves CG_RTOL as every step's CG tolerance: exact Newton
    monkeypatch.setattr(torus, "EW_ETA_MAX", 0.0)
    exact = qf.solve_vortex(system)
    assert inexact.sup_residual <= 1e-8
    recomputed = vortex_residual(system, inexact.state)
    assert max(np.abs(r).max() for r in recomputed.values()) <= 1e-8
    diff = max(np.abs(inexact.state.u[v] - exact.state.u[v]).max() for v in ("1", "2"))
    assert diff <= 1e-9
    assert inexact_laps < laps[0]


def test_newton_stall_on_unsolvable_data():
    # tau_1 > 0 with only an outgoing arrow: the vertex-1 equation integrates
    # to -int(w e^{...}) = tau_1 > 0, impossible
    system = two_vertex_system(t=-1.0, c=1.0, n=16)
    with pytest.raises(NewtonStall) as info:
        qf.solve_vortex(system)
    assert info.value.best_state is not None
    assert len(info.value.history) >= 1


def counted_solves(monkeypatch):
    """Grid sizes of every solve_vortex call, the coarse levels included."""
    sizes = []
    solve = torus.solve_vortex

    def counted(system, *args, **kwargs):
        sizes.append(system.grid.n)
        return solve(system, *args, **kwargs)

    monkeypatch.setattr(torus, "solve_vortex", counted)
    return sizes


def test_unsolvable_data_stall_before_any_newton_step(monkeypatch):
    # the solvability test names the subset {1} (degree -tau_1 = -1 < 0)
    # and the solver stops at the gauge-fixed start, without a Newton step
    # and before any coarse solve; there the vertex-1 residual is
    # -tau_1 - c = -2
    system = two_vertex_system(t=-1.0, c=1.0, n=512)
    sizes = counted_solves(monkeypatch)
    with pytest.raises(NewtonStall, match=r"subset \{1\}") as info:
        torus.solve_vortex(system)
    assert sizes == [512]
    assert info.value.history == [(0, 2.0, 1.0)]
    assert all(np.abs(f).max() == 0.0 for f in info.value.best_state.u.values())


@pytest.mark.parametrize("max_newton", [2.5, -1, True])
def test_solve_vortex_refuses_a_bad_newton_budget(max_newton):
    # 2.5 raised a TypeError from range(); -1 ran no step and stalled
    with pytest.raises(NonpositiveScale):
        qf.solve_vortex(two_vertex_system(), max_newton=max_newton)


# ---------------------------------------------------------------------------
# coarse-grid start


def test_prolong_keeps_the_coarse_samples(rng):
    f = rng.standard_normal((32, 32))
    g = torus._prolong(f, 64)
    assert np.abs(g[::2, ::2] - f).max() <= 1e-14
    assert abs(g.mean() - f.mean()) <= 1e-14


def test_prolong_reproduces_band_limited_fields(rng):
    # frequencies |k1|, |k2| < 16 are represented exactly on the 32 grid
    k = np.fft.fftfreq(64, 1.0 / 64)
    low = (np.abs(k)[:, None] < 16) & (np.abs(k)[None, :] < 16)
    spec = (rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))) * low
    f = np.real(np.fft.ifft2(spec))
    assert np.abs(torus._prolong(f[::2, ::2], 64) - f).max() <= 1e-14


def test_coarse_start_matches_zero_start():
    # the criterion-9 bump: the 64 grid does the Newton work, the finer
    # levels at most one step each
    spec = WeightSpec("bump", amplitude=1.0, width=0.4, center=(0.3, 0.6), floor=0.05)
    system = two_vertex_system(t=3.0, n=256, weight=spec)
    result = qf.solve_vortex(system)
    zero = PotentialState({v: np.zeros((256, 256)) for v in ("1", "2")})
    reference = qf.solve_vortex(system, initial=zero)
    assert [n for n, _ in result.levels] == [64, 128, 256]
    assert result.levels[-1] == (256, result.iterations) and result.iterations <= 1
    assert result.sup_residual <= 1e-8
    diff = max(np.abs(result.state.u[v] - reference.state.u[v]).max() for v in ("1", "2"))
    assert diff <= 1e-10


def test_coarse_stall_falls_back_to_zero_start(monkeypatch):
    # a spike at an odd index: the even points see no weight, the coarse
    # system has no solution, and the fine solve starts from zero
    w = np.zeros((128, 128))
    w[37, 81] = 128.0**2
    system = two_vertex_system(t=1.5, n=128, weight=w)
    sizes = counted_solves(monkeypatch)
    result = torus.solve_vortex(system)
    assert sizes == [128, 64]
    assert result.levels == [(128, result.iterations)]
    recomputed = vortex_residual(system, result.state)
    assert max(np.abs(r).max() for r in recomputed.values()) <= 1e-8


def test_given_start_runs_no_coarse_solve(monkeypatch):
    spec = WeightSpec("bump", amplitude=1.0, width=0.4, center=(0.3, 0.6), floor=0.05)
    system = two_vertex_system(t=1.5, n=128, weight=spec)
    sizes = counted_solves(monkeypatch)
    zero = PotentialState({v: np.zeros((128, 128)) for v in ("1", "2")})
    result = torus.solve_vortex(system, initial=zero)
    assert sizes == [128]
    assert result.levels == [(128, result.iterations)]


def test_solution_invariant_under_parameter_rescaling():
    t, c = 2.0, 0.5
    base = two_vertex_system(t=t, c=c, n=32)
    u0 = qf.solve_vortex(base, tol=1e-11).state
    for scale in (0.5, 3.0):
        q = kronecker_quiver(1)
        params = qf.StabilityParams(
            {"1": scale, "2": scale}, {"1": -scale * t, "2": scale * t}
        )
        system = qf.build_torus_system(q, {"1": 0, "2": 0}, {"a0": scale * c}, params, 32)
        u1 = qf.solve_vortex(system, tol=1e-11).state
        for v in ("1", "2"):
            assert np.abs(u1.u[v] - u0.u[v]).max() < 1e-10


def test_refinement_64_vs_128():
    spec = WeightSpec("bump", amplitude=1.2, width=0.35, center=(0.25, 0.7), floor=0.1)
    coarse = two_vertex_system(t=1.0, n=64, weight=spec)
    fine = two_vertex_system(t=1.0, n=128, weight=spec)
    r64 = qf.solve_vortex(coarse)
    r128 = qf.solve_vortex(fine)
    diff = max(
        np.abs(r128.state.u[v][::2, ::2] - r64.state.u[v]).max() for v in ("1", "2")
    )
    assert diff < 1e-5


def test_sign_convention_pin():
    # one vertex, positive degree, tau = sigma * 2 pi d: u = 0 solves, and a
    # perturbed start returns to it
    q = qf.Quiver.from_lists(["v"], [])
    d, sigma = 2, 1.5
    params = qf.StabilityParams({"v": sigma}, {"v": sigma * TWO_PI * d})
    system = qf.build_torus_system(q, {"v": d}, {}, params, 32)
    r = qf.solve_vortex(system)
    assert np.abs(r.state.u["v"]).max() == 0.0
    rng = np.random.default_rng(5)
    bump = PotentialState({"v": random_smooth_field(rng, 32, modes=3, scale=0.4)})
    r2 = qf.solve_vortex(system, initial=bump, tol=1e-11)
    assert np.abs(r2.state.u["v"]).max() < 1e-10


# ---------------------------------------------------------------------------
# energy splitting


def test_ymh_all_zero():
    system = two_vertex_system(t=0.0, c=0.0, n=16)
    state = PotentialState({"1": np.zeros((16, 16)), "2": np.zeros((16, 16))})
    report = qf.ymh_identity(system, state, {})
    assert report.lhs == 0.0 and report.rhs == 0.0 and report.satisfied


def test_ymh_constant_curvature_closed_form():
    # phi = 0, u = 0, nonzero degrees: both sides reduce to hand constants
    q = qf.Quiver.from_lists(["1", "2"], [])
    sigma = {"1": 1.25, "2": 0.5}
    d = {"1": 1, "2": -1}
    tau = {"1": 2.0, "2": sigma["1"] * TWO_PI * d["1"] + sigma["2"] * TWO_PI * d["2"] - 2.0}
    params = qf.StabilityParams(sigma, tau)
    system = qf.build_torus_system(q, d, {}, params, 16)
    state = PotentialState({"1": np.zeros((16, 16)), "2": np.zeros((16, 16))})
    report = qf.ymh_identity(system, state, {})
    lhs_hand = sum(sigma[v] * (TWO_PI * d[v]) ** 2 for v in sigma) + sum(
        tau[v] ** 2 / sigma[v] for v in sigma
    )
    rhs_hand = 4 * np.pi * sum(tau[v] * d[v] for v in sigma) + sum(
        (sigma[v] * TWO_PI * d[v] - tau[v]) ** 2 / sigma[v] for v in sigma
    )
    assert report.lhs == pytest.approx(lhs_hand, rel=1e-12)
    assert report.rhs == pytest.approx(rhs_hand, rel=1e-12)
    assert report.mismatch < 1e-12


def test_ymh_random_smooth_identity(rng):
    q = two_way_quiver()
    params = qf.StabilityParams({"1": 1.2, "2": 0.8}, {"1": 0.4, "2": -0.4})
    system = qf.build_torus_system(q, {"1": 0, "2": 0}, {"a": 1.0, "b": 1.0}, params, 128)
    u = gauge_fix(
        system,
        {
            "1": random_smooth_field(rng, 128, modes=4, scale=0.7),
            "2": random_smooth_field(rng, 128, modes=4, scale=0.7),
        },
    )
    phi = {
        "a": random_smooth_field(rng, 128, modes=4, scale=1.0, complex_valued=True),
        "b": random_smooth_field(rng, 128, modes=4, scale=1.0, complex_valued=True),
    }
    report = qf.ymh_identity(system, PotentialState(u), phi)
    assert report.mismatch <= 1e-6


def test_ymh_refuses_phi_on_nonzero_degrees():
    q = kronecker_quiver(1)
    params = qf.StabilityParams({"1": 1.0, "2": 1.0}, {"1": TWO_PI, "2": 0.0})
    system = qf.build_torus_system(q, {"1": 1, "2": 0}, {"a0": 0.0}, params, 16)
    state = PotentialState({"1": np.zeros((16, 16)), "2": np.zeros((16, 16))})
    with pytest.raises(UnsupportedDegrees):
        qf.ymh_identity(system, state, {"a0": np.ones((16, 16), dtype=complex)})


def _ymh_reference(system, state, phi_fields, tol=1e-6):
    """(lhs, rhs, satisfied) of the identity with one 2-D complex transform
    pair per derivative, the way ``ymh_identity`` took them before it
    shared the 1-D derivative kernel."""
    grid = system.grid
    k = np.fft.fftfreq(grid.n, 1.0 / grid.n)
    dbar_sym = 1j * np.pi * (k[:, None] + 1j * k[None, :])
    dhol_sym = -np.conj(dbar_sym)

    def dbar(f):
        return np.fft.ifft2(dbar_sym * np.fft.fft2(f))

    def dhol(f):
        return np.fft.ifft2(dhol_sym * np.fft.fft2(f))

    sig, tau, verts, u = system.params.sigma, system.params.tau, system.quiver.vertices, state.u
    f_curv = {v: TWO_PI * system.degrees[v] - grid.lap(u[v]) for v in verts}
    big_u = {v: np.zeros((grid.n, grid.n)) for v in verts}
    kinetic = dbar_term = 0.0
    for a in system.quiver.arrows:
        phi = phi_fields.get(a.name)
        if phi is None:
            continue
        phi = np.asarray(phi, dtype=complex)
        rho = 2.0 * (u[a.head] - u[a.tail])
        erho = np.exp(rho)
        w_h = np.abs(phi) ** 2 * erho
        big_u[a.head] = big_u[a.head] + w_h
        big_u[a.tail] = big_u[a.tail] - w_h
        dbar_a = 2.0 * grid.mean(np.abs(dbar(phi)) ** 2 * erho)
        dhol_a = 2.0 * grid.mean(np.abs(dhol(phi) + phi * dhol(rho)) ** 2 * erho)
        dbar_term += dbar_a
        kinetic += dbar_a + dhol_a
    lhs = (
        sum(sig[v] * grid.mean(f_curv[v] ** 2) for v in verts)
        + 2.0 * kinetic
        + sum(grid.mean((big_u[v] - tau[v]) ** 2) / sig[v] for v in verts)
    )
    rhs = (
        4.0 * dbar_term
        + 4.0 * np.pi * sum(tau[v] * system.degrees[v] for v in verts)
        + sum(grid.mean((sig[v] * f_curv[v] + big_u[v] - tau[v]) ** 2) / sig[v] for v in verts)
    )
    return lhs, rhs, abs(lhs - rhs) / (1.0 + abs(lhs)) <= tol


_YMH_QUIVERS = {
    "two-way": [("a", "1", "2"), ("b", "2", "1")],
    "parallel": [("a", "1", "2"), ("b", "1", "2")],
    "reversed-loop": [("a", "1", "2"), ("b", "2", "1"), ("l", "1", "1")],
    "3-cycle": [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "1")],
}


def _ymh_case(n, every_mode, zero_state, seed, quiver="two-way"):
    rng = np.random.default_rng(seed)
    arrows = _YMH_QUIVERS[quiver]
    verts = sorted({v for _, t, h in arrows for v in (t, h)})
    q = qf.Quiver.from_lists(verts, arrows)
    tau = dict(zip(verts, (-0.6, 0.6) if len(verts) == 2 else (-0.6, 0.2, 0.4)))
    params = qf.StabilityParams(dict(zip(verts, (1.3, 0.7, 1.1))), tau)
    system = qf.build_torus_system(q, dict.fromkeys(verts, 0), {a: 1.0 for a, _, _ in arrows}, params, n)
    if every_mode:  # every frequency, Nyquist included
        phi = {a: rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for a, _, _ in arrows}
        u = {v: 0.3 * rng.normal(size=(n, n)) for v in verts}
    else:
        phi = {a: random_smooth_field(rng, n, modes=3, complex_valued=True) for a, _, _ in arrows}
        u = {v: random_smooth_field(rng, n, modes=3, scale=0.7) for v in verts}
    if zero_state:
        u = {v: np.zeros((n, n)) for v in u}
    return system, PotentialState(u), phi


_YMH_REFERENCE_CASES = [
    pytest.param(n, every_mode, zero_state, "two-way", id=f"{n}-{mode}-{state}")
    for n in (16, 64, 256)
    for every_mode, mode in ((False, "smooth"), (True, "every-mode"))
    for zero_state, state in ((True, "zero-state"), (False, "state"))
] + [
    # d rho once per vertex pair: shared by parallel arrows, negated for a
    # reversed one, none for a loop
    pytest.param(n, every_mode, False, quiver, id=f"{n}-{mode}-{quiver}")
    for quiver in ("parallel", "reversed-loop", "3-cycle")
    for n in (16, 64)
    for every_mode, mode in ((False, "smooth"), (True, "every-mode"))
]


@pytest.mark.parametrize("n, every_mode, zero_state, quiver", _YMH_REFERENCE_CASES)
def test_ymh_matches_the_2d_reference(n, every_mode, zero_state, quiver):
    seed = n + 2 * every_mode + zero_state
    system, state, phi = _ymh_case(n, every_mode, zero_state, seed, quiver)
    report = qf.ymh_identity(system, state, phi)
    lhs, rhs, satisfied = _ymh_reference(system, state, phi)
    assert report.lhs == pytest.approx(lhs, rel=1e-12, abs=0.0)
    assert report.rhs == pytest.approx(rhs, rel=1e-12, abs=0.0)
    assert report.satisfied == satisfied


def test_ymh_takes_no_2d_complex_transform(monkeypatch):
    # dbar(phi), dhol(phi) and dhol(rho) took 6 fft2/ifft2 calls per arrow;
    # then d rho took 4 of the 1-D fft/ifft calls per arrow beside phi's 4
    calls = []

    def counted(name):
        transform = getattr(np.fft, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return transform(*args, **kwargs)

        return wrapper

    for name in ("fft2", "ifft2", "fftn", "ifftn", "fft", "ifft", "rfft2", "irfft2"):
        monkeypatch.setattr(np.fft, name, counted(name))
    for quiver in ("two-way", "reversed-loop"):  # each with one vertex pair
        system, state, phi = _ymh_case(32, every_mode=False, zero_state=False, seed=3, quiver=quiver)
        calls.clear()
        assert qf.ymh_identity(system, state, phi).satisfied
        assert not {"fft2", "ifft2", "fftn", "ifftn"} & set(calls)
        assert calls.count("fft") + calls.count("ifft") == 4 * len(phi)
        # one rfft2 per vertex; one irfft2 per vertex for its curvature and
        # two for the pair's d rho
        assert calls.count("rfft2") == len(system.quiver.vertices)
        assert calls.count("irfft2") == len(system.quiver.vertices) + 2


def _ymh_bad_input(case):
    system, state, phi = _ymh_case(16, every_mode=False, zero_state=False, seed=5)
    if case == "nan-phi":
        phi["a"] = phi["a"].copy()
        phi["a"][3, 4] = np.nan
    elif case == "inf-state":
        state = PotentialState({**state.u, "1": np.full((16, 16), np.inf)})
    elif case == "nan-state":
        state = PotentialState({**state.u, "2": np.where(np.eye(16) > 0, np.nan, 0.0)})
    elif case == "wrong-shape":
        phi["b"] = np.ones((16, 8), dtype=complex)
    elif case == "unknown-arrow":
        phi["zz"] = phi.pop("a")
    elif case == "wrong-state-shape":
        state = PotentialState({v: np.zeros((8, 8)) for v in state.u})
    elif case == "missing-vertex":
        state = PotentialState({"1": state.u["1"]})
    return system, state, phi


@pytest.mark.parametrize(
    "case, error",
    [
        ("nan-phi", NonFiniteData),
        ("inf-state", NonFiniteData),
        ("nan-state", NonFiniteData),
        ("wrong-shape", ShapeMismatch),
        ("unknown-arrow", QuiverMismatch),
        ("wrong-state-shape", ShapeMismatch),
        ("missing-vertex", QuiverMismatch),
    ],
)
def test_ymh_refuses_bad_input(case, error):
    # returned satisfied=False with NaN sums, or raised numpy's ValueError
    # or a KeyError
    system, state, phi = _ymh_bad_input(case)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # refused without a numpy warning
        with pytest.raises(error) as refused:
            qf.ymh_identity(system, state, phi)
    if case == "missing-vertex":
        assert "'2'" in str(refused.value)


# ---------------------------------------------------------------------------
# flat-case reduction


def test_flat_case_constant_split():
    t, c = 2.0, 0.5
    system = two_vertex_system(t=t, c=c, n=32)
    result = qf.flat_case_reduce(system)
    assert result.sup_difference < 1e-8
    want = 0.25 * np.log(t / c)
    assert np.abs(result.vortex.state.u["2"] - want).max() < 1e-8


def test_flat_case_zero_data():
    q = kronecker_quiver(1)
    params = qf.StabilityParams({"1": 1.0, "2": 1.0}, {"1": 0.0, "2": 0.0})
    system = qf.build_torus_system(q, {"1": 0, "2": 0}, {"a0": 0.0}, params, 16)
    result = qf.flat_case_reduce(system)
    assert result.sup_difference < 1e-12
    assert np.abs(result.vortex.state.u["1"]).max() < 1e-12


def test_flat_case_two_way_quiver():
    q = two_way_quiver()
    params = qf.StabilityParams({"1": 1.0, "2": 1.0}, {"1": -0.6, "2": 0.6})
    system = qf.build_torus_system(q, {"1": 0, "2": 0}, {"a": 1.4, "b": 0.9}, params, 64)
    result = qf.flat_case_reduce(system)
    assert result.sup_difference < 1e-8


def test_flat_case_rejects_degrees_and_bumps():
    q = qf.Quiver.from_lists(["v"], [])
    params = qf.StabilityParams({"v": 1.0}, {"v": TWO_PI})
    system = qf.build_torus_system(q, {"v": 1}, {}, params, 16)
    with pytest.raises(NotFlatCase):
        qf.flat_case_reduce(system)
    bump = WeightSpec("bump", amplitude=1.0, width=0.5)
    system2 = two_vertex_system(t=1.0, n=16, weight=bump)
    with pytest.raises(NotFlatCase):
        qf.flat_case_reduce(system2)


def test_gauge_fix_idempotent(rng):
    system = two_vertex_system(t=1.0, c=1.0, n=16)
    u = {
        "1": random_smooth_field(rng, 16, modes=2) + 0.7,
        "2": random_smooth_field(rng, 16, modes=2) - 0.2,
    }
    once = gauge_fix(system, u)
    twice = gauge_fix(system, once)
    for v in ("1", "2"):
        assert np.abs(once[v] - twice[v]).max() < 1e-12


def test_solve_with_nonzero_degrees_and_bump():
    # curvature term active: degrees (1, -1) telescope in the admissibility
    # sum, the bump weight forces a genuinely nonconstant solution
    q = kronecker_quiver(1)
    params = qf.StabilityParams({"1": 1.0, "2": 1.0}, {"1": -0.5, "2": 0.5})
    system = qf.build_torus_system(
        q, {"1": 1, "2": -1},
        {"a0": WeightSpec("bump", amplitude=0.8, width=0.45, center=(0.4, 0.4), floor=0.3)},
        params, 64,
    )
    result = qf.solve_vortex(system, record_states=True)
    assert result.sup_residual <= 1e-8
    assert float(np.ptp(result.state.u["1"])) > 1e-3  # nonconstant
    for st in result.states:
        defect = residual_integral_defect(system, _residual_fields(system, st.u))
        assert abs(defect) <= 1e-9


@pytest.mark.parametrize(
    "degrees, sigma, t, spec",
    [
        ((0, 0), (1.0, 1.0), 1.5, WeightSpec("bump", amplitude=1.0, width=0.2, floor=0.0)),
        ((2, -1), (0.5, 2.0), 3.0, WeightSpec("bump", amplitude=2.0, width=0.3, floor=0.0)),
    ],
)
def test_solve_bump_weights_without_floor(degrees, sigma, t, spec):
    # the weight falls to rounding level over much of the torus; the data
    # pass the subset test, so a solution exists and the energy line search
    # reaches it, where halving on the sup residual stalls
    q = kronecker_quiver(1)
    tau_1 = TWO_PI * (sigma[0] * degrees[0] + sigma[1] * degrees[1]) - t
    params = qf.StabilityParams({"1": sigma[0], "2": sigma[1]}, {"1": tau_1, "2": t})
    system = qf.build_torus_system(q, {"1": degrees[0], "2": degrees[1]}, {"a0": spec}, params, 64)
    result = qf.solve_vortex(system)
    assert result.iterations <= 10
    residual = vortex_residual(system, result.state)
    assert max(np.abs(r).max() for r in residual.values()) <= 1e-8


def test_solve_three_vertex_chain():
    from quiverforge.gallery import chain_quiver

    q = chain_quiver(2)
    params = qf.StabilityParams(
        {v: 1.0 for v in q.vertices}, {"0": -1.0, "1": 0.25, "2": 0.75}
    )
    system = qf.build_torus_system(
        q, {v: 0 for v in q.vertices},
        {"a0": WeightSpec("bump", amplitude=1.0, width=0.5, center=(0.2, 0.8), floor=0.2),
         "a1": 0.9},
        params, 64,
    )
    result = qf.solve_vortex(system)
    assert result.sup_residual <= 1e-8
    assert result.iterations <= 20


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_ymh_identity_parameter_sweep(seed):
    # identity holds for arbitrary admissibility-violating tau too: it is an
    # algebraic statement about the functional, not about solutions
    rng = np.random.default_rng(9000 + seed)
    q = two_way_quiver()
    sigma = {"1": float(rng.uniform(0.5, 2.0)), "2": float(rng.uniform(0.5, 2.0))}
    t = float(rng.normal())
    params = qf.StabilityParams(sigma, {"1": -t, "2": t})
    system = qf.build_torus_system(q, {"1": 0, "2": 0}, {"a": 1.0, "b": 0.5}, params, 32)
    u = gauge_fix(
        system,
        {
            "1": random_smooth_field(rng, 32, modes=3, scale=0.6),
            "2": random_smooth_field(rng, 32, modes=3, scale=0.6),
        },
    )
    phi = {
        "a": random_smooth_field(rng, 32, modes=3, scale=1.0, complex_valued=True),
        "b": random_smooth_field(rng, 32, modes=3, scale=1.0, complex_valued=True),
    }
    report = qf.ymh_identity(system, PotentialState(u), phi)
    assert report.mismatch <= 1e-9
