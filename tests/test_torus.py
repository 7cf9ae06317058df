import numpy as np
import pytest

import quiverforge as qf
from quiverforge.errors import (
    GaugeViolation,
    InadmissibleParameters,
    NewtonStall,
    NonFiniteData,
    NotFlatCase,
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


@pytest.mark.parametrize("n", [16, 64])
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


def test_unsolvable_data_stall_before_any_newton_step():
    # the solvability test names the subset {1} (degree -tau_1 = -1 < 0)
    # and the solver stops at the gauge-fixed start, without a Newton step;
    # there the vertex-1 residual is -tau_1 - c = -2
    system = two_vertex_system(t=-1.0, c=1.0, n=512)
    with pytest.raises(NewtonStall, match=r"subset \{1\}") as info:
        qf.solve_vortex(system)
    assert info.value.history == [(0, 2.0, 1.0)]
    assert all(np.abs(f).max() == 0.0 for f in info.value.best_state.u.values())


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
