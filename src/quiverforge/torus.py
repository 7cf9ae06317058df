"""Abelian quiver vortex equations on a flat 2-torus, solved spectrally.

Line bundles only: with metrics H_v = K_v e^{2 u_v} the per-vertex equation
becomes a coupled Kazdan-Warner system for the real potentials u_v,

    sigma_v (2 pi d_v - lap u_v)
        + sum_{head(a)=v} w_a e^{2(u_head - u_tail)}
        - sum_{tail(a)=v} w_a e^{2(u_head - u_tail)}  =  tau_v,

where d_v are the bundle degrees, w_a >= 0 the fixed arrow weight fields,
and lap the periodic spectral Laplacian.

SIGN CONVENTION (the one place it is fixed): ``lap`` is the analysts'
Laplacian, Fourier symbol -4 pi^2 |k|^2, negative semidefinite, and the
curvature function of H_v = K_v e^{2 u_v} is

    i Lambda F_{H_v} = 2 pi d_v - lap(u_v).

The minus sign is the geometric one (a metric weight e^{2u} with u
subharmonic has nonnegative curvature) and is pinned operationally by the
Yang-Mills-Higgs energy-splitting identity in :func:`ymh_identity`, which
fails with the opposite orientation.  Volume is normalized to 1 and the
background curvature constant 2 pi d_v makes the degree of each vertex
bundle equal to 2 pi d_v.

:func:`solve_vortex` runs damped Newton on a convex energy.  On a grid
finer than ``COARSE_N`` = 64 it starts from the solution on the grid of
half its size, prolonged by trigonometric interpolation, and the coarse
solve starts the same way; ``max_newton`` is a budget per level, and the
returned ``iterations``, ``history`` and ``states`` are the finest
level's.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import (
    GaugeViolation,
    InadmissibleParameters,
    NewtonStall,
    NonFiniteData,
    NotASolution,
    NotFlatCase,
    QuiverMismatch,
    ShapeMismatch,
    UnsupportedDegrees,
    check_count,
    check_tolerance,
)
from .flow import FlowOptions, flow_solve
from .quiver import Quiver, TwistSpec
from .reps import build_rep
from .slope import DegreeData, StabilityParams, admissibility, degree_and_slope

TWO_PI = 2.0 * np.pi
# largest trace-gauge defect vortex_residual accepts
GAUGE_TOL = 1e-8


@dataclass(frozen=True)
class TorusGrid:
    """N x N periodic grid on the unit-volume torus (N a power of two).

    Real fields go through the half-spectrum transforms ``rfft2``/``irfft2``.
    The complex derivatives ``dbar``/``dhol`` share one kernel,
    :meth:`_half_partials`, which takes d/dx and d/dy with one complex 1-D
    transform pair along each axis.  :meth:`_dhol_of_spectrum` gives
    ``dhol`` of a real field from its half spectrum, so a potential
    transformed once serves both its Laplacian and its derivative.
    """

    n: int

    def __post_init__(self):
        n = self.n
        if n < 4 or (n & (n - 1)) != 0:
            raise ShapeMismatch(f"grid resolution must be a power of two >= 4, got {n}")
        # half-spectrum symbol: k1 over all rows, k2 over the rfft columns
        k1 = np.fft.fftfreq(n, 1.0 / n)[:, None]
        k2 = np.fft.rfftfreq(n, 1.0 / n)[None, :]
        sym = -4.0 * np.pi**2 * (k1**2 + k2**2)
        sym.flags.writeable = False
        object.__setattr__(self, "_lap_sym", sym)
        # d/dx / 2 along one axis has symbol i pi k, the Nyquist k = -n/2 included
        half = 1j * np.pi * np.fft.fftfreq(n, 1.0 / n)
        half.flags.writeable = False
        object.__setattr__(self, "_half_sym", half)

    def lap(self, f: np.ndarray) -> np.ndarray:
        return self._lap_of_spectrum(np.fft.rfft2(f))

    def _lap_of_spectrum(self, spec: np.ndarray) -> np.ndarray:
        """``lap(f)`` of the real field f whose half spectrum is ``spec``."""
        return np.fft.irfft2(self._lap_sym * spec, s=(self.n, self.n))

    def _half_partials(self, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(df/dx / 2, df/dy / 2) as complex fields: a 1-D ``fft``/``ifft``
        pair along axis 0, then one along axis 1.  px + i py has the 2-D
        symbol i pi (k1 + i k2) of ``dbar``, px - i py that of ``dhol``.
        The axis-0 pair runs along the rows of a contiguous transpose, which
        gives the same values bit for bit: numpy's strided axis-0 pass costs
        more than the two transpose copies."""
        px = np.fft.fft(np.ascontiguousarray(f.T), axis=1)
        px *= self._half_sym
        px = np.ascontiguousarray(np.fft.ifft(px, axis=1).T)
        py = np.fft.fft(f, axis=1)
        py *= self._half_sym
        return px, np.fft.ifft(py, axis=1)

    def _dhol_of_spectrum(self, spec: np.ndarray) -> np.ndarray:
        """``dhol(f)``, to rounding, of the real field f whose half spectrum
        ``rfft2(f)`` is ``spec``.

        Two ``irfft2`` calls give the real parts of df/dx / 2 and df/dy / 2.
        The complex kernel's Nyquist symbol i pi (-n/2) adds the imaginary
        parts -(pi/2) (-1)^j A(.), where A is f's alternating sum along that
        axis: a length-n ``irfft`` of the spectrum's Nyquist row or column.
        """
        n = self.n
        # without the Nyquist k = -n/2; the first n/2 + 1 entries are the
        # rfft-column symbol
        half = self._half_sym.copy()
        half[n // 2] = 0.0
        px = np.fft.irfft2(half[:, None] * spec, s=(n, n))
        py = np.fft.irfft2(half[: n // 2 + 1] * spec, s=(n, n))
        alt = np.resize([0.5 * np.pi, -0.5 * np.pi], n)  # (pi/2) (-1)^j
        # dhol = px - i py: its real part takes py's imaginary part, and its
        # imaginary part px's
        px -= np.multiply.outer(np.fft.irfft(spec[: n // 2 + 1, n // 2], n), alt)
        py += np.multiply.outer(alt, np.fft.irfft(spec[n // 2], n))
        d = np.empty((n, n), dtype=complex)
        d.real = px
        np.negative(py, out=d.imag)
        return d

    def dbar(self, f: np.ndarray) -> np.ndarray:
        """(d/dx + i d/dy) f / 2."""
        px, py = self._half_partials(f)
        py *= 1j
        px += py
        return px

    def dhol(self, f: np.ndarray) -> np.ndarray:
        """(d/dx - i d/dy) f / 2."""
        px, py = self._half_partials(f)
        py *= 1j
        px -= py
        return px

    def mean(self, f: np.ndarray) -> float:
        return float(np.mean(np.real(f)))

    def solve_lap(self, f: np.ndarray) -> np.ndarray:
        """Mean-zero solution of lap(u) = f - mean(f)."""
        sym = self._lap_sym.copy()
        sym[0, 0] = 1.0
        fh = np.fft.rfft2(f) / sym
        fh[0, 0] = 0.0
        return np.fft.irfft2(fh, s=(self.n, self.n))

    def coordinates(self):
        x = np.arange(self.n) / self.n
        return np.meshgrid(x, x, indexing="ij")


@dataclass(frozen=True)
class WeightSpec:
    """Constructor for an arrow weight field.

    ``constant`` fields model genuinely flat data; ``bump`` fields are
    smooth positive periodic stand-ins for section magnitudes and are
    flagged synthetic in reports.
    """

    kind: str  # "constant" | "bump"
    value: float = 1.0
    amplitude: float = 1.0
    width: float = 0.5
    center: tuple[float, float] = (0.5, 0.5)
    floor: float = 0.0

    def __post_init__(self):
        numbers = (self.value, self.amplitude, self.width, *self.center, self.floor)
        if not np.all(np.isfinite(np.array(numbers, dtype=float))):
            raise NonFiniteData(f"{self.kind} weight has a non-finite field")
        if self.kind == "bump" and self.width <= 0:
            raise ShapeMismatch(f"bump width must be positive, got {self.width}")

    def realize(self, grid: TorusGrid) -> np.ndarray:
        if self.kind == "constant":
            if self.value < 0:
                raise ShapeMismatch("constant weight must be nonnegative")
            return np.full((grid.n, grid.n), float(self.value))
        if self.kind == "bump":
            if self.amplitude < 0 or self.floor < 0:
                raise ShapeMismatch("bump weight must be nonnegative")
            x, y = grid.coordinates()
            phase = (
                np.cos(TWO_PI * (x - self.center[0]))
                + np.cos(TWO_PI * (y - self.center[1]))
                - 2.0
            )
            return self.floor + self.amplitude * np.exp(phase / self.width**2)
        raise ShapeMismatch(f"unknown weight kind {self.kind!r}")

    @property
    def synthetic(self) -> bool:
        return self.kind != "constant"


@dataclass(frozen=True)
class TorusSystem:
    quiver: Quiver
    grid: TorusGrid
    degrees: Mapping[str, int]
    weights: Mapping[str, np.ndarray]
    params: StabilityParams
    weight_specs: Mapping[str, WeightSpec] | None = None

    def admissibility_defect(self) -> float:
        return float(
            sum(self.params.sigma[v] * TWO_PI * self.degrees[v] for v in self.quiver.vertices)
            - sum(self.params.tau[v] for v in self.quiver.vertices)
        )


def build_torus_system(
    quiver: Quiver,
    degrees: Mapping[str, int],
    weights: Mapping[str, "WeightSpec | np.ndarray | float"],
    params: StabilityParams,
    n: int,
) -> TorusSystem:
    """Validated line-bundle system; refuses exactly what :func:`admissibility`
    refuses for the vertex degrees 2 pi d_v at rank one."""
    grid = TorusGrid(n)
    degs = {v: int(degrees.get(v, 0)) for v in quiver.vertices}
    fields: dict[str, np.ndarray] = {}
    specs: dict[str, WeightSpec] = {}
    for a in quiver.arrows:
        w = weights.get(a.name, 0.0)
        if isinstance(w, WeightSpec):
            specs[a.name] = w
            w = w.realize(grid)
        elif np.isscalar(w):
            specs[a.name] = WeightSpec("constant", value=float(w))
            w = np.full((n, n), float(w))
        else:
            w = np.asarray(w, dtype=float)
            if w.shape != (n, n):
                raise ShapeMismatch(f"weight field for arrow {a.name!r} has wrong shape")
            specs[a.name] = WeightSpec("bump")  # free-form fields count as synthetic
        if not np.all(np.isfinite(w)):
            raise NonFiniteData(f"weight field for arrow {a.name!r} has a non-finite entry")
        if w.min() < 0:
            raise ShapeMismatch(f"weight field for arrow {a.name!r} is negative somewhere")
        w = np.array(w)
        w.flags.writeable = False
        fields[a.name] = w
    system = TorusSystem(quiver, grid, degs, fields, params, specs)
    degree_data = DegreeData({v: TWO_PI * d for v, d in degs.items()}, dict.fromkeys(degs, 1))
    if not admissibility(degree_data, params):
        raise InadmissibleParameters(
            f"sum sigma 2 pi d - sum tau = {system.admissibility_defect():.6e} violates admissibility"
        )
    return system


@dataclass(frozen=True)
class PotentialState:
    """One real scalar potential per vertex; H_v = K_v e^{2 u_v}."""

    u: Mapping[str, np.ndarray]

    def __post_init__(self):
        cleaned = {}
        for v, f in self.u.items():
            f = np.array(f, dtype=float)
            f.flags.writeable = False
            cleaned[v] = f
        object.__setattr__(self, "u", cleaned)


def _check_state(system: TorusSystem, state: PotentialState) -> None:
    """Refuse a state that misses a vertex (:class:`QuiverMismatch`), or
    whose potential is not N x N (:class:`ShapeMismatch`) or not finite
    (:class:`NonFiniteData`)."""
    n = system.grid.n
    for v in system.quiver.vertices:
        if v not in state.u:
            raise QuiverMismatch(f"state has no potential for vertex {v!r}")
        if state.u[v].shape != (n, n):
            raise ShapeMismatch(f"potential of vertex {v!r} has shape {state.u[v].shape}, not {(n, n)}")
        if not np.isfinite(state.u[v]).all():
            raise NonFiniteData(f"potential of vertex {v!r} has a non-finite entry")


def gauge_defect(system: TorusSystem, state: PotentialState) -> float:
    return float(
        sum(system.params.sigma[v] * system.grid.mean(state.u[v]) for v in system.quiver.vertices)
    )


def gauge_fix(system: TorusSystem, u: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    sig = system.params.sigma
    shift = sum(sig[v] * system.grid.mean(u[v]) for v in system.quiver.vertices) / sum(
        sig[v] for v in system.quiver.vertices
    )
    return {v: u[v] - shift for v in system.quiver.vertices}


def _arrow_exponents(system: TorusSystem, u: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {
        a.name: system.weights[a.name] * np.exp(2.0 * (u[a.head] - u[a.tail]))
        for a in system.quiver.arrows
    }


def vortex_residual(system: TorusSystem, state: PotentialState):
    """Per-vertex residual field of the coupled system; refuses what
    :func:`_check_state` refuses, and a state whose trace-gauge defect
    exceeds ``GAUGE_TOL``."""
    _check_state(system, state)
    if abs(gauge_defect(system, state)) > GAUGE_TOL:
        raise GaugeViolation(
            f"state violates the trace gauge by {gauge_defect(system, state):.3e}"
        )
    return _residual_fields(system, state.u)


def _residual_fields(system: TorusSystem, u: Mapping[str, np.ndarray], coupling=None, lap_u=None):
    """Residual fields; ``coupling`` (the arrow terms w_a e^{2(u_head -
    u_tail)}) and ``lap_u`` (the Laplacians of ``u``) are computed from
    ``u`` unless given."""
    grid = system.grid
    sig, tau = system.params.sigma, system.params.tau
    if coupling is None:
        coupling = _arrow_exponents(system, u)
    if lap_u is None:
        lap_u = {v: grid.lap(u[v]) for v in system.quiver.vertices}
    out = {
        v: sig[v] * (TWO_PI * system.degrees[v] - lap_u[v]) - tau[v]
        for v in system.quiver.vertices
    }
    for a in system.quiver.arrows:
        out[a.head] = out[a.head] + coupling[a.name]
        out[a.tail] = out[a.tail] - coupling[a.name]
    return out


def residual_integral_defect(system: TorusSystem, residual: Mapping[str, np.ndarray]) -> float:
    """Unweighted vertex sum of residual means; equals the admissibility
    defect for every state because the arrow terms telescope."""
    return float(sum(system.grid.mean(residual[v]) for v in system.quiver.vertices))


def _sup(residual: Mapping[str, np.ndarray]) -> float:
    return max(float(np.abs(r).max()) for r in residual.values())


@dataclass
class VortexResult:
    """A converged solve.  ``iterations``, ``history`` and ``states`` are
    the finest grid's; ``levels`` lists (grid size, Newton steps) of each
    grid whose solution started the next, coarsest first, and the finest,
    and ``cg_iterations`` the CG iterations of the same levels."""

    state: PotentialState
    sup_residual: float
    iterations: int
    history: list[tuple[int, float, float]] = field(repr=False, default_factory=list)
    states: list[PotentialState] | None = None
    levels: list[tuple[int, int]] = field(default_factory=list)
    cg_iterations: list[int] = field(default_factory=list)


def _mean_product(a: np.ndarray, b: np.ndarray) -> float:
    """mean(a * b) of two real fields, without forming the product."""
    return float(np.vdot(a, b)) / a.size


def _l2(grid: TorusGrid, f: Mapping[str, np.ndarray]) -> float:
    """Mean-L2 norm sqrt(sum_v mean(f_v^2)) of a per-vertex field."""
    return float(np.sqrt(sum(_mean_product(g, g) for g in f.values())))


def _pcg(system, coupling, b, rtol, max_iter):
    """Preconditioned CG for the (positive semidefinite) Newton operator J;
    returns the solution x, its Hessian form sum_v mean(x_v (J x)_v) and
    the number of iterations run.

    Stops once the mean-L2 residual is at most ``rtol`` times that of the
    (projected) right-hand side; at least one iteration always runs.
    Preconditioner: per vertex, the spectral inverse of
    M_v = -sigma_v lap + d_v, d_v the mean diagonal coupling (at least
    1e-8), applied with one ``rfft2``/``irfft2`` pair.  The operator is
    J = M + (coupling - d), a pointwise remainder, and M p is carried
    beside p: M z = r, so M p <- r + beta M p (Eisenstat, SIAM J. Sci.
    Stat. Comput. 2, 1981).  Each iteration thus takes one transform pair
    per vertex, the preconditioner's, and no Laplacian.  The operator's
    kernel (the all-ones direction) is removed from the right-hand side up
    front and by the final gauge fix.
    """
    grid = system.grid
    verts = list(system.quiver.vertices)
    diag = {v: 0.0 for v in verts}
    for a in system.quiver.arrows:
        m = 2.0 * grid.mean(coupling[a.name])
        diag[a.head] += m
        diag[a.tail] += m
    diag = {v: max(diag[v], 1e-8) for v in verts}
    inv_sym = {v: 1.0 / (-system.params.sigma[v] * grid._lap_sym + diag[v]) for v in verts}
    shape = (grid.n, grid.n)

    def precond(r):
        return {v: np.fft.irfft2(np.fft.rfft2(r[v]) * inv_sym[v], s=shape) for v in verts}

    # project the all-ones kernel component out of b
    total = sum(grid.mean(b[v]) for v in verts) / len(verts)
    b = {v: b[v] - total for v in verts}

    x = {v: np.zeros_like(b[v]) for v in verts}
    r = dict(b)
    b_norm = _l2(grid, b)
    if b_norm == 0:
        return x, 0.0, 0
    z = precond(r)
    p, mp = dict(z), dict(r)
    rz = sum(_mean_product(r[v], z[v]) for v in verts)
    for it in range(1, max_iter + 1):
        ap = {v: mp[v] - diag[v] * p[v] for v in verts}
        for a in system.quiver.arrows:
            c = 2.0 * coupling[a.name] * (p[a.head] - p[a.tail])
            ap[a.head] += c
            ap[a.tail] -= c
        pap = sum(_mean_product(p[v], ap[v]) for v in verts)
        if pap <= 0:
            break
        alpha = rz / pap
        x = {v: x[v] + alpha * p[v] for v in verts}
        r = {v: r[v] - alpha * ap[v] for v in verts}
        if _l2(grid, r) <= rtol * b_norm:
            break
        z = precond(r)
        rz_new = sum(_mean_product(r[v], z[v]) for v in verts)
        beta = rz_new / rz
        rz = rz_new
        p = {v: z[v] + beta * p[v] for v in verts}
        mp = {v: r[v] + beta * mp[v] for v in verts}
    # r is updated by recurrence, so J x = b - r
    return x, sum(_mean_product(x[v], b[v]) - _mean_product(x[v], r[v]) for v in verts), it


# Eisenstat-Walker forcing terms, choice 2 with its safeguard ("Choosing the
# forcing terms in an inexact Newton method", SIAM J. Sci. Comput. 17, 1996)
EW_GAMMA = 0.9
EW_ALPHA = 2.0
EW_ETA_MAX = 0.5
EW_SAFEGUARD = 0.1
# the last steps need a linear residual of only this fraction of ``tol``
EW_TOL_FRACTION = 0.1
# floor of every step's CG relative tolerance, and the CG iteration budget
CG_RTOL = 1e-12
CG_MAX_ITER = 800


def _forcing_term(eta_ew: float, r_norm: float, tol: float, cg_rtol: float) -> float:
    """CG relative tolerance of one Newton step: the Eisenstat-Walker term,
    at most ``EW_ETA_MAX`` and at least what reaching ``tol`` needs,
    floored by ``cg_rtol``."""
    return max(cg_rtol, min(EW_ETA_MAX, max(eta_ew, EW_TOL_FRACTION * tol / r_norm)))


def _unsolvable_subset(system: TorusSystem) -> tuple[tuple[str, ...], float] | None:
    """A proper vertex subset S proving that the energy F of
    :func:`solve_vortex` has no minimizer, with its weighted degree
    sum_{v in S} (2 pi sigma_v d_v - tau_v); None when F has one.

    The Dirichlet term controls every direction but the constant shifts.
    Moving u by c 1_S (c -> +infinity) keeps F finite only when S is closed
    under "head in S implies tail in S" for the arrows with a nonzero
    weight field; F then changes by c times the degree of S plus the terms
    of the arrows leaving S, which decay.  So F has a minimizer exactly
    when every closed proper S has a positive degree, or degree zero (to
    the ``admissibility`` tolerance) and no such arrow leaving it.  The
    closed subsets are the complements of the subobjects, and this is the
    point-scale subset test at degrees 2 pi d_v and rank one.
    """
    verts = list(system.quiver.vertices)
    live = [a for a in system.quiver.arrows if system.weights[a.name].max() > 0]
    for size in range(1, len(verts)):
        for subset in itertools.combinations(verts, size):
            inside = set(subset)
            if any(a.head in inside and a.tail not in inside for a in live):
                continue
            data = DegreeData({v: TWO_PI * system.degrees[v] for v in subset}, dict.fromkeys(subset, 1))
            deg, _ = degree_and_slope(data, system.params)
            if admissibility(data, system.params):
                if not any(a.tail in inside and a.head not in inside for a in live):
                    continue
            elif deg > 0:
                continue
            return subset, deg
    return None


# Armijo's sufficient-decrease constant for the energy line search, and its
# backtracking factor: the damping factors in ``history`` are powers of one
# half
ARMIJO_C = 1e-4
BACKTRACK = 0.5


def _energy_step(system, u, res, coupling, delta, quad):
    """Armijo backtracking on the energy F along ``delta``.

    Along u + t delta the change of F is exact in closed form,

        F(t) - F(0) = t (g0 - E1) + t^2 C / 2
                      + sum_a mean(c_a expm1(2 t (delta_head - delta_tail))) / 2,

    g0 = sum_v mean(res_v delta_v) the derivative at t = 0,
    E1 = sum_a mean(c_a (delta_head - delta_tail)) and
    C = sum_v sigma_v mean(|grad delta_v|^2), read off the Hessian form
    ``quad`` = sum_v mean(delta_v (J delta)_v)
             = C + 2 sum_a mean(c_a (delta_head - delta_tail)^2)
    that CG returns.  So a trial costs one ``expm1`` per arrow and no
    transform.  Returns the accepted step and the coupling there,
    c_a (1 + expm1(...)), or None when ``delta`` is no descent direction or
    every step that still moves u fails.
    """
    verts = system.quiver.vertices
    g0 = sum(_mean_product(res[v], delta[v]) for v in verts)
    if not g0 < 0:
        return None
    rise = {a.name: delta[a.head] - delta[a.tail] for a in system.quiver.arrows}
    e1 = sum(_mean_product(coupling[name], d) for name, d in rise.items())
    curv = quad - 2.0 * sum(_mean_product(coupling[name] * d, d) for name, d in rise.items())
    t, t_min = 1.0, None
    # a long trial may overflow expm1; its energy is then inf or nan and fails
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            growth = {name: np.expm1((2.0 * t) * d) for name, d in rise.items()}
            change = t * (g0 - e1) + 0.5 * t * t * curv + 0.5 * sum(
                _mean_product(coupling[name], g) for name, g in growth.items()
            )
            if change <= ARMIJO_C * t * g0:
                for name, g in growth.items():
                    g += 1.0
                    g *= coupling[name]
                return t, growth
            t *= BACKTRACK
            if t_min is None:
                # below this step, u + t delta rounds to u
                t_min = np.finfo(float).eps * max(
                    max(float(np.abs(u[v]).max()) for v in verts), 1.0
                ) / max(float(np.abs(delta[v]).max()) for v in verts)
            if t < t_min:
                return None


# a solve on a grid finer than this starts from the solution on the grid of
# half its size (nested iteration)
COARSE_N = 64


def _coarse_system(system: TorusSystem) -> TorusSystem:
    """The same system on the grid of half the size, its weight fields
    sampled at the even points; for a :class:`WeightSpec` that is exactly
    the field realized on the coarse grid."""
    return TorusSystem(
        system.quiver,
        TorusGrid(system.grid.n // 2),
        system.degrees,
        {name: np.ascontiguousarray(w[::2, ::2]) for name, w in system.weights.items()},
        system.params,
        system.weight_specs,
    )


def _prolong(f: np.ndarray, n: int) -> np.ndarray:
    """Half spectrum (``rfft2`` layout) of the trigonometric interpolation
    of a periodic m x m field to the n x n grid, n = 2m: the coarse half
    spectrum is zero-padded, and its Nyquist row and column are split in
    half between the frequencies +-m/2.  Its ``irfft2`` sampled at the
    coarse points is ``f`` again."""
    m = f.shape[0]
    h = m // 2
    coarse = np.fft.rfft2(f) * (n / m) ** 2
    coarse[h, :] *= 0.5
    coarse[:, h] *= 0.5
    fine = np.zeros((n, n // 2 + 1), dtype=complex)
    fine[: h + 1, : h + 1] = coarse[: h + 1]
    fine[n - h :, : h + 1] = coarse[h:]
    return fine


def solve_vortex(
    system: TorusSystem,
    tol: float = 1e-8,
    max_newton: int = 30,
    record_states: bool = False,
    initial: PotentialState | None = None,
) -> VortexResult:
    """Damped inexact Newton on the gauge-fixed potentials, minimizing the
    convex energy whose gradient is the residual,

        F(u) = sum_v sigma_v/2 mean|grad u_v|^2 + sum_v (2 pi sigma_v d_v - tau_v) mean(u_v)
               + sum_a mean(w_a e^{2(u_head - u_tail)}) / 2.

    Before any step, the subset test of :func:`_unsolvable_subset` decides
    from the data whether F has a minimizer.  On data that fail it,
    :class:`NewtonStall` is raised at once, naming the subset, with the
    one-entry history ``[(0, sup residual, 1.0)]`` and the gauge-fixed start
    as ``best_state``.

    Each step solves the Newton system (the Hessian of F) by preconditioned
    CG only as exactly as the step needs: to the Eisenstat-Walker forcing
    term (choice 2)

        eta_k = gamma (|r_k| / |r_{k-1}|)^alpha,  gamma = 0.9, alpha = 2,

    raised to gamma eta_{k-1}^alpha when that exceeds 0.1 (eta_{k-1} the
    tolerance the previous step used), capped at 0.5 (also the first
    step's term), and kept at least
    ``max(CG_RTOL, 0.1 tol / |r_k|)`` so the last steps still reach
    ``tol`` without over-solving; CG stops after ``CG_MAX_ITER``
    iterations in any case.  Norms |r| are mean-L2 over all
    vertices; each CG iteration takes one ``rfft2``/``irfft2`` pair per
    vertex (see :func:`_pcg`).  The step is then damped by halving until F
    decreases by Armijo's rule (see :func:`_energy_step`); the residual is
    evaluated once per step, at the accepted point.

    The solve stops once the sup residual is at most ``tol``, which must be
    finite and positive.  :class:`NewtonStall` (with the best state and the
    residual history) also ends a solve that runs out of ``max_newton``
    steps, a nonnegative integer, or whose line search finds no decrease.

    Without ``initial``, a grid finer than ``COARSE_N`` starts from the
    solution on the grid of half its size (nested iteration): that solve,
    itself started the same way, takes the same ``tol`` and ``max_newton``
    (a budget per level) and the weight fields at the even points, and its
    solution is prolonged by trigonometric interpolation.  A coarse level
    that raises :class:`NewtonStall` (the even points can miss a weight's
    support) leaves the start at zero.  The prolongation's half spectrum
    gives both the fine start (one ``irfft2`` per vertex) and its first
    residual's Laplacian (one more), so a level that takes no Newton step
    does no forward transform at its own size; every later residual is a
    fresh transform of u.  A level that stops at its first residual is
    thus certified on the interpolant, whose returned samples are rounded:
    their fresh residual differs by that rounding times the Laplacian
    symbol, about 1e-10 at N = 256.  The fine solve's stopping rule is unchanged, so
    ``tol`` holds on the fine grid, and a smooth solution often needs no
    fine step at all.  ``iterations``, ``history`` and ``states`` are the
    finest level's; ``levels`` gives (grid size, Newton steps) and
    ``cg_iterations`` the CG iterations per level, coarsest first, leaving
    out a level that stalled.  Grids of at most ``COARSE_N`` points and
    solves given ``initial`` run one level; ``initial`` is refused as
    :func:`_check_state` refuses it, before any transform.
    """
    check_tolerance("tol", tol)
    check_count("max_newton", max_newton)
    grid = system.grid
    verts = list(system.quiver.vertices)
    if initial is not None:
        _check_state(system, initial)
    witness = _unsolvable_subset(system)
    levels, cg_levels, lap_u = [], [], None
    if initial is None:
        u = {v: np.zeros((grid.n, grid.n)) for v in verts}
        if witness is None and grid.n > COARSE_N:
            try:
                coarse = solve_vortex(_coarse_system(system), tol, max_newton)
            except NewtonStall:
                pass  # e.g. the even points miss a weight's support
            else:
                levels, cg_levels = coarse.levels, coarse.cg_iterations
                spec = {v: _prolong(coarse.state.u[v], grid.n) for v in verts}
                u = gauge_fix(system, {v: np.fft.irfft2(spec[v], s=(grid.n, grid.n)) for v in verts})
                # gauge_fix moves only the mean mode, which lap's symbol zeroes
                lap_u = {v: grid._lap_of_spectrum(spec[v]) for v in verts}
    else:
        u = gauge_fix(system, {v: np.array(initial.u[v]) for v in verts})
    history: list[tuple[int, float, float]] = []
    states: list[PotentialState] = []
    cg_iterations = 0
    coupling = _arrow_exponents(system, u)
    res = _residual_fields(system, u, coupling, lap_u)
    sup = _sup(res)
    r_norm = _l2(grid, res)
    eta_ew = EW_ETA_MAX
    history.append((0, sup, 1.0))
    if witness is not None:
        subset, deg = witness
        raise NewtonStall(
            f"vertex subset {{{', '.join(subset)}}} has weighted degree {deg:.6e}: "
            "the energy has no minimizer and the system no solution",
            best_state=PotentialState(u),
            history=history,
        )
    if record_states:
        states.append(PotentialState(u))
    for it in range(1, max_newton + 1):
        if sup <= tol:
            break
        eta = _forcing_term(eta_ew, r_norm, tol, CG_RTOL)
        delta, quad, iters = _pcg(system, coupling, {v: -res[v] for v in verts}, eta, CG_MAX_ITER)
        cg_iterations += iters
        # return to the gauge tangent (the CG kernel direction is free, and
        # the Hessian form does not see it)
        delta = gauge_fix(system, delta)
        step = _energy_step(system, u, res, coupling, delta, quad)
        if step is None:
            raise NewtonStall(
                f"no step along the Newton direction decreases the energy (sup residual {sup:.3e})",
                best_state=PotentialState(gauge_fix(system, u)),
                history=history,
            )
        damping, coupling = step
        u = {v: u[v] + damping * delta[v] for v in verts}
        res = _residual_fields(system, u, coupling)
        sup = _sup(res)
        r_prev, r_norm = r_norm, _l2(grid, res)
        safeguard = EW_GAMMA * eta**EW_ALPHA
        eta_ew = EW_GAMMA * (r_norm / r_prev) ** EW_ALPHA
        if safeguard > EW_SAFEGUARD:
            eta_ew = max(eta_ew, safeguard)
        history.append((it, sup, damping))
        if record_states:
            states.append(PotentialState(u))
    if sup > tol:
        raise NewtonStall(
            f"no convergence in {max_newton} Newton steps (sup residual {sup:.3e})",
            best_state=PotentialState(gauge_fix(system, u)),
            history=history,
        )
    state = PotentialState(gauge_fix(system, u))
    return VortexResult(
        state=state,
        sup_residual=sup,
        iterations=len(history) - 1,
        history=history,
        states=states if record_states else None,
        levels=levels + [(grid.n, len(history) - 1)],
        cg_iterations=cg_levels + [cg_iterations],
    )


# ---------------------------------------------------------------------------
# Yang-Mills-Higgs energy splitting


@dataclass(frozen=True)
class YmhReport:
    lhs: float
    rhs: float
    mismatch: float
    satisfied: bool
    synthetic_weights: bool = False


def ymh_identity(
    system: TorusSystem,
    state: PotentialState,
    phi_fields: Mapping[str, np.ndarray],
    tol: float = 1e-6,
) -> YmhReport:
    """Energy-splitting identity for the Yang-Mills-Higgs functional.

    LHS: sum_v sigma_v |F_v|^2 + 2 sum_a |d_A phi_a|^2
         + sum_v sigma_v^{-1} |U_v - tau_v|^2;
    RHS: 4 sum_a |dbar_A phi_a|^2 + 4 pi sum_v tau_v d_v
         + sum_v sigma_v^{-1} |vortex residual_v|^2.

    Complex dimension one (no second Chern character term) and flat twist
    metrics (no twist-curvature term).  Arrow weights are recomputed as
    |phi_a|^2 pointwise so both sides see the same data; arrows without a
    phi field contribute zero.  Phi fields are genuine periodic sections
    only between degree-zero vertices, hence the precondition.  ``tol``, the
    largest relative mismatch accepted, must be finite and positive.

    Each potential is transformed once by ``rfft2``; its half spectrum
    gives the curvature and, through :meth:`TorusGrid._dhol_of_spectrum`,
    d rho once per vertex pair joined by a phi arrow.  Each phi field costs
    one :meth:`TorusGrid._half_partials` call, which gives both dbar phi and
    d phi, so the identity takes no 2-D complex transform; each arrow's
    temporaries are freed before the next.  That is about 7 complex N x N
    transform equivalents per call on the two-vertex, two-arrow case, the
    floor of this formulation.  Before any transform, the state is checked
    by :func:`_check_state`, and a phi field naming no arrow of the quiver
    raises :class:`QuiverMismatch` and one that is not N x N
    :class:`ShapeMismatch`; a phi field or state that makes either side
    non-finite raises :class:`NonFiniteData`.
    """
    check_tolerance("tol", tol)
    _check_state(system, state)
    n = system.grid.n
    for name, phi in phi_fields.items():
        try:
            a = system.quiver.arrow(name)
        except KeyError:
            raise QuiverMismatch(f"phi field names no arrow of the quiver: {name!r}") from None
        if system.degrees[a.tail] != 0 or system.degrees[a.head] != 0:
            raise UnsupportedDegrees(
                f"phi field on arrow {name!r} needs degree-zero endpoints"
            )
        if np.shape(phi) != (n, n):
            raise ShapeMismatch(f"phi field on arrow {name!r} has shape {np.shape(phi)}, not {(n, n)}")
    # a non-finite entry shows in the sums and is refused there, without
    # warnings from the transforms on the way
    with np.errstate(invalid="ignore", over="ignore"):
        lhs, rhs = _ymh_sides(system, state.u, phi_fields)
    if not (np.isfinite(lhs) and np.isfinite(rhs)):
        raise NonFiniteData(
            f"YMH energies are not finite (lhs {lhs}, rhs {rhs}): "
            "a phi field or the state has a non-finite entry or overflows"
        )
    mismatch = abs(lhs - rhs) / (1.0 + abs(lhs))
    synthetic = any(
        spec.synthetic for spec in (system.weight_specs or {}).values()
    )
    return YmhReport(float(lhs), float(rhs), float(mismatch), mismatch <= tol, synthetic)


def _ymh_sides(system: TorusSystem, u, phi_fields) -> tuple[float, float]:
    """The two sides of :func:`ymh_identity` on checked input."""
    grid, n = system.grid, system.grid.n
    sig, tau, verts = system.params.sigma, system.params.tau, system.quiver.vertices
    # spectra that d rho reads too
    spec = {v: np.fft.rfft2(u[v]) for v in verts}
    f_curv = {v: TWO_PI * system.degrees[v] - grid._lap_of_spectrum(spec[v]) for v in verts}
    # d rho, rho = 2 (u_head - u_tail), once per vertex pair joined by a phi
    # arrow: a parallel arrow shares it, a reversed one negates it, and a
    # loop has rho = 0
    drho = {}
    for a in system.quiver.arrows:
        pair = (a.tail, a.head)
        if a.name in phi_fields and a.tail != a.head and pair not in drho and pair[::-1] not in drho:
            drho[pair] = grid._dhol_of_spectrum(2.0 * (spec[a.head] - spec[a.tail]))
    del spec
    buf = np.empty((n, n))

    def weighted(f, erho):  # |f|^2 e^rho, in buf
        np.abs(f, out=buf)
        np.multiply(buf, buf, out=buf)
        return np.multiply(buf, erho, out=buf)

    # coupling terms from the phi magnitudes
    big_u = {v: np.zeros((n, n)) for v in verts}
    kinetic = 0.0
    dbar_term = 0.0
    for a in system.quiver.arrows:
        phi = phi_fields.get(a.name)
        if phi is None:
            continue
        phi = np.asarray(phi, dtype=complex)
        rho = 2.0 * (u[a.head] - u[a.tail])
        erho = np.exp(rho, out=rho)  # in rho's buffer
        w_h = weighted(phi, erho)
        big_u[a.head] += w_h
        big_u[a.tail] -= w_h
        px, py = grid._half_partials(phi)
        py *= 1j
        d = px + py  # dbar phi
        dbar_a = 2.0 * grid.mean(weighted(d, erho))
        np.subtract(px, py, out=d)  # d phi
        del py
        if (a.tail, a.head) in drho:  # d_A phi = d phi + phi d rho
            d += np.multiply(phi, drho[a.tail, a.head], out=px)
        elif (a.head, a.tail) in drho:
            d -= np.multiply(phi, drho[a.head, a.tail], out=px)
        dhol_a = 2.0 * grid.mean(weighted(d, erho))
        del rho, erho, px, d  # before the next arrow's fields
        dbar_term += dbar_a
        kinetic += dbar_a + dhol_a
    curv_term = sum(sig[v] * grid.mean(f_curv[v] ** 2) for v in verts)
    mm_term = sum(grid.mean((big_u[v] - tau[v]) ** 2) / sig[v] for v in verts)
    resid_term = sum(
        grid.mean((sig[v] * f_curv[v] + big_u[v] - tau[v]) ** 2) / sig[v] for v in verts
    )
    topological = 4.0 * np.pi * sum(tau[v] * system.degrees[v] for v in verts)
    return curv_term + 2.0 * kinetic + mm_term, 4.0 * dbar_term + topological + resid_term


# ---------------------------------------------------------------------------
# flat-case reduction to the point-scale flow


@dataclass(frozen=True)
class FlatCaseResult:
    rep: object
    flow_report: object
    vortex: VortexResult
    sup_difference: float


def flat_case_reduce(system: TorusSystem, flow_opts: FlowOptions | None = None) -> FlatCaseResult:
    """All-degree-zero constant-weight systems reduce to a point-scale
    representation with |phi_a|^2 = w_a; the torus solution must be the
    constant lift of the point-scale metric."""
    for v in system.quiver.vertices:
        if system.degrees[v] != 0:
            raise NotFlatCase(f"vertex {v!r} has nonzero degree")
    consts = {}
    for a in system.quiver.arrows:
        w = system.weights[a.name]
        if float(np.ptp(w)) > 1e-12 * (1.0 + float(np.abs(w).max())):
            raise NotFlatCase(f"weight on arrow {a.name!r} is not constant")
        consts[a.name] = float(np.mean(w))
    quiver = system.quiver
    slices = {
        a.name: [np.array([[np.sqrt(consts[a.name])]], dtype=complex)]
        for a in quiver.arrows
    }
    rep = build_rep(quiver, TwistSpec.trivial(quiver), {v: 1 for v in quiver.vertices}, slices)
    opts = flow_opts or FlowOptions(tol=1e-12)
    report = flow_solve(rep, system.params, opts)
    if not report.converged:
        raise NotASolution(
            f"point-scale flow did not converge (status {report.status})"
        )
    vortex = solve_vortex(system)
    sup_diff = 0.0
    for v in quiver.vertices:
        u_point = 0.5 * float(np.log(np.real(report.final_metric.h[v][0, 0])))
        sup_diff = max(sup_diff, float(np.abs(vortex.state.u[v] - u_point).max()))
    return FlatCaseResult(rep, report, vortex, sup_diff)
