"""Finite-dimensional Kempf-Ness machinery at point scale.

Given a representation and stability parameters, the moment map assigns to a
Hermitian metric H the per-vertex defect

    m_v(H) = sum_{head(a)=v} phi_a phi_a^{*H} - sum_{tail(a)=v} phi_a^{*H} phi_a
             - tau_v id,

with twist slices contracted against the inverse twist weight.  Metrics
solving m(H) = 0 are exactly the minima of the Kempf-Ness energy

    M(s) = (psi(s) phi, phi) - |phi|^2 - sum_v tau_v tr(s_v),
    psi(x, y) = exp(x - y),

which is geodesically convex on the positive-definite cone, so gradient
descent along metric geodesics decides existence: either the residual goes
to zero with bounded s = log H, or ||s|| blows up with monotonically
decreasing energy and the normalized limit direction s/||s|| carries the
destabilizing spectral data.

The flow optimizes in the s-chart (H = e^s against the identity background)
and transports the metric gradient into that chart through the joint
eigenbasis; this keeps every eigendecomposition applied to matrices of
moderate norm even while H itself becomes astronomically ill-conditioned
near divergence.

sigma enters only the trace gauge (sum_v sigma_v tr log H_v = 0) and slope
normalization, never the residual; at point scale the equations carry no
curvature term.  Do not reuse this residual for grid-scale systems, where
sigma multiplies the curvature.
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from ._linalg import check_hpd, eigh_checked, funm_herm, herm, orthonormal_columns, random_hermitian
from .errors import InadmissibleParameters, NoSeparation, ZeroTotalRank
from .reps import SubrepWitness, TwistedRep, check_subrep, invariant_closure, invariant_complement
from .slope import SLOPE_TOL, admissibility, degree_and_slope

HermCollection = Mapping[str, np.ndarray]


# ---------------------------------------------------------------------------
# the chart kernel: e^{±s}, the H-norm and metric states


class _Chart:
    """Eigen-data of s = log H (identity background), the metric factors
    e^{±s} and, given ``rep``, its adjoint slices; the half factors
    e^{±s/2} are built on first use."""

    def __init__(self, s: HermCollection, rep: TwistedRep | None = None):
        self.s = {v: herm(sv) for v, sv in s.items()}
        self.eig = {v: eigh_checked(sv) for v, sv in self.s.items()}
        self.h = {v: herm((u * np.exp(w)) @ u.conj().T) for v, (w, u) in self.eig.items()}
        self.hinv = {v: herm((u * np.exp(-w)) @ u.conj().T) for v, (w, u) in self.eig.items()}
        self.adj = None if rep is None else _adjoint_raw(rep, self.h, self.hinv)

    @cached_property
    def half(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        return {
            v: ((u * np.exp(0.5 * w)) @ u.conj().T, (u * np.exp(-0.5 * w)) @ u.conj().T)
            for v, (w, u) in self.eig.items()
        }


def _frob(c: HermCollection) -> float:
    """Frobenius norm of a per-vertex collection."""
    return float(np.sqrt(sum(np.linalg.norm(x) ** 2 for x in c.values())))


def _h_norm_sq(half: Mapping[str, tuple], m: HermCollection) -> float:
    """Squared H-Frobenius norm sum_v |H_v^{1/2} m_v H_v^{-1/2}|^2 of an
    H-selfadjoint collection, given the pairs (H_v^{1/2}, H_v^{-1/2})."""
    total = 0.0
    for v, mv in m.items():
        hs, his = half[v]
        total += float(np.linalg.norm(herm(hs @ mv @ his)) ** 2)
    return total


@dataclass(frozen=True)
class MetricState:
    """One Hermitian positive definite form per vertex.

    ``validate=False`` skips the definiteness check; the flow uses it when
    packaging endpoints that did not converge, whose condition number can
    defeat floating point eigensolvers.
    """

    h: Mapping[str, np.ndarray]
    validate: InitVar[bool] = True

    def __post_init__(self, validate):
        cleaned = {}
        for v, m in self.h.items():
            m = np.array(m, dtype=complex)
            if validate:
                check_hpd(m, cond_limit=np.inf)
            m.flags.writeable = False
            cleaned[v] = m
        object.__setattr__(self, "h", cleaned)

    @classmethod
    def identity(cls, rep: TwistedRep) -> "MetricState":
        return cls({v: np.eye(rep.dims[v], dtype=complex) for v in rep.quiver.vertices})

    @classmethod
    def from_log(cls, s: HermCollection, validate: bool = True) -> "MetricState":
        return cls(_Chart(s).h, validate)


# ---------------------------------------------------------------------------
# scalar function tables and eigenvalue functional calculus


@dataclass(frozen=True)
class ScalarFunctionTable:
    """A unary and/or bivariate scalar function for the Hermitian calculus.

    Bivariate callables must be vectorized over numpy grids and continuous
    across the diagonal (removable singularities handled inside the callable,
    as in the built-ins below).
    """

    name: str
    unary: Callable[[np.ndarray], np.ndarray] | None = None
    bivariate: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None


def _exp_remainder2(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(e^d - d - 1) / d^2 with d = y - x; value 1/2 on the diagonal."""
    d = np.asarray(y, dtype=float) - np.asarray(x, dtype=float)
    out = np.empty_like(d)
    small = np.abs(d) < 1e-5
    ds = d[small]
    out[small] = 0.5 + ds / 6.0 + ds**2 / 24.0 + ds**3 / 120.0
    db = d[~small]
    out[~small] = (np.exp(db) - db - 1.0) / db**2
    return out


def _dexp_inverse(d: np.ndarray) -> np.ndarray:
    """d / (e^d - 1), the inverse derivative factor of the matrix exponential;
    value 1 on the diagonal."""
    d = np.asarray(d, dtype=float)
    out = np.empty_like(d)
    small = np.abs(d) < 1e-5
    ds = d[small]
    out[small] = 1.0 - ds / 2.0 + ds**2 / 12.0
    db = d[~small]
    out[~small] = db / np.expm1(db)
    return out


#: psi(x, y) = e^{x-y}: conjugation weight turning background pairings into
#: metric pairings.
PSI_EXP = ScalarFunctionTable("exp_conjugation", bivariate=lambda x, y: np.exp(x - y))

#: Psi(x, y) = (e^{y-x} - (y-x) - 1)/(y-x)^2, with Psi(x, x) = 1/2.
PSI_REMAINDER = ScalarFunctionTable("exp_remainder2", bivariate=_exp_remainder2)


def difference_quotient(f: Callable, fprime: Callable) -> ScalarFunctionTable:
    """Table for (f(y) - f(x))/(y - x) extended by f'(x) on the diagonal."""

    def biv(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        d = y - x
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (f(y) - f(x)) / d
        diag = np.abs(d) < 1e-12
        if np.any(diag):
            out = np.where(diag, fprime(x), out)
        return out

    return ScalarFunctionTable("difference_quotient", bivariate=biv)


def _clustered(w: np.ndarray, rtol: float = 1e-12) -> np.ndarray:
    """Replace near-degenerate eigenvalues by cluster means so bivariate
    tables see a basis-independent spectrum."""
    if w.size < 2:
        return w
    spread = float(w[-1] - w[0])
    if spread <= 0:
        return np.full_like(w, w.mean() if w.size else 0.0)
    out = w.astype(float).copy()
    start = 0
    for i in range(1, w.size + 1):
        if i == w.size or w[i] - w[i - 1] > rtol * (1.0 + spread):
            out[start:i] = out[start:i].mean()
            start = i
    return out


def apply_bivariate_endo(s: HermCollection, table: ScalarFunctionTable, f: HermCollection):
    """Scale an endomorphism collection entrywise in each vertex eigenbasis."""
    out = {}
    for v, sv in s.items():
        w, u = eigh_checked(sv)
        lam = _clustered(w)
        coeff = table.bivariate(lam[:, None], lam[None, :])
        out[v] = u @ (coeff * (u.conj().T @ f[v] @ u)) @ u.conj().T
    return out


def apply_bivariate_rep(s: HermCollection, table: ScalarFunctionTable, rep: TwistedRep):
    """Scale arrow slices by F(head eigenvalue, tail eigenvalue); the twist
    index is untouched."""
    eig = {v: eigh_checked(sv) for v, sv in s.items()}
    out = {}
    for a in rep.quiver.arrows:
        wh, uh = eig[a.head]
        wt, ut = eig[a.tail]
        coeff = table.bivariate(_clustered(wh)[:, None], _clustered(wt)[None, :])
        out[a.name] = tuple(
            uh @ (coeff * (uh.conj().T @ sl @ ut)) @ ut.conj().T
            for sl in rep.slices[a.name]
        )
    return out


def eigen_calculus(s: HermCollection, table: ScalarFunctionTable, target=None):
    """Dispatching front end for the Hermitian functional calculus.

    ``target=None`` applies the unary function to ``s`` itself; a
    representation target transforms its arrow slices; a per-vertex
    collection is treated as an endomorphism target.
    """
    if target is None:
        if table.unary is None:
            raise ValueError(f"table {table.name!r} has no unary function")
        return {v: funm_herm(sv, table.unary) for v, sv in s.items()}
    if table.bivariate is None:
        raise ValueError(f"table {table.name!r} has no bivariate function")
    if isinstance(target, TwistedRep):
        return apply_bivariate_rep(s, table, target)
    return apply_bivariate_endo(s, table, target)


# ---------------------------------------------------------------------------
# adjoints and the moment map


def _adjoint_raw(rep: TwistedRep, h, hinv) -> dict[str, tuple]:
    out = {}
    for a in rep.quiver.arrows:
        qinv = rep.twist.metric_inv(a.name)
        m = rep.twist.rank(a.name)
        raw = [hinv[a.tail] @ sl.conj().T @ h[a.head] for sl in rep.slices[a.name]]
        out[a.name] = tuple(
            sum(qinv[k, l] * raw[l] for l in range(m)) for k in range(m)
        )
    return out


def _checked_inverses(metric: MetricState) -> dict[str, np.ndarray]:
    hinv = {}
    for v, m in metric.h.items():
        check_hpd(m)  # enforces the 1e12 conditioning contract
        hinv[v] = np.linalg.inv(m)
    return hinv


def adjoint(rep: TwistedRep, metric: MetricState) -> dict[str, tuple]:
    """Metric adjoint slices of every arrow map.

    Slice k of the adjoint is sum_l (q^{-1})_{kl} H_tail^{-1} phi_l^dagger
    H_head, which makes the defining pairing identity hold against the tail
    metric tensored with the twist weight.
    """
    return _adjoint_raw(rep, metric.h, _checked_inverses(metric))


def _moment_raw(rep: TwistedRep, adj, tau) -> dict[str, np.ndarray]:
    out = {
        v: -tau[v] * np.eye(rep.dims[v], dtype=complex)
        for v in rep.quiver.vertices
    }
    for a in rep.quiver.arrows:
        for sl, ad in zip(rep.slices[a.name], adj[a.name]):
            out[a.head] = out[a.head] + sl @ ad
            out[a.tail] = out[a.tail] - ad @ sl
    return out


def moment_map_residual(rep: TwistedRep, metric: MetricState, params) -> dict[str, np.ndarray]:
    """Per-vertex moment-map defect m_v(H); H_v-selfadjoint by construction."""
    return _moment_raw(rep, adjoint(rep, metric), params.tau)


def _phi_sq_raw(rep: TwistedRep, adj, x: Mapping[str, tuple] | None = None) -> float:
    """Metric pairing Re sum_a tr(x_a phi_a^{*H}) of a slice family with
    phi, given the adjoint slices ``adj``; |phi|^2_H when ``x`` is phi
    itself (the default)."""
    x = rep.slices if x is None else x
    total = 0.0
    for a in rep.quiver.arrows:
        for sl, ad in zip(x[a.name], adj[a.name]):
            total += float(np.real(np.trace(sl @ ad)))
    return total


def phi_norm_sq(rep: TwistedRep, metric: MetricState) -> float:
    """|phi|^2 in the metric pairing (trace against the metric adjoint)."""
    hinv = {v: np.linalg.inv(m) for v, m in metric.h.items()}
    return _phi_sq_raw(rep, _adjoint_raw(rep, metric.h, hinv))


# ---------------------------------------------------------------------------
# Kempf-Ness energy and gradient


def kempf_ness(rep: TwistedRep, s: HermCollection, params) -> float:
    """Energy at H = e^s against the identity background, through the psi
    calculus: (psi(s) phi, phi) - |phi|^2 - sum_v tau_v tr(s_v)."""
    eye = MetricState.identity(rep).h
    adj = _adjoint_raw(rep, eye, eye)
    value = _phi_sq_raw(rep, adj, apply_bivariate_rep(s, PSI_EXP, rep))
    value -= _phi_sq_raw(rep, adj)
    value -= sum(params.tau[v] * float(np.real(np.trace(s[v]))) for v in rep.quiver.vertices)
    return float(value)


def kempf_ness_metric(
    rep: TwistedRep, metric: MetricState, params, background: MetricState | None = None
) -> float:
    """Energy of a metric relative to a background (identity by default).

    Equals :func:`kempf_ness` at metric = e^s and satisfies the exact cocycle
    M(K, H) + M(H, J) = M(K, J) because the trace term only sees log dets.
    """
    if background is None:
        background = MetricState.identity(rep)
    value = phi_norm_sq(rep, metric) - phi_norm_sq(rep, background)
    for v in rep.quiver.vertices:
        wb = np.linalg.eigvalsh(herm(background.h[v]))
        wh = np.linalg.eigvalsh(herm(metric.h[v]))
        value -= params.tau[v] * float(np.sum(np.log(wh)) - np.sum(np.log(wb)))
    return float(value)


def kempf_ness_gradient(rep: TwistedRep, s: HermCollection, params) -> dict[str, np.ndarray]:
    """Moment-map defect at H = e^s: the first Lie derivative of the energy
    along metric geodesics, d/de M(H e^{e u})|0 = (m(H), u)_H."""
    return _moment_raw(rep, _Chart(s, rep).adj, params.tau)


def residual_norm_h(rep: TwistedRep, metric: MetricState, m: HermCollection) -> float:
    """H-Frobenius norm of an H-selfadjoint collection."""
    half = {}
    for v in m:
        w, u = eigh_checked(metric.h[v])
        half[v] = ((u * np.sqrt(w)) @ u.conj().T, (u / np.sqrt(w)) @ u.conj().T)
    return float(np.sqrt(_h_norm_sq(half, m)))


# ---------------------------------------------------------------------------
# filtrations read off a direction


# spectral gaps wider than this fraction of the spread cut a filtration
GAP_THRESHOLD = 0.05
# block-coordinate sweeps of the invariant rounding
POLISH_SWEEPS = 40


@dataclass(frozen=True)
class FiltrationStep:
    witness: SubrepWitness
    slope: float
    boundary: float  # eigenvalue cut defining the step


def _polish_invariant(rep: TwistedRep, witness: SubrepWitness) -> SubrepWitness:
    """Nearest-invariant-subspace rounding at fixed per-vertex dimensions.

    Block-coordinate descent on the total squared leakage: at each vertex
    the optimal subspace of the given rank is spanned by the lowest
    eigenvectors of (outgoing leakage form) - (incoming image form).
    Starting near an exactly invariant subspace this converges to it.
    """
    bases = {v: np.array(witness.basis[v]) for v in rep.quiver.vertices}
    dims = {v: b.shape[1] for v, b in bases.items()}
    for _ in range(POLISH_SWEEPS):
        changed = 0.0
        for v in rep.quiver.vertices:
            r = dims[v]
            n = rep.dims[v]
            if r == 0 or r == n:
                continue
            quad = np.zeros((n, n), dtype=complex)
            for a in rep.quiver.arrows_out_of(v):
                ph = bases[a.head] @ bases[a.head].conj().T
                perp = np.eye(rep.dims[a.head], dtype=complex) - ph
                for sl in rep.slices[a.name]:
                    quad += sl.conj().T @ perp @ sl
            for a in rep.quiver.arrows_into(v):
                pt = bases[a.tail] @ bases[a.tail].conj().T
                for sl in rep.slices[a.name]:
                    quad -= sl @ pt @ sl.conj().T
            w, vecs = eigh_checked(herm(quad))
            new = vecs[:, :r]
            changed = max(changed, float(np.linalg.norm(new @ new.conj().T - bases[v] @ bases[v].conj().T)))
            bases[v] = new
        if changed < 1e-14:
            break
    return SubrepWitness(bases)


def filtration_steps(
    rep: TwistedRep, params, direction: HermCollection, min_slope: float = -np.inf
) -> list[FiltrationStep]:
    """Ascending filtration read off a Hermitian direction (one per vertex).

    Eigenvalues are pooled across vertices and split at gaps exceeding
    ``GAP_THRESHOLD`` times the spectral spread; each cut yields the span of
    eigenvectors below it, kept when it passes :func:`check_subrep` and
    otherwise rounded to the nearest invariant subspace (leakage-minimizing
    polish at fixed dimensions, kept when it passes :func:`check_subrep`,
    with closure under the arrow slices as the fallback).  Cuts whose span
    has slope <= ``min_slope`` are skipped before the rounding, which is
    most of the cost; only the closure changes the dimension vector.  The
    flow passes the total slope minus ``SLOPE_TOL``;
    :func:`destabilizer_extract` keeps every cut.

    Raises :class:`NoSeparation` when the spectrum has no usable gap.
    """
    eig = {v: eigh_checked(herm(direction[v])) for v in rep.quiver.vertices}
    all_vals = np.sort(np.concatenate([eig[v][0] for v in rep.quiver.vertices]))
    spread = float(all_vals[-1] - all_vals[0])
    if spread <= 1e-12:
        raise NoSeparation("limit direction spectrum is constant", spectrum=all_vals)
    cuts = []
    for lo, hi in zip(all_vals, all_vals[1:]):
        if hi - lo > GAP_THRESHOLD * spread:
            cuts.append(0.5 * (lo + hi))
    if not cuts:
        raise NoSeparation(
            "no spectral gap above threshold", spectrum=all_vals
        )
    steps: list[FiltrationStep] = []
    for cut in cuts:
        gens = {}
        for v in rep.quiver.vertices:
            w, vecs = eig[v]
            sel = vecs[:, w <= cut]
            gens[v] = orthonormal_columns(sel)
        candidate = SubrepWitness(gens)
        if degree_and_slope(candidate, params)[1] <= min_slope:
            continue
        # where the leakage form is degenerate the polish would swap an
        # exactly invariant span for another invariant subspace
        witness = candidate
        if not check_subrep(rep, candidate)[0]:
            witness = _polish_invariant(rep, candidate)
            if not check_subrep(rep, witness)[0]:
                witness = invariant_closure(rep, gens)
        _, slope = degree_and_slope(witness, params)
        steps.append(FiltrationStep(witness, slope, cut))
    return steps


def _certifies_instability(rep: TwistedRep, params, direction: HermCollection, mu: float) -> str | None:
    """Name of the proof, read off the cuts of ``direction``, that no metric
    exists, or None.  Both are proper subobjects passing :func:`check_subrep`:
    ``certificate`` has slope above ``mu`` by more than ``SLOPE_TOL``
    (unstable; it wins over the other), ``no-complement`` has slope within
    ``SLOPE_TOL`` of ``mu`` and no invariant complement (not polystable:
    semistable objects of one slope form an abelian category in which
    polystable means semisimple).  Slopes are those of the final witnesses,
    which the closure fallback can raise.  No gap means no proof yet.
    """
    try:
        steps = filtration_steps(rep, params, direction, min_slope=mu - SLOPE_TOL)
    except NoSeparation:
        return None
    proper = [
        st for st in steps
        if 0 < st.witness.total_dim < rep.total_dim and check_subrep(rep, st.witness)[0]
    ]
    if any(st.slope > mu + SLOPE_TOL for st in proper):
        return "certificate"
    if any(
        abs(st.slope - mu) <= SLOPE_TOL and invariant_complement(rep, st.witness) is None
        for st in proper
    ):
        return "no-complement"
    return None


# ---------------------------------------------------------------------------
# the flow


@dataclass
class FlowOptions:
    tol: float = 1e-10
    max_iter: int = 5000
    seed: int | None = None
    init_scale: float = 0.0


# Armijo backtracking with a multiplicatively growing trial step; the trial
# step multiplies an O(residual) direction, so huge caps are safe in the
# s-chart, and semistable flows need steps ~ e^{||s||} to keep moving once
# the residual has collapsed
ARMIJO_C = 1e-4
BACKTRACK = 0.5
STEP0 = 1.0
STEP_GROWTH = 2.0
STEP_MAX = 1e60
STEP_MIN = 1e-20
# largest ||s||_F a trial may reach: keeps exp(s) and the adjoint products
# inside float64 range (e^{2 EIG_CAP} must stay finite)
EIG_CAP = 175.0


@dataclass
class FlowReport:
    status: str
    final_metric: MetricState
    residual_norm: float
    iterations: int
    iter_log: list[tuple[int, float, float, float, float]] = field(repr=False, default_factory=list)
    limit_direction: dict[str, np.ndarray] | None = None
    monotone: bool = True
    # rule that ended the flow: tol | certificate | no-complement |
    # line-search | max-iter (None for reports not made by flow_solve)
    stop: str | None = None

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def _unit(s: HermCollection, s_norm: float) -> dict[str, np.ndarray]:
    return {v: sv / s_norm for v, sv in s.items()}


def gauge_project(rep: TwistedRep, params, u: HermCollection) -> dict[str, np.ndarray]:
    """H-orthogonal projection onto the sigma-trace-free subspace (subtracts
    the right multiple of sigma * id; idempotent)."""
    num = sum(params.sigma[v] * float(np.real(np.trace(u[v]))) for v in rep.quiver.vertices)
    den = sum(params.sigma[v] ** 2 * rep.dims[v] for v in rep.quiver.vertices)
    return {
        v: u[v] - (num / den) * params.sigma[v] * np.eye(rep.dims[v], dtype=complex)
        for v in rep.quiver.vertices
    }


def flow_solve(rep: TwistedRep, params, opts: FlowOptions | None = None) -> FlowReport:
    """Kempf-Ness gradient descent deciding metric existence.

    Refuses parameters that :func:`admissibility` rejects (no solution can
    exist when the trace constraint fails).  ``opts`` sets the residual
    tolerance, the iteration budget and an optional random start (``seed``,
    ``init_scale``); the step rules are the module constants.

    At iterations 1, 2, 4, 8, ... (skipped while the residual halves between
    checkpoints), and once more at any other exit, the flow reads the cuts
    of s/||s|| for a proof that no metric exists: an exactly invariant
    proper subobject of larger slope (``certificate``: unstable), or one of
    the total slope with no invariant complement (``no-complement``: not
    polystable).  Classification:

    - ``diverged``: a proof was found; the report carries the normalized
      limit direction, so :func:`destabilizer_extract` returns the proof;
    - ``converged``: residual <= tol and no proof;
    - ``max-iter``: no proof, and the budget ran out or the line search
      found no admissible step.

    ``FlowReport.stop`` names the rule that ended the flow: ``tol``,
    ``certificate``, ``no-complement``, ``line-search`` or ``max-iter``.

    The line search is Armijo backtracking (factor ``BACKTRACK``, slope
    constant ``ARMIJO_C``) with a multiplicatively growing trial step, so
    divergent flows accelerate instead of stalling at logarithmic speed.
    """
    opts = opts or FlowOptions()
    if rep.total_dim == 0:
        raise ZeroTotalRank("representation has no nonzero vertex space")
    if not admissibility(rep, params):
        defect = sum(params.tau[v] * rep.dims[v] for v in rep.quiver.vertices)
        raise InadmissibleParameters(
            f"trace constraint fails: sum tau_v dim_v = {defect:.3e}"
        )

    if opts.init_scale > 0:
        rng = np.random.default_rng(0 if opts.seed is None else opts.seed)
        s = gauge_project(
            rep,
            params,
            {v: random_hermitian(rng, rep.dims[v], opts.init_scale) for v in rep.quiver.vertices},
        )
    else:
        s = {v: np.zeros((rep.dims[v], rep.dims[v]), dtype=complex) for v in rep.quiver.vertices}

    eye = MetricState.identity(rep).h
    phi0 = _phi_sq_raw(rep, _adjoint_raw(rep, eye, eye))

    def energy_of(chart: _Chart) -> float:
        val = _phi_sq_raw(rep, chart.adj) - phi0
        val -= sum(
            params.tau[v] * float(np.real(np.trace(chart.s[v]))) for v in rep.quiver.vertices
        )
        return val

    def residual_of(chart: _Chart) -> tuple[dict[str, np.ndarray], float]:
        m = _moment_raw(rep, chart.adj, params.tau)
        return m, float(np.sqrt(_h_norm_sq(chart.half, m)))

    chart = _Chart(s, rep)
    energy = energy_of(chart)
    iter_log: list[tuple[int, float, float, float, float]] = []
    monotone = True
    step = STEP0
    stop = "max-iter"
    proof = None
    _, mu = degree_and_slope(rep, params)
    # certificate checkpoints at iterations 1, 2, 4, 8, ...; a check runs
    # only while the residual has not halved since the previous checkpoint,
    # which skips it on geometrically converging flows
    next_check = 1
    check_res = None
    res, s_norm, it = np.inf, 0.0, 0

    for it in range(opts.max_iter + 1):
        m, res = residual_of(chart)
        s_norm = _frob(chart.s)
        iter_log.append((it, energy, res, step, s_norm))

        if res <= opts.tol:
            stop = "tol"
            break
        if it == next_check:
            next_check *= 2
            halved = check_res is not None and res <= 0.5 * check_res
            check_res = res
            if not halved and s_norm > 0:
                proof = _certifies_instability(rep, params, _unit(chart.s, s_norm), mu)
                if proof:
                    break
        if it == opts.max_iter:
            break

        direction = gauge_project(rep, params, {v: -mv for v, mv in m.items()})
        grad_sq = _h_norm_sq(chart.half, direction)
        xi = {}
        for v in rep.quiver.vertices:
            w, u = chart.eig[v]
            coeff = _dexp_inverse(w[None, :] - w[:, None])
            xi[v] = herm(u @ (coeff * (u.conj().T @ direction[v] @ u)) @ u.conj().T)
        if grad_sq == 0.0:
            continue

        # Near a minimum the certifiable energy decrease (~ residual^2) sinks
        # below the floating-point resolution of the energy while the residual
        # itself is still computed to full relative precision, so the
        # acceptance test switches from Armijo-on-energy to strict residual
        # descent for the endgame.
        energy_floor = 16.0 * np.finfo(float).eps * (1.0 + abs(energy))

        def trial_s(step_size):
            return {v: chart.s[v] + step_size * xi[v] for v in rep.quiver.vertices}

        accepted = False
        trial_step = min(step * STEP_GROWTH, STEP_MAX)
        while trial_step >= STEP_MIN:
            cand = trial_s(trial_step)
            if _frob(cand) > EIG_CAP:
                trial_step *= BACKTRACK
                continue
            trial_chart = _Chart(cand, rep)
            trial_energy = energy_of(trial_chart)
            need = ARMIJO_C * trial_step * grad_sq
            if need > energy_floor:
                if trial_energy <= energy - need:
                    accepted = True
                    trial_score = None
                    break
            else:
                trial_score = residual_of(trial_chart)[1]
                if trial_score <= res * (1.0 - 1e-4):
                    accepted = True
                    break
            trial_step *= BACKTRACK
        if not accepted:
            stop = "line-search"
            break
        # refine within the admissible range: a bare sufficient-decrease step
        # can sit at the edge of stability (contraction 1 - 2c per iteration);
        # halving while the merit meaningfully improves lands near the 1-D
        # optimum and is a no-op on divergent rays
        for _ in range(60):
            half_step = trial_step * BACKTRACK
            if half_step < STEP_MIN:
                break
            half_chart = _Chart(trial_s(half_step), rep)
            half_energy = energy_of(half_chart)
            if trial_score is None:
                if half_energy < trial_energy - energy_floor:
                    trial_step, trial_chart, trial_energy = half_step, half_chart, half_energy
                else:
                    break
            else:
                half_score = residual_of(half_chart)[1]
                if half_score < trial_score * (1.0 - 1e-6):
                    trial_step, trial_chart, trial_energy, trial_score = (
                        half_step,
                        half_chart,
                        half_energy,
                        half_score,
                    )
                else:
                    break
        if trial_energy > energy + 1e-12 * (1.0 + abs(energy)):
            monotone = False
        chart = trial_chart
        energy = trial_energy
        step = trial_step

    # a semistable flow can push the residual below tol while ||s|| diverges
    if not proof and s_norm > 0:
        proof = _certifies_instability(rep, params, _unit(chart.s, s_norm), mu)
    stop = proof or stop
    status = "diverged" if proof else "converged" if stop == "tol" else "max-iter"
    final = MetricState(chart.h, validate=(status == "converged"))
    # every exit leaves the loop on the chart it classified
    limit = _unit(chart.s, s_norm) if proof else None
    return FlowReport(
        status=status,
        final_metric=final,
        residual_norm=res,
        iterations=it,
        iter_log=iter_log,
        limit_direction=limit,
        monotone=monotone,
        stop=stop,
    )
