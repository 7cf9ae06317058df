"""Finite-dimensional Kempf-Ness machinery at point scale.

Given a representation and stability parameters, the moment map assigns to a
Hermitian metric H the per-vertex defect

    m_v(H) = sum_{head(a)=v} phi_a phi_a^{*H} - sum_{tail(a)=v} phi_a^{*H} phi_a
             - tau_v id,

with twist slices contracted against the inverse twist weight.  Metrics
solving m(H) = 0 are exactly the minima of the Kempf-Ness energy

    M(s) = |phi|^2_H - |phi|^2 - sum_v tau_v tr(s_v),    H = e^s,

which is geodesically convex on the positive-definite cone, so its descent
along metric geodesics decides existence: either the residual goes to zero
with bounded s = log H, or ||s|| blows up with monotonically decreasing
energy and the normalized limit direction s/||s|| carries the destabilizing
spectral data.

One kernel computes both.  :class:`_Chart` holds a metric (s = log H or a
:class:`MetricState`) as whole-representation arrays: the vertex spaces are
consecutive coordinate blocks of C^n, n the total dimension, so s, H^{1/2}
and the eigenvectors are block-diagonal n x n matrices (one eigendecomposition
per vertex block), and the twist slices phi', rotated by (q^{-1})^{1/2}, form
one (k, n, n) stack with each slice at its (head, tail) block.  The H-frame
slices psi_k = H^{1/2} phi'_k H^{-1/2} are one broadcast product; they give
m~ = H^{1/2} m H^{-1/2} = sum_k [psi_k, psi_k^dagger] - diag(tau) and the
energy, with |phi|^2_H = sum |psi|^2.  The flow and every public moment, norm
and energy function read it; :func:`adjoint` does not.

The descent is a damped Riemannian Newton method: the energy along
H^{1/2} e^{tu} H^{1/2} has first derivative tr(m~ u) and second derivative
|L u|^2, with L(u) = ([u, psi_k])_k, the module-map operator of
:func:`reps.module_map_operator` in the H-frame.  The Newton direction solves
the Hessian L^T L on block-diagonal Hermitian u by pseudo-inverse; its
entries come from sum psi psi^dagger, sum psi^dagger psi and one gathered
product of the slice stack, read at the vertex-block positions only, and its
kernel is the selfadjoint part of End(V) in the H-frame.

The flow optimizes in the s-chart (H = e^s against the identity background)
and transports each H-frame direction into that chart through the eigenbasis
of s, one n x n conjugation; this keeps every eigendecomposition applied to
matrices of moderate norm even while H itself becomes astronomically
ill-conditioned near divergence.

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

from ._linalg import (
    check_hpd,
    eigh_checked,
    expm_herm,
    funm_herm,
    herm,
    kron,
    orthonormal_columns,
    random_hermitian,
    unit_phases,
)
from .errors import (
    IllConditionedSpectrum,
    InadmissibleParameters,
    NonFiniteData,
    NoSeparation,
    QuiverMismatch,
    ShapeMismatch,
    ZeroTotalRank,
    check_count,
    check_seed,
    check_tolerance,
)
from .reps import (
    SubrepWitness,
    TwistedRep,
    check_subrep,
    invariant_closure,
    invariant_complement,
)
from .slope import BOUND_GRID_ROWS, SLOPE_TOL, admissibility, degree_and_slope, dimension_grid

HermCollection = Mapping[str, np.ndarray]


# ---------------------------------------------------------------------------
# the chart kernel: H-frame slices, the moment map and the energy


class _Layout:
    """A representation's vertex spaces as consecutive coordinate blocks of
    C^n, n the total dimension, in quiver vertex order (``index``).  A
    per-vertex collection becomes one block-diagonal n x n matrix
    (:meth:`pack`) and is read back through block views (:meth:`blocks`);
    the rotated slices phi' become one (k, n, n) stack (``rotated``)."""

    def __init__(self, rep: TwistedRep):
        self.rep = rep
        self.n = rep.total_dim
        self.sizes = [rep.dims[v] for v in rep.quiver.vertices]
        ends = np.cumsum(self.sizes, dtype=int)
        self.index = {v: slice(e - d, e) for v, d, e in zip(rep.quiver.vertices, self.sizes, ends)}

    def pack(self, c: HermCollection, name: str) -> np.ndarray:
        """Block-diagonal matrix of a collection with one block per vertex;
        refuses an unknown or missing vertex (:class:`QuiverMismatch`), a
        block that does not fit its vertex (:class:`ShapeMismatch`) and a
        non-finite entry (:class:`NonFiniteData`), naming the vertex."""
        for v in c:
            if v not in self.index:
                raise QuiverMismatch(f"{name} at {v!r}: not a vertex of the quiver")
        out = np.zeros((self.n, self.n), dtype=complex)
        for v, b in self.index.items():
            if v not in c:
                raise QuiverMismatch(f"{name} has no block at vertex {v!r}")
            x = np.asarray(c[v], dtype=complex)
            if x.shape != (b.stop - b.start,) * 2:
                raise ShapeMismatch(f"{name} at {v!r}: shape {x.shape} does not fit dimension {b.stop - b.start}")
            if not np.isfinite(x).all():
                raise NonFiniteData(f"{name} at {v!r} has a non-finite entry")
            out[b, b] = x
        return out

    def eigh(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:func:`eigh_checked` of each vertex block of a block-diagonal
        matrix: all eigenvalues, block by block, and the block-diagonal
        matrix of eigenvectors."""
        w, q = np.zeros(self.n), np.zeros((self.n, self.n), dtype=complex)
        for b in self.index.values():
            w[b], q[b, b] = eigh_checked(x[b, b])
        return w, q

    def blocks(self, x: np.ndarray) -> dict[str, np.ndarray]:
        """Per-vertex views of the diagonal blocks of an n x n matrix."""
        return {v: x[b, b] for v, b in self.index.items()}

    def diagonal(self, values: Mapping[str, float]) -> np.ndarray:
        """Per-vertex scalars repeated over each vertex block."""
        return np.repeat(np.array([values[v] for v in self.index], dtype=float), self.sizes)

    @cached_property
    def mask(self) -> np.ndarray:
        """True on the vertex blocks."""
        out = np.zeros((self.n, self.n), dtype=bool)
        for b in self.index.values():
            out[b, b] = True
        return out

    @cached_property
    def rotated(self) -> np.ndarray:
        """Slices phi'_j = sum_k c_kj phi_k with c = (q^{-1})^{1/2}, which turn
        the twist pairing sum_kl (q^{-1})_kl tr(phi_k x phi_l^dagger y) into
        sum_j tr(phi'_j x phi'_j^dagger y): one layer per j and arrow, in
        quiver arrow order, with phi'_j at the arrow's (head, tail) block."""
        layers = []
        for a in self.rep.quiver.arrows:
            c = funm_herm(self.rep.twist.metric_inv(a.name), np.sqrt)
            sl = self.rep.slices[a.name]
            for j in range(len(sl)):
                layer = np.zeros((self.n, self.n), dtype=complex)
                layer[self.index[a.head], self.index[a.tail]] = sum(c[k, j] * sl[k] for k in range(len(sl)))
                layers.append(layer)
        return np.array(layers, dtype=complex).reshape(len(layers), self.n, self.n)


class _Chart:
    """The one source of H-frame data, as whole-representation arrays of a
    :class:`_Layout`: s = log H (identity background) as one block-diagonal
    n x n matrix, its eigenvalues ``w`` (length n) and eigenvectors ``q``
    (block diagonal) from one :func:`eigh_checked` per vertex block, built
    from s or by :meth:`of_metric`; the factors e^s and (e^{s/2}, e^{-s/2})
    on first use, and the H-frame slice stack psi_k = H^{1/2} phi'_k
    H^{-1/2} of the layout's ``rotated`` stack, read by :meth:`moment`."""

    def __init__(self, layout: _Layout, s: np.ndarray, eig=None):
        self.layout = layout
        self.s = s
        self.w, self.q = layout.eigh(s) if eig is None else eig

    @classmethod
    def of_log(cls, s: HermCollection, layout: _Layout) -> "_Chart":
        return cls(layout, herm(layout.pack(s, "log metric")))

    @classmethod
    def of_metric(cls, metric: "MetricState", layout: _Layout, cond_limit: float = np.inf) -> "_Chart":
        """Chart of a metric: one eigendecomposition per vertex, eigenvalues
        logged; its eigenvalues serve :func:`check_hpd`, so raises
        :class:`SingularMetric` unless the metric is Hermitian positive
        definite of condition at most ``cond_limit``."""
        h = layout.pack(metric.h, "metric")
        w, q = layout.eigh(h)
        for b in layout.index.values():
            check_hpd(h[b, b], cond_limit, w[b])
        w = np.log(w)
        return cls(layout, herm((q * w) @ q.conj().T), (w, q))

    def _factor(self, power: float) -> np.ndarray:
        return (self.q * np.exp(power * self.w)) @ self.q.conj().T

    @cached_property
    def h(self) -> np.ndarray:
        return herm(self._factor(1.0))

    @cached_property
    def half(self) -> tuple[np.ndarray, np.ndarray]:
        return self._factor(0.5), self._factor(-0.5)

    @cached_property
    def psi(self) -> np.ndarray:
        return self.half[0] @ self.layout.rotated @ self.half[1]

    @cached_property
    def squares(self) -> tuple[np.ndarray, np.ndarray]:
        """sum_k psi_k psi_k^dagger and sum_k psi_k^dagger psi_k, one product
        each of the stack laid side by side and on top."""
        psi, n = self.psi, self.layout.n
        side = psi.transpose(1, 0, 2).reshape(n, -1)
        top = psi.reshape(-1, n)
        return side @ side.conj().T, top.conj().T @ top

    def moment(self, tau: np.ndarray, c: float = 0.0) -> tuple[np.ndarray, float]:
        """m~ = sum_k [psi_k, psi_k^dagger] - diag(tau) and the energy
        c + sum |psi|^2 - sum_v tau_v tr s_v, for ``tau`` repeated over the
        vertex blocks (:meth:`_Layout.diagonal`)."""
        heads, tails = self.squares
        energy = c + float(np.vdot(self.psi, self.psi).real) - float(tau @ self.s.diagonal().real)
        return heads - tails - np.diag(tau), energy

    def to_background(self, m: np.ndarray) -> np.ndarray:
        """H^{-1/2} m~ H^{1/2}: an H-frame matrix in the background frame."""
        return self.half[1] @ m @ self.half[0]

    def velocity(self, u: np.ndarray) -> np.ndarray:
        """s-chart velocity of the metric path H^{1/2} e^{tu} H^{1/2} at t = 0
        for an H-frame direction u: the background direction H^{-1/2} u
        H^{1/2} under the inverse derivative of exp, both read in the
        eigenbasis of s, in one n x n conjugation by ``q`` with the
        dexp^{-1}(d) e^{d/2} table masked to the vertex blocks."""
        d = self.w[None, :] - self.w[:, None]
        coeff = np.where(self.layout.mask, _dexp_inverse(d) * np.exp(0.5 * d), 0.0)
        q = self.q
        return herm(q @ (coeff * (q.conj().T @ u @ q)) @ q.conj().T)


@dataclass(frozen=True)
class MetricState:
    """One Hermitian positive definite form per vertex.

    ``validate=False`` skips the definiteness check; the flow uses it and
    checks converged endpoints from the eigenvalues of their chart (those
    that did not converge can defeat floating point eigensolvers).
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
        return cls({v: herm(expm_herm(sv)) for v, sv in s.items()}, validate)


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
# adjoints, the moment map and the Kempf-Ness energy


def adjoint(rep: TwistedRep, metric: MetricState) -> dict[str, tuple]:
    """Metric adjoint slices of every arrow map.

    Slice k of the adjoint is sum_l (q^{-1})_{kl} H_tail^{-1} phi_l^dagger
    H_head, which makes the defining pairing identity hold against the tail
    metric tensored with the twist weight.
    """
    for m in metric.h.values():
        check_hpd(m)  # enforces the 1e12 conditioning contract
    hinv = {v: np.linalg.inv(m) for v, m in metric.h.items()}
    out = {}
    for a in rep.quiver.arrows:
        qinv = rep.twist.metric_inv(a.name)
        raw = [hinv[a.tail] @ sl.conj().T @ metric.h[a.head] for sl in rep.slices[a.name]]
        out[a.name] = tuple(sum(qinv[k, l] * raw[l] for l in range(len(raw))) for k in range(len(raw)))
    return out


def moment_map_residual(rep: TwistedRep, metric: MetricState, params) -> dict[str, np.ndarray]:
    """Per-vertex moment-map defect m_v(H) = H_v^{-1/2} m~_v H_v^{1/2}, H_v-selfadjoint;
    refuses metrics that :func:`check_hpd` rejects (condition above 1e12)."""
    layout = _Layout(rep)
    chart = _Chart.of_metric(metric, layout, cond_limit=1e12)
    return layout.blocks(chart.to_background(chart.moment(layout.diagonal(params.tau))[0]))


def phi_norm_sq(rep: TwistedRep, metric: MetricState) -> float:
    """|phi|^2 in the metric pairing: sum |psi|^2 over the H-frame slices."""
    layout = _Layout(rep)
    return _Chart.of_metric(metric, layout).moment(np.zeros(layout.n))[1]


def kempf_ness(rep: TwistedRep, s: HermCollection, params) -> float:
    """Energy |phi|^2_H - |phi|^2 - sum_v tau_v tr(s_v) at H = e^s (identity
    background): the chart kernel at s minus its value |phi'|^2 at 0."""
    layout = _Layout(rep)
    phi0 = float(np.vdot(layout.rotated, layout.rotated).real)
    return _Chart.of_log(s, layout).moment(layout.diagonal(params.tau), -phi0)[1]


def kempf_ness_metric(
    rep: TwistedRep, metric: MetricState, params, background: MetricState | None = None
) -> float:
    """Energy of a metric relative to a background (identity by default),
    the chart kernel at the metric minus the kernel at the background.

    Equals :func:`kempf_ness` at metric = e^s and satisfies the exact cocycle
    M(K, H) + M(H, J) = M(K, J) because the trace term only sees log dets.
    """
    layout = _Layout(rep)
    tau = layout.diagonal(params.tau)
    e0 = _Chart.of_metric(background or MetricState.identity(rep), layout).moment(tau)[1]
    return _Chart.of_metric(metric, layout).moment(tau, -e0)[1]


def kempf_ness_gradient(rep: TwistedRep, s: HermCollection, params) -> dict[str, np.ndarray]:
    """Moment-map defect at H = e^s: the first Lie derivative of the energy
    along metric geodesics, d/de M(H e^{e u})|0 = (m(H), u)_H."""
    layout = _Layout(rep)
    chart = _Chart.of_log(s, layout)
    return layout.blocks(chart.to_background(chart.moment(layout.diagonal(params.tau))[0]))


def residual_norm_h(rep: TwistedRep, metric: MetricState, m: HermCollection) -> float:
    """H-Frobenius norm sqrt(sum_v |H_v^{1/2} m_v H_v^{-1/2}|^2) of an
    H-selfadjoint collection."""
    layout = _Layout(rep)
    half = _Chart.of_metric(metric, layout).half
    return float(np.linalg.norm(herm(half[0] @ layout.pack(m, "collection") @ half[1])))


# ---------------------------------------------------------------------------
# filtrations read off a direction


# spectral gaps wider than this fraction of the spread cut a filtration
GAP_THRESHOLD = 0.05
# Gauss-Newton steps of the invariant rounding
POLISH_STEPS = 8


@dataclass(frozen=True)
class FiltrationStep:
    witness: SubrepWitness
    slope: float
    boundary: float  # eigenvalue cut defining the step


def _polish_invariant(rep: TwistedRep, witness: SubrepWitness, perp: Mapping[str, np.ndarray]) -> SubrepWitness:
    """Nearest-invariant-subspace rounding at fixed per-vertex dimensions.

    Gauss-Newton on graph coordinates: the subspace at v is the span of
    U_v = B_v + P_v X_v, with B_v the witness basis and P_v = ``perp[v]`` an
    orthonormal basis of its complement, and it is invariant exactly when
    every slice phi has

        (P_head^H - X_head B_head^H) phi U_tail
            = P^H phi B + P^H phi P X_tail - X_head (B^H phi B + B^H phi P X_tail) = 0,

    where B^H and P^H are the head's and B and P the tail's; these four
    products of each slice are formed once per polish.  The residual is
    bilinear in X, so minimum-norm least squares on its analytic Jacobian,
    one thin SVD per step with the 1e-15 relative cut of ``np.linalg.pinv``,
    converges quadratically from a nearly invariant start.
    """
    verts = rep.quiver.vertices
    b = {v: np.asarray(witness.basis[v]) for v in verts}
    x = {v: np.zeros((perp[v].shape[1], b[v].shape[1]), dtype=complex) for v in verts}
    offsets = dict(zip(verts, np.cumsum([0] + [x[v].size for v in verts])))
    unknowns = sum(x[v].size for v in verts)
    products = []
    for a in rep.quiver.arrows:
        h, t = a.head, a.tail
        if x[h].shape[0] * b[t].shape[1] == 0:  # no residual rows
            continue
        for sl in rep.slices[a.name]:
            p_sl, b_sl = perp[h].conj().T @ sl, b[h].conj().T @ sl
            products.append((h, t, p_sl @ b[t], p_sl @ perp[t], b_sl @ b[t], b_sl @ perp[t]))
    best, best_norm = x, np.inf
    for _ in range(POLISH_STEPS):
        jac, res = [], []
        for h, t, pb, pp, bb, bp in products:
            image = bb + bp @ x[t]
            r = pb + pp @ x[t] - x[h] @ image
            rows = np.zeros((r.size, unknowns), dtype=complex)
            rows[:, offsets[t]: offsets[t] + x[t].size] += kron(pp - x[h] @ bp, np.eye(x[t].shape[1]))
            rows[:, offsets[h]: offsets[h] + x[h].size] -= kron(np.eye(x[h].shape[0]), image.T)
            jac.append(rows)
            res.append(r.ravel())
        res = np.concatenate(res) if res else np.zeros(0)
        norm = float(np.linalg.norm(res))
        if norm >= best_norm:
            break
        best, best_norm = x, norm
        if norm == 0.0:
            break
        u, sv, vh = np.linalg.svd(np.vstack(jac), full_matrices=False)
        keep = sv > 1e-15 * sv.max(initial=0.0)
        step = vh[keep].conj().T @ ((u[:, keep].conj().T @ -res) / sv[keep])
        x = {v: x[v] + step[offsets[v]: offsets[v] + x[v].size].reshape(x[v].shape) for v in verts}
    return SubrepWitness({v: orthonormal_columns(b[v] + perp[v] @ best[v]) for v in verts})


def _weight_bound(deg, size, total):
    """Moment-weight bound delta(d') = deg(d') sqrt(|n| / (|d'| (|n| - |d'|)))
    of a proper dimension vector d' of plain total dimension ``size`` and
    degree ``deg`` (-sum_v tau_v d'_v), in an object of total dimension
    ``total``; scalars or arrays.

    For an invariant W of dimension vector d' with H-orthogonal projection
    pi, tr(m~ pi) = deg(d') + sum |pi_head psi (1 - pi_tail)|^2 at every
    metric, and tr m~ = 0 by admissibility; Cauchy-Schwarz against
    pi - (|d'|/|n|) 1 gives |m~| >= delta(d') (the point-scale form of
    Georgoulas-Robbin-Salamon's moment-weight inequality).  So a residual
    below delta(d') rules out every invariant subobject of dimension
    vector d'."""
    return deg * np.sqrt(total / (size * (total - size)))


def _semistability_bound(rep: TwistedRep, params, mu: float) -> tuple[float, bool]:
    """The least :func:`_weight_bound` over the proper dimension vectors of
    slope above ``mu`` + ``SLOPE_TOL`` (inf when there are none), and
    whether some proper dimension vector has slope within ``SLOPE_TOL`` of
    ``mu``; it reads the degrees and slopes of :func:`slope.dimension_grid`.
    Sizes are plain total dimensions, as the residual is the unweighted norm
    of m~; sigma only decides which vectors destabilize.  Past
    ``BOUND_GRID_ROWS`` vectors the grid is None and the bound is (0, True),
    which rules nothing out."""
    grid = dimension_grid(rep, params)
    if grid is None:
        return 0.0, True
    dims, deg, slope = grid
    delta = _weight_bound(deg, dims.sum(axis=1), rep.total_dim)[slope > mu + SLOPE_TOL].min(initial=np.inf)
    return float(delta), bool(np.any(np.abs(slope - mu) <= SLOPE_TOL))


def filtration_steps(
    rep: TwistedRep,
    params,
    direction: HermCollection,
    min_slope: float = -np.inf,
    max_slope: float = np.inf,
    residual: float = np.inf,
) -> list[FiltrationStep]:
    """Ascending filtration read off a Hermitian direction (one per vertex).

    Eigenvalues are pooled across vertices and split at gaps exceeding
    ``GAP_THRESHOLD`` times the spectral spread; each cut yields the span of
    eigenvectors below it, kept when it passes :func:`check_subrep` and
    otherwise rounded to the nearest invariant subspace (Gauss-Newton
    polish at fixed dimensions, kept when it passes :func:`check_subrep`,
    with closure under the arrow slices as the fallback).  The eigenvector
    columns below the cut are the candidate's basis and those above it the
    basis of its complement that the polish moves in, both orthonormal as
    ``eigh`` returns them.  Cuts whose span has slope <= ``min_slope`` or
    > ``max_slope`` are skipped before the rounding, which is most of the
    cost; only the closure changes the dimension vector.  The flow passes ``min_slope`` = the total slope
    minus ``SLOPE_TOL``; :func:`destabilizer_extract` adds the cuts below
    that to the flow's steps.  The flow also passes its current
    ``residual``: a non-invariant cut whose dimension vector has a
    :func:`_weight_bound` above it spans no invariant subspace of those
    dimensions, so it goes straight to the closure without the rounding.
    Other callers leave ``residual`` at inf and round every such cut.
    Every returned basis, eigen-cut, polished or closure, has the phase rule
    of :func:`_linalg.unit_phases`, so a witness does not carry the sign
    that LAPACK happens to give an eigenvector.

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
        gens = {v: vecs[:, w <= cut] for v, (w, vecs) in eig.items()}
        candidate = SubrepWitness(gens)
        deg, slope = degree_and_slope(candidate, params)
        if not min_slope < slope <= max_slope:
            continue
        # where the leakage form is degenerate the polish would swap an
        # exactly invariant span for another invariant subspace
        witness = candidate
        if not check_subrep(rep, candidate)[0]:
            witness = None
            if _weight_bound(deg, candidate.total_dim, rep.total_dim) <= residual:
                witness = _polish_invariant(rep, candidate, {v: vecs[:, w > cut] for v, (w, vecs) in eig.items()})
            if witness is None or not check_subrep(rep, witness)[0]:
                witness = invariant_closure(rep, gens)
        _, slope = degree_and_slope(witness, params)
        witness = SubrepWitness({v: unit_phases(b) for v, b in witness.basis.items()})
        steps.append(FiltrationStep(witness, slope, cut))
    return steps


def _certifies_instability(
    rep: TwistedRep, params, direction: HermCollection, mu: float, residual: float
) -> tuple[str | None, list[FiltrationStep]]:
    """Name of the proof, read off the cuts of ``direction``, that no metric
    exists, or None; and the filtration steps read (those of slope above
    ``mu`` - ``SLOPE_TOL``).  Both proofs are proper subobjects passing
    :func:`check_subrep`:
    ``certificate`` has slope above ``mu`` by more than ``SLOPE_TOL``
    (unstable; it wins over the other), ``no-complement`` has slope within
    ``SLOPE_TOL`` of ``mu`` and no invariant complement (not polystable:
    semistable objects of one slope form an abelian category in which
    polystable means semisimple).  Slopes are those of the final witnesses,
    which the closure fallback can raise.  No gap means no proof yet.
    ``residual`` goes to :func:`filtration_steps`.
    """
    try:
        steps = filtration_steps(rep, params, direction, min_slope=mu - SLOPE_TOL, residual=residual)
    except NoSeparation:
        return None, []
    proper = [
        st for st in steps
        if 0 < st.witness.total_dim < rep.total_dim and check_subrep(rep, st.witness)[0]
    ]
    if any(st.slope > mu + SLOPE_TOL for st in proper):
        return "certificate", steps
    if any(
        abs(st.slope - mu) <= SLOPE_TOL and invariant_complement(rep, st.witness) is None
        for st in proper
    ):
        return "no-complement", steps
    return None, steps


# ---------------------------------------------------------------------------
# the flow


@dataclass
class FlowOptions:
    tol: float = 1e-10
    max_iter: int = 5000
    seed: int | None = None
    init_scale: float = 0.0


# Newton steps start at 1 and backtrack by BACKTRACK; the gradient fallback
# backtracks from a multiplicatively growing trial step: it multiplies an
# O(residual) direction, so huge caps are safe in the s-chart, and
# semistable flows need steps ~ e^{||s||} to keep moving once the residual
# has collapsed.  Both accept on Armijo's sufficient decrease (ARMIJO_C).
ARMIJO_C = 1e-4
BACKTRACK = 0.5
STEP0 = 1.0
STEP_GROWTH = 2.0
STEP_MAX = 1e60
STEP_MIN = 1e-20
# a Newton step that needs more damping than this is a poor model (on a
# divergent flow, a near-kernel direction of the Hessian); the gradient
# fallback takes over
NEWTON_STEP_MIN = 1.0 / 64
# Hessian eigenvalues at most this fraction of the largest count as its
# kernel in the pseudo-inverse
PINV_RTOL = 1e-12
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
    # filtration steps of limit_direction above the total slope minus
    # SLOPE_TOL, as the proof that ended a diverged flow read them
    certified_steps: list[FiltrationStep] | None = field(repr=False, default=None)

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def gauge_project(u: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """H-orthogonal projection of a block-diagonal u onto the sigma-trace-free
    subspace, ``sigma`` repeated over the vertex blocks (subtracts the right
    multiple of diag(sigma); idempotent)."""
    return u - ((sigma @ u.diagonal().real) / (sigma @ sigma)) * np.diag(sigma)


def _hermitian_basis(layout: _Layout) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """An orthonormal basis, for the real pairing Re tr(x y), of the
    block-diagonal Hermitian n x n matrices: the positions (``rows``,
    ``cols``) of the r = sum_v n_v^2 entries inside the vertex blocks, and
    the unitary r x r matrix whose column j holds element j's entries there,
    vertex block by vertex block."""
    rows, cols = np.nonzero(layout.mask)
    at = {(i, j): p for p, (i, j) in enumerate(zip(rows, cols))}
    coeff = np.zeros((len(rows), len(rows)), dtype=complex)
    k = 0
    root = np.sqrt(0.5)
    for b in layout.index.values():
        for i in range(b.start, b.stop):
            coeff[at[i, i], k] = 1.0
            k += 1
            for j in range(i + 1, b.stop):
                coeff[at[i, j], k] = coeff[at[j, i], k] = root
                coeff[at[i, j], k + 1], coeff[at[j, i], k + 1] = 1j * root, -1j * root
                k += 2
    return rows, cols, coeff


def _newton_direction(chart: _Chart, m: np.ndarray, basis, sigma: np.ndarray) -> tuple[np.ndarray, float]:
    """H-frame Newton direction u = -(L^T L)^+ m~ at a chart with H-frame
    moment map ``m``, shifted along the identity, which L annihilates, onto
    the gauge sum_i sigma_i u_ii = 0 (``sigma`` repeated over the vertex
    blocks); and the energy's derivative along it.

    For L u = ([u, psi_k])_k and matrix units E_ab, E_cd,
    sum_k <[E_ab, psi_k], [E_cd, psi_k]> = d_ac S_db + T_ac d_bd
    - sum_k (psi_k[a, c] conj psi_k[b, d] + conj psi_k[c, a] psi_k[d, b])
    with (S, T) the chart's ``squares``; the Hessian is read at the block
    positions of ``basis`` (:func:`_hermitian_basis`) and turned into that
    basis by its unitary.  The pseudo-inverse keeps the Hessian eigenvalues
    above ``PINV_RTOL`` times the largest."""
    rows, cols, coeff = basis
    psi, (heads, tails) = chart.psi, chart.squares
    cross = np.einsum("kpq,kpq->pq", psi[:, rows[:, None], rows], psi[:, cols[:, None], cols].conj())
    hess = (
        (rows[:, None] == rows) * heads[cols[None, :], cols[:, None]]
        + tails[rows[:, None], rows] * (cols[:, None] == cols)
        - cross
        - cross.conj().T
    )
    grad = (coeff.conj().T @ m[rows, cols]).real
    w, q = eigh_checked((coeff.conj().T @ hess @ coeff).real)
    keep = w > PINV_RTOL * w[-1]
    u = np.zeros_like(m)
    u[rows, cols] = coeff @ -(q[:, keep] @ ((q[:, keep].conj().T @ grad) / w[keep])).real
    u = u - (sigma @ u.diagonal().real / sigma.sum()) * np.eye(len(u))
    return u, float(np.vdot(m, u).real)


@dataclass
class _Point:
    """A flow iterate: its chart, energy and H-frame moment map m~."""

    chart: _Chart
    energy: float
    moment: np.ndarray
    residual: float


def flow_solve(rep: TwistedRep, params, opts: FlowOptions | None = None) -> FlowReport:
    """Kempf-Ness energy descent by damped Riemannian Newton steps,
    deciding metric existence.

    Refuses parameters that :func:`admissibility` rejects (no solution can
    exist when the trace constraint fails).  ``opts`` sets the residual
    tolerance (finite and positive), the iteration budget (a nonnegative
    integer) and an optional random start (``seed``, a nonnegative integer,
    and ``init_scale``, finite and nonnegative); the step rules are the
    module constants.  A random start with ||s||_F above ``EIG_CAP``, the
    bound every trial step obeys, raises :class:`IllConditionedSpectrum`.

    At iterations 1, 2, 4, 8, ... (skipped while the residual halves between
    checkpoints), and once more at any other exit, the flow reads the cuts
    of s/||s|| for a proof that no metric exists: an exactly invariant
    proper subobject of larger slope (``certificate``: unstable), or one of
    the total slope with no invariant complement (``no-complement``: not
    polystable).  An invariant subobject of dimension vector d' bounds the
    residual at every metric by deg(d') sqrt(|n| / (|d'| (|n| - |d'|)));
    a reading is skipped when the residual is below delta, the least such
    bound over the dimension vectors of larger slope, and no dimension
    vector has the total slope, since it could then find neither proof.
    Classification:

    - ``diverged``: a proof was found; the report carries the normalized
      limit direction and the filtration steps the proof read
      (``certified_steps``), so :func:`destabilizer_extract` returns the
      proof without rounding its cuts again;
    - ``converged``: residual <= tol and no proof;
    - ``max-iter``: no proof, and the budget ran out or the line search
      found no admissible step.

    ``FlowReport.stop`` names the rule that ended the flow: ``tol``,
    ``certificate``, ``no-complement``, ``line-search`` or ``max-iter``.

    Each step first tries the Newton direction u = -(L^T L)^+ m~ (see the
    module docstring), shifted by a multiple of the identity, which lies in
    the Hessian's kernel, onto the gauge sum_v sigma_v tr u_v = 0; Armijo
    backtracking (factor ``BACKTRACK``, slope constant ``ARMIJO_C``) starts
    at step 1.  When no Newton trial is accepted, the step falls back to
    the gauge-projected gradient with a multiplicatively growing trial step,
    so divergent flows accelerate instead of stalling at logarithmic speed.
    Near a minimum the certifiable energy decrease (~ residual^2) sinks
    below the floating-point resolution of the energy while the residual is
    still computed to full relative precision, so there a trial is accepted
    on strict residual descent instead.
    """
    opts = opts or FlowOptions()
    check_tolerance("tol", opts.tol)
    check_count("max_iter", opts.max_iter)
    check_seed(opts.seed)
    if opts.init_scale:  # 0 is the zero start; inf would start from NaN
        check_tolerance("init_scale", opts.init_scale)
    if rep.total_dim == 0:
        raise ZeroTotalRank("representation has no nonzero vertex space")
    if not admissibility(rep, params):
        defect = sum(params.tau[v] * rep.dims[v] for v in rep.quiver.vertices)
        raise InadmissibleParameters(
            f"trace constraint fails: sum tau_v dim_v = {defect:.3e}"
        )

    layout = _Layout(rep)
    tau, sigma = layout.diagonal(params.tau), layout.diagonal(params.sigma)
    if opts.init_scale > 0:
        rng = np.random.default_rng(0 if opts.seed is None else opts.seed)
        start = {v: random_hermitian(rng, rep.dims[v], opts.init_scale) for v in rep.quiver.vertices}
        s = gauge_project(layout.pack(start, "random start"), sigma)
        s_norm = float(np.linalg.norm(s))
        if s_norm > EIG_CAP:
            raise IllConditionedSpectrum(
                f"random start has ||s||_F = {s_norm:.4g} above the chart's cap EIG_CAP = {EIG_CAP:g}"
            )
    else:
        s = np.zeros((layout.n, layout.n), dtype=complex)

    phi0 = float(np.vdot(layout.rotated, layout.rotated).real)
    basis = _hermitian_basis(layout)

    def evaluate(s_new: np.ndarray) -> _Point:
        chart = _Chart(layout, s_new)
        m, energy = chart.moment(tau, -phi0)
        return _Point(chart, energy, m, float(np.linalg.norm(m)))

    def line_search(point: _Point, u: np.ndarray, slope: float, trial_step: float, min_step: float):
        """First accepted (step, point) backtracking from ``trial_step`` to
        ``min_step`` along the H-frame direction u of derivative ``slope``."""
        xi = point.chart.velocity(u)
        energy_floor = 16.0 * np.finfo(float).eps * (1.0 + abs(point.energy))
        while trial_step >= min_step:
            cand = point.chart.s + trial_step * xi
            if np.linalg.norm(cand) <= EIG_CAP:
                trial = evaluate(cand)
                need = -ARMIJO_C * trial_step * slope
                if need > energy_floor:
                    if trial.energy <= point.energy - need:
                        return trial_step, trial
                elif trial.residual <= point.residual * (1.0 - 1e-4):
                    return trial_step, trial
            trial_step *= BACKTRACK
        return None

    point = evaluate(s)
    iter_log: list[tuple[int, float, float, float, float]] = []
    monotone = True
    step = taken = STEP0
    stop = "max-iter"
    proof, steps = None, None
    _, mu = degree_and_slope(rep, params)
    delta, tied = _semistability_bound(rep, params, mu)

    def read_proof(point: _Point, s_norm: float):
        # below delta no destabilizing invariant subobject exists, and with
        # no dimension vector of slope mu no no-complement proof either
        if point.residual < delta and not tied:
            return None, None
        return _certifies_instability(rep, params, layout.blocks(point.chart.s / s_norm), mu, point.residual)

    # certificate checkpoints at iterations 1, 2, 4, 8, ...; a check runs
    # only while the residual has not halved since the previous checkpoint,
    # which skips it on geometrically converging flows
    next_check = 1
    check_res = None
    s_norm, it = 0.0, 0

    for it in range(opts.max_iter + 1):
        res = point.residual
        s_norm = float(np.linalg.norm(point.chart.s))
        iter_log.append((it, point.energy, res, taken, s_norm))

        if res <= opts.tol:
            stop = "tol"
            break
        if it == next_check:
            next_check *= 2
            halved = check_res is not None and res <= 0.5 * check_res
            check_res = res
            if not halved and s_norm > 0:
                proof, steps = read_proof(point, s_norm)
                if proof:
                    break
        if it == opts.max_iter:
            break

        found = None
        u, slope = _newton_direction(point.chart, point.moment, basis, sigma)
        if slope < 0:
            found = line_search(point, u, slope, 1.0, NEWTON_STEP_MIN)
        if found is None:
            direction = gauge_project(-point.moment, sigma)
            grad_sq = float(np.vdot(direction, direction).real)
            if grad_sq > 0:
                found = line_search(point, direction, -grad_sq, min(step * STEP_GROWTH, STEP_MAX), STEP_MIN)
                if found is not None:
                    step = found[0]
        if found is None:
            stop = "line-search"
            break
        taken, trial = found
        if trial.energy > point.energy + 1e-12 * (1.0 + abs(point.energy)):
            monotone = False
        point = trial

    chart = point.chart
    # a semistable flow can push the residual below tol while ||s|| diverges
    if not proof and s_norm > 0:
        proof, steps = read_proof(point, s_norm)
    stop = proof or stop
    status = "diverged" if proof else "converged" if stop == "tol" else "max-iter"
    if status == "converged":
        for b in layout.index.values():
            check_hpd(chart.h[b, b], np.inf, np.exp(chart.w[b]))
    final = MetricState(layout.blocks(chart.h), validate=False)
    # every exit leaves the loop on the chart it classified
    limit = layout.blocks(chart.s / s_norm) if proof else None
    return FlowReport(
        status=status,
        final_metric=final,
        residual_norm=point.residual,
        iterations=it,
        iter_log=iter_log,
        limit_direction=limit,
        monotone=monotone,
        stop=stop,
        certified_steps=steps if proof else None,
    )
