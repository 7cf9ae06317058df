"""Stability verdicts, destabilizer extraction, and the degree identity.

Slopes come from :mod:`quiverforge.slope`; the filtration that extraction
reads off a divergent flow is computed in :mod:`quiverforge.flow`, which
stops its flow on the first exactly invariant destabilizer.

The oracle, :func:`stability_oracle`, lists subobjects from two exact
linear-algebra families.  The coordinate family takes, for every proper
vertex subset S, the closure of the sum of V_v over S and the largest
invariant subobject inside it, the orthogonal complement of the closure of
the sum of V_v outside S in the adjoint representation; on one-dimensional
vertices these are all the subobjects.  The End(V) family takes one
generic element f of End(V), the kernel of the module-map operator, a
fixed combination of its basis, and for each eigenvalue lambda the kernel
and image of f - lambda, which are subobjects as built because f is a
module map (only the coordinate family is closed), and which in a
semistable object have its slope.  A polystable object is a sum of stable
summands, so its End(V) is a product of matrix algebras, and the kernels
of one such f are its summands.  The enumeration is these two families
and nothing else, so it is deterministic.  Members are built and read one
at a time, coordinate family first, each distinct subspace once, and the
reading stops once the best candidate's slope exceeds the total slope and
equals the largest slope of a proper dimension vector
(:func:`slope.dimension_grid`), which no subobject can exceed.  Once the
coordinate family is read, that bound drops to the rows a subobject can
have (:func:`_subobject_top`): the family's closures and largest-inside
members bound every subobject's dimension vector from below and above, so
the oracle can stop there, before End(V) is built.  Schur's lemma
guards the verdict: an object is called ``stable`` only when End(V) is the
scalars, and ``undecided`` when no candidate explains a larger End(V), or
beyond the exactness envelope (any vertex dimension above 4).  The
families can still miss the one subobject that matters:
``tests/test_stability.py`` pins two planted Kronecker objects that the
oracle calls ``stable`` although an invariant subobject of equal or larger
slope exists.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from ._linalg import null_space, orthonormal_columns
from .errors import NotASolution, NotDivergent, ZeroTotalRank, check_count, check_seed
from .flow import FiltrationStep, FlowReport, MetricState, _Chart, _Layout, filtration_steps
from .reps import (
    SubrepWitness,
    TwistedRep,
    _adjoint,
    _witness_bases,
    invariant_closures,
    invariant_complement,
    module_map_operator,
)
from .slope import SLOPE_TOL, StabilityParams, degree_and_slope, dimension_grid


# ---------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
class Verdict:
    tag: str  # stable | strictly-semistable | unstable | polystable | undecided
    slope: float
    witness: SubrepWitness | None = None
    witness_slope: float | None = None
    certificate_source: str = "oracle-enumeration"


@dataclass
class OracleOptions:
    """Options of :func:`stability_oracle`, kept for callers that pass them.

    The enumeration draws nothing at random (the coefficients of its
    generic endomorphism are module constants, not drawn from ``seed``), so
    neither field changes a verdict or its cost; both are still checked,
    and a ``seed`` or ``n_random`` that is not a nonnegative integer is
    refused."""

    seed: int = 0
    n_random: int = 200

    def __post_init__(self):
        check_seed(self.seed)
        check_count("n_random", self.n_random)


# any vertex dimension above this puts an instance outside the exactness
# envelope
EXACT_DIM_CAP = 4
# eigenvalues of a unit-norm endomorphism closer than this are one: rounding
# splits the eigenvalue of a nilpotent block of size k by about eps^(1/k)
EIGEN_CLUSTER_TOL = 1e-3
# phase step of the coefficients of the generic endomorphism, the golden
# angle: no two coefficients share a phase
GENERIC_PHASE = 2.399963229728653


def _witness_key(w: SubrepWitness) -> tuple:
    parts = []
    for v in sorted(w.basis):
        b = w.basis[v]
        # rounding the real view is rounding real and imaginary parts, but
        # cheaper; + 0.0 turns the -0.0 rounding leaves into 0.0, so one
        # subspace has one key
        p = (b @ b.conj().T).view(float)
        parts.append((v, b.shape[1], (p.round(7) + 0.0).tobytes()))
    return tuple(parts)


def _endomorphisms(rep: TwistedRep) -> list[dict[str, np.ndarray]]:
    """Orthonormal basis of End(V), the kernel of
    :func:`reps.module_map_operator`, one per-vertex block dict per element."""
    verts = rep.quiver.vertices
    offsets = np.cumsum([0] + [rep.dims[v] ** 2 for v in verts])
    return [
        {v: f[lo:hi].reshape(rep.dims[v], rep.dims[v]) for v, lo, hi in zip(verts, offsets, offsets[1:])}
        for f in null_space(module_map_operator(rep)).T
    ]


def _eigenvalue_clusters(vals: np.ndarray) -> list[complex]:
    """Means of the groups of eigenvalues chained within
    ``EIGEN_CLUSTER_TOL``."""
    groups: list[list[complex]] = []
    for lam in vals:
        near = [g for g in groups if min(abs(lam - z) for z in g) <= EIGEN_CLUSTER_TOL]
        merged = [lam] + [z for g in near for z in g]
        groups = [g for g in groups if g not in near] + [merged]
    return [complex(np.mean(g)) for g in groups]


def _coordinate_family(rep: TwistedRep, built: dict | None = None) -> Iterator[SubrepWitness]:
    """For every proper subset S of the nonzero vertices, the closure of
    the sum of V_v over S and the largest invariant subobject inside it.
    W is invariant exactly when W^perp is invariant in the adjoint
    representation, so the latter is the complement of the adjoint closure
    of the sum of V_v outside S, which is all of V_v there.  On
    one-dimensional vertices these are the closed vertex subsets.  Each
    member is built when it is asked for, and the adjoint representation
    on the first largest-inside member.  ``built``, when given, maps the
    bit mask of each subset S read so far (bit i for the i-th nonzero
    vertex in quiver order) to the dimension vectors, in quiver vertex
    order, of its closure and of its largest-inside member."""
    eye = {v: np.eye(rep.dims[v], dtype=complex) for v in rep.quiver.vertices if rep.dims[v]}
    bit = {v: 1 << i for i, v in enumerate(eye)}
    adjoint = None
    for subset in chain.from_iterable(combinations(eye, r) for r in range(1, len(eye))):
        closure = invariant_closures(rep, [{v: eye[v] for v in subset}])[0]
        yield closure
        if adjoint is None:
            adjoint = _adjoint(rep)
        dual = invariant_closures(adjoint, [{v: eye[v] for v in eye if v not in subset}])[0]
        perp = {v: b[:, :0] if b.shape[1] == len(b) else null_space(b.conj().T) for v, b in dual.basis.items()}
        inside = SubrepWitness(perp)
        yield inside
        if built is not None:
            dims = [[w.dim(v) for v in rep.quiver.vertices] for w in (closure, inside)]
            built[sum(bit[v] for v in subset)] = tuple(dims)


def _subobject_top(rep: TwistedRep, grid, built: dict) -> float:
    """The largest slope of the rows of ``grid`` (:func:`slope.dimension_grid`)
    that a subobject can have, given the coordinate family's dimension
    vectors ``built`` (all of them, see :func:`_coordinate_family`).  A
    subobject W that is all of V_v on a vertex set F contains the closure
    C(F), and one inside the sum of V_v over its support T lies in the
    largest invariant subobject L(T) there; so a row that is n_v exactly
    on F must dominate dims C(F), and a row supported on T must be
    dominated by dims L(T).  An empty F and a full T constrain nothing.  The
    two tables, one row per subset of the nonzero vertices, are no larger
    than the grid."""
    dims, _, slope = grid
    n = np.array([rep.dims[v] for v in rep.quiver.vertices])
    weight = np.zeros(len(n), dtype=int)
    weight[n > 0] = 1 << np.arange(np.count_nonzero(n))
    lower = np.zeros((2 ** np.count_nonzero(n), len(n)), dtype=int)
    upper = np.tile(n, (len(lower), 1))
    for code, (closure, inside) in built.items():
        lower[code], upper[code] = closure, inside
    keep = (dims >= lower[(dims == n) @ weight]).all(axis=1) & (dims <= upper[(dims > 0) @ weight]).all(axis=1)
    return float(slope[keep].max(initial=-np.inf))


def _endomorphism_family(rep: TwistedRep, ends: list[dict[str, np.ndarray]]) -> Iterator[SubrepWitness]:
    """For one generic element f of End(V) and every eigenvalue lambda of
    f, ker(f - lambda), then im(f - lambda), not closed: both are invariant
    as built because f is a module map.  None when End(V) is the scalars.
    f is the combination of the orthonormal basis ``ends`` whose k-th
    coefficient is exp(i k ``GENERIC_PHASE``), scaled to unit norm, so
    ``EIGEN_CLUSTER_TOL`` applies to it; the coefficients are constants, so
    the family is deterministic.  In a polystable object End(V) is a
    product of matrix algebras, and the kernels of such an f are stable
    summands of the total slope.  Each nonzero vertex takes one eigenvalue
    call; a zero-dimensional one gets empty bases."""
    if len(ends) < 2:
        return
    coef = np.exp(1j * GENERIC_PHASE * np.arange(len(ends))) / np.sqrt(len(ends))
    f = {v: np.tensordot(coef, [e[v] for e in ends], axes=1) for v in rep.quiver.vertices}
    vals = np.concatenate([np.linalg.eigvals(m) for m in f.values() if m.size])
    for lam in _eigenvalue_clusters(vals):
        shifted = {v: m - lam * np.eye(len(m)) for v, m in f.items()}
        yield SubrepWitness({v: null_space(m) for v, m in shifted.items()})
        yield SubrepWitness({v: orthonormal_columns(m) for v, m in shifted.items()})


def stability_oracle(rep: TwistedRep, params: StabilityParams, options: OracleOptions | None = None) -> Verdict:
    """Enumeration verdict over exact subobject families.

    The candidates are the coordinate family (closures of coordinate
    subobjects and the largest invariant ones inside, by adjoint closure)
    and the End(V) family (kernels and images of one generic endomorphism
    minus an eigenvalue), read in that order, each distinct subspace once;
    nothing is drawn at random, so the verdict is deterministic.  Looks for
    a proper invariant subobject of strictly larger slope (``unstable``,
    with witness: the first candidate of the largest slope).  The
    candidates are read one at a time, and the reading stops once that
    slope exceeds the total slope by more than ``SLOPE_TOL`` and equals the
    largest slope of a proper dimension vector (:func:`slope.dimension_grid`;
    a candidate's slope equals its grid entry bit for bit), since no later
    candidate can then replace the witness.  When the coordinate family is
    exhausted, the bound becomes the largest slope of a grid row that a
    subobject can have (:func:`_subobject_top`), and the reading stops
    there, before End(V) is built, when the best candidate already reaches
    it.  Above ``BOUND_GRID_ROWS`` vectors there is no grid and every
    candidate is read.  Failing that, beyond the exactness envelope (any
    vertex dimension above ``EXACT_DIM_CAP``) the verdict is ``undecided``.
    Inside it, ``polystable`` when every equal-slope candidate has an
    invariant complement (polystable means semisimple among semistable
    objects of one slope), ``strictly-semistable`` with a witness that has
    none.  With no equal-slope candidate, the Schur guard: the object is
    ``stable`` only when End(V) is the scalars (the dimension of the basis
    the End(V) family uses), and ``undecided`` otherwise.  End(V) is built
    once, after the coordinate family, so a reading that stops there
    builds none.

    ``options`` is checked when it is built and changes nothing here (see
    :class:`OracleOptions`).  The enumeration limits and the coefficients
    of the generic endomorphism are module constants.
    """
    if rep.total_dim == 0:
        raise ZeroTotalRank("empty representation")
    _, mu = degree_and_slope(rep, params)
    grid = dimension_grid(rep, params)
    # no candidate's slope exceeds the largest grid slope; without a grid
    # there is no bound and every candidate is read
    top = np.inf if grid is None else grid[2].max(initial=-np.inf)
    seen: set[tuple] = set()
    best: SubrepWitness | None = None
    best_slope = -np.inf
    equal: list[SubrepWitness] = []

    def reached() -> bool:
        # only a strictly larger slope replaces the witness, so none can
        # replace one at the bound
        return best_slope == top and best_slope > mu + SLOPE_TOL

    def read(family: Iterator[SubrepWitness]) -> bool:
        # the distinct proper members, in order; True once the witness
        # reaches the bound
        nonlocal best, best_slope
        for w in family:
            if not 0 < w.total_dim < rep.total_dim:
                continue
            key = _witness_key(w)
            if key in seen:
                continue
            seen.add(key)
            _, mu_w = degree_and_slope(w, params)
            if mu_w > best_slope:
                best, best_slope = w, mu_w
                if reached():
                    return True
            if abs(mu_w - mu) <= SLOPE_TOL:
                equal.append(w)
        return False

    built: dict = {}
    if not read(_coordinate_family(rep, built)) and grid is not None:
        top = _subobject_top(rep, grid, built)
    if reached():
        return Verdict("unstable", mu, best, best_slope)
    ends = _endomorphisms(rep)
    read(_endomorphism_family(rep, ends))
    if best_slope > mu + SLOPE_TOL:
        return Verdict("unstable", mu, best, best_slope)
    if max(rep.dims.values()) > EXACT_DIM_CAP:
        return Verdict("undecided", mu, equal[0], mu) if equal else Verdict("undecided", mu)
    for w in equal:
        if invariant_complement(rep, w) is None:
            return Verdict("strictly-semistable", mu, w, mu)
    if equal:
        return Verdict("polystable", mu)
    return Verdict("stable", mu) if len(ends) == 1 else Verdict("undecided", mu)


# ---------------------------------------------------------------------------
# destabilizer extraction from a divergent flow


def destabilizer_extract(
    rep: TwistedRep, params: StabilityParams, report: FlowReport
) -> list[FiltrationStep]:
    """Ascending filtration read off the normalized limit direction, by
    :func:`flow.filtration_steps`.

    Eigenvalues of the limit direction are pooled across vertices and split
    at gaps exceeding ``flow.GAP_THRESHOLD`` times the spectral spread; each
    cut yields the span of eigenvectors below it, kept when it passes
    :func:`reps.check_subrep` and otherwise rounded to the nearest invariant
    subspace (the packed Gauss-Newton polish at fixed dimensions, with
    closure under the arrow slices as the fallback when no nearby invariant
    subspace of those dimensions exists).  A report whose flow stopped on
    its certificate yields the certified step among these.  A report that
    carries its flow's certified steps has only the cuts at or below the
    total slope minus ``SLOPE_TOL`` rounded here; the two are merged in cut
    order, which is the filtration the full reading gives.
    """
    if report.status != "diverged" or report.limit_direction is None:
        raise NotDivergent("destabilizer extraction needs a divergent flow report")
    if report.certified_steps is None:
        return filtration_steps(rep, params, report.limit_direction)
    _, mu = degree_and_slope(rep, params)
    lower = filtration_steps(rep, params, report.limit_direction, max_slope=mu - SLOPE_TOL)
    return sorted(lower + report.certified_steps, key=lambda st: st.boundary)


# ---------------------------------------------------------------------------
# degree identity for subobjects of solved instances

# largest metric residual the identity accepts as a solution
SOLUTION_TOL = 1e-8


def subrep_degree_identity(
    rep: TwistedRep,
    metric: MetricState,
    witness: SubrepWitness,
    params: StabilityParams,
) -> float:
    """Mismatch |deg(W) + |phi_perp|^2_H| for an invariant W.

    ``phi_perp`` is the component of each arrow map that leaks from the
    metric-orthogonal complement of W back into W; for a metric solving the
    equations the weighted degree of W equals minus its squared norm.  One
    chart of the metric gives both terms: the residual is the Frobenius
    norm of m~, and in the H-frame the H-orthogonal projection onto W is the
    orthogonal projection pi onto H^{1/2} W, so the leakage is the sum of
    |pi psi_k (1 - pi)|^2 over the chart's H-frame slice stack, with pi
    block diagonal.  The witness is refused as :func:`reps._witness_bases`
    refuses it.  Raises :class:`SingularMetric` on a metric of condition
    above 1e12 and :class:`NotASolution` when the metric residual exceeds
    ``SOLUTION_TOL``.
    """
    bases = _witness_bases(rep, witness)
    layout = _Layout(rep)
    chart = _Chart.of_metric(metric, layout, cond_limit=1e12)
    res = float(np.linalg.norm(chart.moment(layout.diagonal(params.tau, "tau"))[0]))
    if res > SOLUTION_TOL:
        raise NotASolution(f"metric residual {res:.3e} exceeds {SOLUTION_TOL:g}")
    half = layout.blocks(chart.half[0])
    frames = {v: orthonormal_columns(half[v] @ b) for v, b in bases.items()}
    pi = layout.pack({v: q @ q.conj().T for v, q in frames.items()}, "witness projector")
    deg_w, _ = degree_and_slope(witness, params)
    leakage = float(np.linalg.norm(pi @ chart.psi @ (np.eye(layout.n) - pi))) ** 2
    return float(abs(deg_w + leakage))
