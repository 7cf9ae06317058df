"""Stability verdicts, destabilizer extraction, and the degree identity.

Slopes come from :mod:`quiverforge.slope`; the filtration that extraction
reads off a divergent flow is computed in :mod:`quiverforge.flow`, which
stops its flow on the first exactly invariant destabilizer.

:func:`stability_oracle` enumerates subobjects from two exact
linear-algebra families.  The coordinate family takes, for every proper
vertex subset S, the closure of the sum of V_v over S and the largest
invariant subobject inside it (the Wong sequence U_tail <- U_tail ∩
phi^{-1}(U_head) of Ivanyos-Karpinski-Qiao-Santha); on one-dimensional
vertices these are all the subobjects.  The End(V) family takes a basis of
End(V), the kernel of the module-map operator, and for each element f and
eigenvalue lambda the kernel and image of f - lambda, which are subobjects
because f is a module map, and which in a semistable object have its slope.
Closures of seeded random vectors follow; those at a vertex stop at the
first closure the enumeration rejects, so ``n_random`` bounds their number
but not their cost.  Schur's lemma guards the verdict: an object is called
``stable`` only when End(V) is the scalars, and ``undecided`` when no
candidate explains a larger End(V).  The enumeration is exact on the
families the test-suite uses and returns ``undecided`` rather than
overclaim beyond its envelope (any vertex dimension above 4).
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from ._linalg import check_hpd, null_space, orthonormal_columns
from .errors import NotASolution, NotDivergent, ZeroTotalRank, check_count, check_seed
from .flow import FiltrationStep, FlowReport, MetricState, _Chart, _frob, filtration_steps
from .reps import (
    SubrepWitness,
    TwistedRep,
    invariant_closure,
    invariant_complement,
    module_map_operator,
)
from .slope import SLOPE_TOL, StabilityParams, degree_and_slope


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
    seed: int = 0
    n_random: int = 200

    def __post_init__(self):
        check_seed(self.seed)
        check_count("n_random", self.n_random)


# any vertex dimension above this puts an instance outside the exactness
# envelope
EXACT_DIM_CAP = 4
# slopes depend only on the dimension vector, so a few representatives per
# dimension vector suffice for verdicts and bound the random closures
PER_DIMS_CAP = 4
# eigenvalues of a unit-norm endomorphism closer than this are one: rounding
# splits the eigenvalue of a nilpotent block of size k by about eps^(1/k)
EIGEN_CLUSTER_TOL = 1e-3


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


def _largest_invariant_inside(rep: TwistedRep, subset) -> SubrepWitness:
    """Largest invariant subobject inside the sum of V_v over ``subset``:
    U_tail <- U_tail ∩ phi^{-1}(U_head) over every slice, to a fixed point
    (the Wong sequence)."""
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
    return SubrepWitness(bases)


def _eigenvalue_clusters(vals: np.ndarray) -> list[complex]:
    """Means of the groups of eigenvalues chained within
    ``EIGEN_CLUSTER_TOL``."""
    groups: list[list[complex]] = []
    for lam in vals:
        near = [g for g in groups if min(abs(lam - z) for z in g) <= EIGEN_CLUSTER_TOL]
        merged = [lam] + [z for g in near for z in g]
        groups = [g for g in groups if g not in near] + [merged]
    return [complex(np.mean(g)) for g in groups]


def _coordinate_family(rep: TwistedRep) -> Iterator[SubrepWitness]:
    """For every proper subset S of the nonzero vertices, the closure of
    the sum of V_v over S and the largest invariant subobject inside it.
    On one-dimensional vertices these are the closed vertex subsets."""
    verts = [v for v in rep.quiver.vertices if rep.dims[v]]
    for r in range(1, len(verts)):
        for subset in combinations(verts, r):
            yield invariant_closure(rep, {v: np.eye(rep.dims[v], dtype=complex) for v in subset})
            yield _largest_invariant_inside(rep, subset)


def _endomorphism_family(rep: TwistedRep, ends: list[dict[str, np.ndarray]]) -> Iterator[SubrepWitness]:
    """For every element f of the basis ``ends`` of End(V) and every
    eigenvalue lambda of f, the closures of ker(f - lambda) and
    im(f - lambda); both are invariant because f is a module map.  None
    when End(V) is the scalars."""
    if len(ends) < 2:
        return
    verts = [v for v in rep.quiver.vertices if rep.dims[v]]
    for f in ends:
        for lam in _eigenvalue_clusters(np.concatenate([np.linalg.eigvals(f[v]) for v in verts])):
            shifted = {v: f[v] - lam * np.eye(rep.dims[v]) for v in verts}
            yield invariant_closure(rep, {v: null_space(m) for v, m in shifted.items()})
            yield invariant_closure(rep, {v: orthonormal_columns(m) for v, m in shifted.items()})


def _random_vectors(rep: TwistedRep, options: OracleOptions) -> Iterator[tuple[str, np.ndarray]]:
    """``n_random`` random unit vectors, each at a random nonzero vertex,
    drawn lazily from ``options.seed``."""
    rng = np.random.default_rng(options.seed)
    verts = [v for v in rep.quiver.vertices if rep.dims[v] > 0]
    for _ in range(options.n_random):
        v = verts[rng.integers(len(verts))]
        x = rng.normal(size=rep.dims[v]) + 1j * rng.normal(size=rep.dims[v])
        yield v, x / np.linalg.norm(x)


def _candidate_subreps(
    rep: TwistedRep, options: OracleOptions, ends: list[dict[str, np.ndarray]] | None = None
) -> list[SubrepWitness]:
    """Distinct subobjects of the coordinate and End(V) families (``ends``
    is a basis of End(V), computed when not given), then closures of random
    vectors, at most ``PER_DIMS_CAP`` per dimension vector.

    The closure of a random vector at a vertex v almost surely has v's
    generic dimension vector, and when it repeats a candidate W, W_v is
    almost surely all of V_v.  Either way every later random closure at v
    would be rejected too, so v stops at its first rejected one, and no
    vector is drawn once every vertex has stopped.
    """
    seen: dict[tuple, SubrepWitness] = {}
    dims_count: dict[tuple, int] = {}

    def add(w: SubrepWitness) -> bool:
        dims_key = tuple(sorted(w.dims.items()))
        if dims_count.get(dims_key, 0) >= PER_DIMS_CAP:
            return False
        key = _witness_key(w)
        if key in seen:
            return False
        seen[key] = w
        dims_count[dims_key] = dims_count.get(dims_key, 0) + 1
        return True

    ends = _endomorphisms(rep) if ends is None else ends
    for w in chain(_coordinate_family(rep), _endomorphism_family(rep, ends)):
        add(w)
    live = {v for v in rep.quiver.vertices if rep.dims[v] > 0}
    for v, x in _random_vectors(rep, options):
        if v in live and not add(invariant_closure(rep, {v: x})):
            live.remove(v)
            if not live:
                break
    return list(seen.values())


def stability_oracle(rep: TwistedRep, params: StabilityParams, options: OracleOptions | None = None) -> Verdict:
    """Enumeration verdict over exact subobject families.

    The candidates are the coordinate family (closures of coordinate
    subobjects and the largest invariant subobjects inside them), the
    End(V) family (kernels and images of endomorphisms minus an
    eigenvalue) and closures of random vectors.  Looks for a proper
    invariant subobject of strictly larger slope (``unstable``, with
    witness).  Failing that, beyond the exactness envelope (any vertex
    dimension above ``EXACT_DIM_CAP``) the verdict is ``undecided``.
    Inside it, ``polystable`` when every equal-slope candidate has an
    invariant complement (polystable means semisimple among semistable
    objects of one slope), ``strictly-semistable`` with a witness that has
    none.  With no equal-slope candidate, the Schur guard: the object is
    ``stable`` only when End(V) is the scalars (the dimension of the basis
    the End(V) family uses), and ``undecided`` otherwise.

    ``options`` sets the random seed and the largest number of random
    vectors; those at a vertex stop at the first closure that is rejected
    (its dimension vector already has ``PER_DIMS_CAP`` candidates, or it
    repeats one), so once every vertex has stopped a larger ``n_random``
    costs nothing.  The enumeration limits are the module constants.
    """
    options = options or OracleOptions()
    if rep.total_dim == 0:
        raise ZeroTotalRank("empty representation")
    _, mu = degree_and_slope(rep, params)
    ends = _endomorphisms(rep)
    candidates = [w for w in _candidate_subreps(rep, options, ends) if 0 < w.total_dim < rep.total_dim]
    best: SubrepWitness | None = None
    best_slope = -np.inf
    equal: list[SubrepWitness] = []
    for w in candidates:
        _, mu_w = degree_and_slope(w, params)
        if mu_w > best_slope:
            best, best_slope = w, mu_w
        if abs(mu_w - mu) <= SLOPE_TOL:
            equal.append(w)
    if best is not None and best_slope > mu + SLOPE_TOL:
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
    """Ascending filtration read off the normalized limit direction.

    Eigenvalues of the limit direction are pooled across vertices and split
    at gaps exceeding ``flow.GAP_THRESHOLD`` times the spectral spread; each
    cut yields the span of eigenvectors below it, rounded to the nearest
    invariant subspace (leakage-minimizing polish at fixed dimensions, with
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
    |pi_head psi (1 - pi_tail)|^2 over the H-frame slices psi.  Raises
    :class:`SingularMetric` on a metric of condition above 1e12 and
    :class:`NotASolution` when the metric residual exceeds ``SOLUTION_TOL``.
    """
    for h in metric.h.values():
        check_hpd(h)
    chart = _Chart.of_metric(metric, rep)
    res = _frob(chart.moment(params.tau)[0])
    if res > SOLUTION_TOL:
        raise NotASolution(f"metric residual {res:.3e} exceeds {SOLUTION_TOL:g}")
    frames = {v: orthonormal_columns(chart.half[v][0] @ b) for v, b in witness.basis.items()}
    pi = {v: q @ q.conj().T for v, q in frames.items()}
    deg_w, _ = degree_and_slope(witness, params)
    leakage = sum(
        float(np.linalg.norm(pi[a.head] @ p @ (np.eye(p.shape[1]) - pi[a.tail]))) ** 2
        for a in rep.quiver.arrows
        for p in chart.psi[a.name]
    )
    return float(abs(deg_w + leakage))
