"""Stability verdicts, destabilizer extraction, and the degree identity.

Slopes come from :mod:`quiverforge.slope`; the filtration that extraction
reads off a divergent flow is computed in :mod:`quiverforge.flow`, which
stops its flow on the first exactly invariant destabilizer.

The subobject enumeration used by :func:`stability_oracle` is a stated
heuristic: invariant closures of seeded generating vectors enriched by
pairwise sums and intersections.  It is exact on the curated families the
test-suite uses and returns ``undecided`` rather than overclaim beyond its
envelope (any vertex dimension above 4).  Random generators at a vertex
stop at the first closure the enumeration rejects, so ``n_random`` bounds
the random part but no longer sets its cost.  No work whose result the
enumeration would reject is done: each distinct exact generator is closed
once, a pair of nested candidates is not enriched (their sum and
intersection are the pair itself), and a closure step whose images lie in
the head basis skips its SVD (the rank cannot grow).
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ._linalg import RANK_TOL, eigh_checked, herm
from .errors import NotASolution, NotDivergent, ZeroTotalRank, check_count, check_seed
from .flow import (
    FiltrationStep,
    FlowReport,
    MetricState,
    filtration_steps,
    moment_map_residual,
    phi_norm_sq,
    residual_norm_h,
)
from .reps import (
    SubrepWitness,
    TwistedRep,
    invariant_closure,
    invariant_complement,
    witness_intersection,
    witness_sum,
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


# pairwise enrichment rounds over the closures of the generators
ENRICHMENT_DEPTH = 2
# any vertex dimension above this puts an instance outside the exactness
# envelope
EXACT_DIM_CAP = 4
MAX_CANDIDATES = 512
# slopes depend only on the dimension vector, so a few representatives per
# dimension vector suffice for verdicts and keep the pairwise enrichment
# quadratic in a small set
PER_DIMS_CAP = 4
# random selfadjoint path words and their largest length
N_WORDS = 12
WORD_LENGTH = 3


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


def _generator_vectors(
    rep: TwistedRep, options: OracleOptions, rng
) -> tuple[list[tuple[str, np.ndarray]], Iterator[tuple[str, np.ndarray]]]:
    """(exact, random) generators: a list of basis vectors and eigenvectors
    of selfadjoint words, and a lazy stream of ``n_random`` random unit
    vectors drawn from ``rng`` after them.

    The exact list holds each vector once: a word that repeats another
    bitwise (a random path of length 1 is an arrow's own phi^dagger phi,
    computed by the same product) is not decomposed again, and an
    eigenvector equal to an earlier generator is dropped.  Equal vectors
    have equal closures, which the enumeration rejects as repeats.  Every
    word is still drawn, so the random stream is unchanged."""
    exact: list[tuple[str, np.ndarray]] = []
    for v in rep.quiver.vertices:
        for i in range(rep.dims[v]):
            e = np.zeros(rep.dims[v], dtype=complex)
            e[i] = 1.0
            exact.append((v, e))
    vectors = {(v, x.tobytes()) for v, x in exact}
    # eigenvectors of selfadjoint words in the slices, one decomposition per
    # distinct word, in the order of first appearance
    words = {(v, op.tobytes()): (v, op) for v, op in _selfadjoint_words(rep, rng) if op.shape[0]}
    for v, op in words.values():
        _, vecs = eigh_checked(herm(op))
        for x in vecs.T:
            if (v, x.tobytes()) not in vectors:
                vectors.add((v, x.tobytes()))
                exact.append((v, x))
    verts = [v for v in rep.quiver.vertices if rep.dims[v] > 0]

    def random():
        for _ in range(options.n_random):
            v = verts[rng.integers(len(verts))]
            x = rng.normal(size=rep.dims[v]) + 1j * rng.normal(size=rep.dims[v])
            yield v, x / np.linalg.norm(x)

    return exact, random()


def _selfadjoint_words(rep: TwistedRep, rng) -> list[tuple[str, np.ndarray]]:
    """phi(p)^dagger phi(p) and phi(p) phi(p)^dagger for short random paths."""
    arrows = [a for a in rep.quiver.arrows]
    out: list[tuple[str, np.ndarray]] = []
    for a in arrows:
        for sl in rep.slices[a.name]:
            out.append((a.tail, sl.conj().T @ sl))
            out.append((a.head, sl @ sl.conj().T))
    for _ in range(N_WORDS):
        if not arrows:
            break
        length = int(rng.integers(1, WORD_LENGTH + 1))
        a = arrows[rng.integers(len(arrows))]
        mat = rep.slices[a.name][rng.integers(rep.twist.rank(a.name))]
        src, tgt = a.tail, a.head
        for _ in range(length - 1):
            outgoing = rep.quiver.arrows_out_of(tgt)
            if not outgoing:
                break
            b = outgoing[rng.integers(len(outgoing))]
            mat = rep.slices[b.name][rng.integers(rep.twist.rank(b.name))] @ mat
            tgt = b.head
        out.append((src, mat.conj().T @ mat))
        out.append((tgt, mat @ mat.conj().T))
    return out


def _nested(u: SubrepWitness, w: SubrepWitness) -> bool:
    """U inside W at every vertex: ||B_U - B_W B_W^H B_U||_F <= ``RANK_TOL``
    for the orthonormal bases B.  Then U + W = W and U ∩ W = U, up to
    rounding far below the witness key's."""
    for v, bu in u.basis.items():
        bw = w.basis[v]
        if bu.shape[1] > bw.shape[1]:
            return False
        if bu.shape[1] and np.linalg.norm(bu - bw @ (bw.conj().T @ bu)) > RANK_TOL:
            return False
    return True


def _candidate_subreps(rep: TwistedRep, options: OracleOptions) -> list[SubrepWitness]:
    """Distinct closures of the generators, then ``ENRICHMENT_DEPTH`` rounds
    of pairwise sums and intersections, at most ``PER_DIMS_CAP`` per
    dimension vector.

    Work whose result would be rejected is skipped; the list is the one the
    full enumeration gives.
    - Exact generators are distinct vectors (see :func:`_generator_vectors`):
      equal vectors have equal closures, and the repeat would be rejected.
    - The closure of a random vector at a vertex v almost surely has v's
      generic dimension vector, and when it repeats a candidate W, W_v is
      almost surely all of V_v.  Either way every later random closure at v
      would be rejected too, so v stops at its first rejected one, and no
      vector is drawn once every vertex has stopped.
    - A pair of candidates both present in the previous round gave its sum
      and intersection there already.
    - A nested pair U ⊆ W (:func:`_nested`) has sum W and intersection U,
      both stored, so it is not enriched.
    - :func:`invariant_closure` skips the SVD of a step that cannot grow.
    """
    rng = np.random.default_rng(options.seed)
    seen: dict[tuple, SubrepWitness] = {}
    dims_count: dict[tuple, int] = {}

    def add(w: SubrepWitness) -> bool:
        if len(seen) >= MAX_CANDIDATES:
            return False
        dims_key = tuple(sorted(w.dims.items()))
        if dims_count.get(dims_key, 0) >= PER_DIMS_CAP:
            return False
        key = _witness_key(w)
        if key in seen:
            return False
        seen[key] = w
        dims_count[dims_key] = dims_count.get(dims_key, 0) + 1
        return True

    exact, random = _generator_vectors(rep, options, rng)
    for v, x in exact:
        add(invariant_closure(rep, {v: x}))
    live = {v for v in rep.quiver.vertices if rep.dims[v] > 0}
    for v, x in random:
        if v in live and not add(invariant_closure(rep, {v: x})):
            live.remove(v)
            if not live:
                break
    old = 0
    for _ in range(ENRICHMENT_DEPTH):
        current = list(seen.values())
        for i in range(len(current)):
            for j in range(max(i + 1, old), len(current)):
                u, w = current[i], current[j]
                if _nested(u, w) or _nested(w, u):
                    continue
                add(witness_sum(u, w))
                add(witness_intersection(u, w))
        old = len(current)
    return list(seen.values())


def stability_oracle(rep: TwistedRep, params: StabilityParams, options: OracleOptions | None = None) -> Verdict:
    """Heuristic enumeration verdict.

    Looks for a proper invariant subobject of strictly larger slope
    (``unstable``, with witness).  Failing that, beyond the exactness
    envelope (any vertex dimension above ``EXACT_DIM_CAP``) the verdict is
    ``undecided``.  Inside it, ``polystable`` when every equal-slope
    candidate has an invariant complement (polystable means semisimple
    among semistable objects of one slope), ``strictly-semistable`` with a
    witness that has none, and ``stable`` when there is no such candidate.

    ``options`` sets the generator seed and the largest number of random
    generating vectors; those at a vertex stop at the first closure that is
    rejected (its dimension vector already has ``PER_DIMS_CAP``
    candidates, or it repeats one), so once every vertex has stopped a
    larger ``n_random`` costs nothing.  The enumeration limits are the
    module constants.
    """
    options = options or OracleOptions()
    if rep.total_dim == 0:
        raise ZeroTotalRank("empty representation")
    _, mu = degree_and_slope(rep, params)
    candidates = [w for w in _candidate_subreps(rep, options) if 0 < w.total_dim < rep.total_dim]
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
    return Verdict("polystable", mu) if equal else Verdict("stable", mu)


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
    its certificate yields the certified step among these.
    """
    if report.status != "diverged" or report.limit_direction is None:
        raise NotDivergent("destabilizer extraction needs a divergent flow report")
    return filtration_steps(rep, params, report.limit_direction)


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
    equations the weighted degree of W equals minus its squared norm.
    Raises :class:`NotASolution` when the metric residual exceeds
    ``SOLUTION_TOL``.
    """
    m = moment_map_residual(rep, metric, params)
    res = residual_norm_h(rep, metric, m)
    if res > SOLUTION_TOL:
        raise NotASolution(f"metric residual {res:.3e} exceeds {SOLUTION_TOL:g}")
    proj = {}
    for v in rep.quiver.vertices:
        b = witness.basis[v]
        if b.shape[1] == 0:
            proj[v] = np.zeros((rep.dims[v], rep.dims[v]), dtype=complex)
            continue
        gram = b.conj().T @ metric.h[v] @ b
        proj[v] = b @ np.linalg.solve(gram, b.conj().T @ metric.h[v])
    deg_w, _ = degree_and_slope(witness, params)
    perp = {
        a.name: [
            proj[a.head] @ sl @ (np.eye(rep.dims[a.tail], dtype=complex) - proj[a.tail])
            for sl in rep.slices[a.name]
        ]
        for a in rep.quiver.arrows
    }
    leakage = phi_norm_sq(TwistedRep(rep.quiver, rep.twist, rep.dims, perp), metric)
    return float(abs(deg_w + leakage))
