"""Twisted quiver representations over C and their categorical operations.

A representation assigns a finite-dimensional complex space to each vertex
and, to each arrow ``a``, a map from E_tail ⊗ M_a to E_head stored as m_a
matrix slices (one per twist basis vector).  Values are immutable after
construction; every operation here is pure.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ._linalg import (
    RANK_TOL,
    kron,
    null_space,
    orthonormal_columns,
    projector,
    stacked_columns,
)
from .errors import (
    DimensionOverflow,
    NonFiniteData,
    QuiverMismatch,
    ShapeMismatch,
    TwistedModuleUnsupported,
    VertexSetMismatch,
)
from .quiver import (
    DEFAULT_MAX_PATH_LENGTH,
    Arrow,
    Path,
    Quiver,
    TwistSpec,
    basis_paths,
    evaluate_path,
)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=complex)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class TwistedRep:
    quiver: Quiver
    twist: TwistSpec
    dims: Mapping[str, int]
    slices: Mapping[str, tuple[np.ndarray, ...]]

    def __post_init__(self):
        dims = {v: int(self.dims.get(v, 0)) for v in self.quiver.vertices}
        if any(d < 0 for d in dims.values()):
            raise ShapeMismatch("negative vertex dimension")
        cleaned: dict[str, tuple[np.ndarray, ...]] = {}
        for arrow in self.quiver.arrows:
            m = self.twist.rank(arrow.name)
            shape = (dims[arrow.head], dims[arrow.tail])
            given = self.slices.get(arrow.name)
            if given is None:
                cleaned[arrow.name] = tuple(
                    _freeze(np.zeros(shape)) for _ in range(m)
                )
                continue
            if len(given) != m:
                raise ShapeMismatch(
                    f"arrow {arrow.name!r}: expected {m} slice(s), got {len(given)}"
                )
            mats = []
            for k, s in enumerate(given):
                s = np.asarray(s, dtype=complex)
                if s.shape != shape:
                    raise ShapeMismatch(
                        f"arrow {arrow.name!r} slice {k}: shape {s.shape} != {shape}"
                    )
                if not np.all(np.isfinite(s)):
                    raise NonFiniteData(f"arrow {arrow.name!r} slice {k} has a non-finite entry")
                mats.append(_freeze(s))
            cleaned[arrow.name] = tuple(mats)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "slices", cleaned)

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())


def build_rep(
    quiver: Quiver,
    twist: TwistSpec | None,
    dims: Mapping[str, int],
    slices: Mapping[str, Sequence[np.ndarray]] | None = None,
) -> TwistedRep:
    """Validated representation; missing arrows get zero maps."""
    if twist is None:
        twist = TwistSpec.trivial(quiver)
    slices = slices or {}
    for name in slices:
        if name not in {a.name for a in quiver.arrows}:
            raise ShapeMismatch(f"slices given for unknown arrow {name!r}")
    normalized = {a: tuple(np.asarray(s, dtype=complex) for s in mats) for a, mats in slices.items()}
    return TwistedRep(quiver, twist, dims, normalized)


def _same_twist(t1: TwistSpec, t2: TwistSpec, arrows) -> bool:
    for a in arrows:
        if t1.rank(a.name) != t2.rank(a.name):
            return False
        if not np.allclose(t1.metric(a.name), t2.metric(a.name), atol=1e-12):
            return False
    return True


def direct_sum(r1: TwistedRep, r2: TwistedRep) -> TwistedRep:
    """Blockwise direct sum over a common quiver and twist."""
    if r1.quiver != r2.quiver or not _same_twist(r1.twist, r2.twist, r1.quiver.arrows):
        raise QuiverMismatch("direct sum needs identical quiver and twist")
    dims = {v: r1.dims[v] + r2.dims[v] for v in r1.quiver.vertices}
    slices = {}
    for a in r1.quiver.arrows:
        mats = []
        for s1, s2 in zip(r1.slices[a.name], r2.slices[a.name]):
            block = np.zeros((dims[a.head], dims[a.tail]), dtype=complex)
            block[: s1.shape[0], : s1.shape[1]] = s1
            block[s1.shape[0]:, s1.shape[1]:] = s2
            mats.append(block)
        slices[a.name] = tuple(mats)
    return TwistedRep(r1.quiver, r1.twist, dims, slices)


def tensor_product(r1: TwistedRep, r2: TwistedRep) -> TwistedRep:
    """Tensor product over a shared vertex set.

    The merged quiver keeps the common vertices and takes both arrow sets,
    namespaced ``left:`` / ``right:``.  Vertex spaces multiply; an arrow of
    the left factor acts as (slice ⊗ identity), which is well defined only
    when the right factor has equal dimensions at the arrow's endpoints
    (loops, or equal-dimension pairs) -- and symmetrically.
    """
    if set(r1.quiver.vertices) != set(r2.quiver.vertices):
        raise VertexSetMismatch("tensor product needs a shared vertex set")
    vertices = r1.quiver.vertices
    arrows = []
    mult: dict[str, int] = {}
    weight: dict[str, np.ndarray] = {}
    slices: dict[str, tuple[np.ndarray, ...]] = {}

    for a in r1.quiver.arrows:
        name = f"left:{a.name}"
        arrows.append(Arrow(name, a.tail, a.head))
        mult[name] = r1.twist.rank(a.name)
        weight[name] = r1.twist.metric(a.name)
        if r2.dims[a.tail] != r2.dims[a.head]:
            raise ShapeMismatch(
                f"arrow {a.name!r}: identity factor needs equal partner dims "
                f"({r2.dims[a.tail]} vs {r2.dims[a.head]})"
            )
        eye = np.eye(r2.dims[a.tail], dtype=complex)
        slices[name] = tuple(np.kron(s, eye) for s in r1.slices[a.name])

    for a in r2.quiver.arrows:
        name = f"right:{a.name}"
        arrows.append(Arrow(name, a.tail, a.head))
        mult[name] = r2.twist.rank(a.name)
        weight[name] = r2.twist.metric(a.name)
        if r1.dims[a.tail] != r1.dims[a.head]:
            raise ShapeMismatch(
                f"arrow {a.name!r}: identity factor needs equal partner dims "
                f"({r1.dims[a.tail]} vs {r1.dims[a.head]})"
            )
        eye = np.eye(r1.dims[a.tail], dtype=complex)
        slices[name] = tuple(np.kron(eye, s) for s in r2.slices[a.name])

    quiver = Quiver(vertices, tuple(arrows))
    dims = {v: r1.dims[v] * r2.dims[v] for v in vertices}
    return TwistedRep(quiver, TwistSpec(mult, weight), dims, slices)


# ---------------------------------------------------------------------------
# subrepresentations


@dataclass(frozen=True)
class SubrepWitness:
    """Per-vertex orthonormal bases of a candidate invariant subspace."""

    basis: Mapping[str, np.ndarray]

    def __post_init__(self):
        object.__setattr__(
            self, "basis", {v: _freeze(b) for v, b in self.basis.items()}
        )

    def dim(self, v: str) -> int:
        b = self.basis.get(v)
        return 0 if b is None else b.shape[1]

    @property
    def dims(self) -> dict[str, int]:
        return {v: b.shape[1] for v, b in self.basis.items()}

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())


def full_witness(rep: TwistedRep) -> SubrepWitness:
    return SubrepWitness({v: np.eye(rep.dims[v], dtype=complex) for v in rep.quiver.vertices})


def zero_witness(rep: TwistedRep) -> SubrepWitness:
    return SubrepWitness(
        {v: np.zeros((rep.dims[v], 0), dtype=complex) for v in rep.quiver.vertices}
    )


# leakage bound of check_subrep, also the residual bound of a splitting
SUBREP_TOL = 1e-8


def check_subrep(rep: TwistedRep, witness: SubrepWitness, tol: float = SUBREP_TOL):
    """Invariance check: every slice must map the subspace at its tail into
    the subspace at its head.  Returns (ok, max leakage norm)."""
    bases = {}
    for v in rep.quiver.vertices:
        b = witness.basis.get(v)
        if b is None:
            b = np.zeros((rep.dims[v], 0), dtype=complex)
        b = np.asarray(b, dtype=complex)
        if b.shape[0] != rep.dims[v]:
            raise ShapeMismatch(f"witness at {v!r}: ambient dimension {b.shape[0]} != {rep.dims[v]}")
        if b.shape[1] > b.shape[0]:
            raise DimensionOverflow(f"witness at {v!r} exceeds ambient dimension")
        bases[v] = b
    leakage = 0.0
    for a in rep.quiver.arrows:
        perp = np.eye(rep.dims[a.head], dtype=complex) - projector(bases[a.head])
        for s in rep.slices[a.name]:
            image = s @ bases[a.tail]
            if image.size:
                leakage = max(leakage, float(np.linalg.norm(perp @ image, ord=2)))
    return leakage <= tol, leakage


def invariant_closures(rep: TwistedRep, members: Sequence[Mapping[str, np.ndarray]]) -> list[SubrepWitness]:
    """Smallest invariant subspace containing each member's per-vertex
    vectors, one per member, in order.

    Every member's generators are first made orthonormal, the
    ``orthonormal_columns`` of each, in one stacked SVD per vertex and
    generator shape.  Then each member grows on its own: each step stacks the
    slice images Y of an arrow's tail basis onto its head basis B and keeps
    the ``orthonormal_columns`` of [B, Y] when the rank grows.  A step whose
    images already lie in range(B), with ||(1 - B B^H) Y||_F <= ``RANK_TOL``,
    skips that SVD: by Weyl's inequality sigma_{r+1}([B, Y]) <=
    ||(1 - B B^H) Y||_2 <= ``RANK_TOL``, at most the cut ``RANK_TOL`` *
    max(1, s_0), so the SVD would keep rank r = rank B and leave B
    unchanged.  This holds while s_0 < 1/``RANK_TOL``, so that B's own
    singular values (all 1) survive the cut.  A full B skips the test too.
    """
    empty = {v: np.zeros((rep.dims[v], 0), dtype=complex) for v in rep.quiver.vertices}
    starts = [dict(empty) for _ in members]
    groups: dict[tuple, list] = {}
    for i, generators in enumerate(members):
        for v, g in generators.items():
            g = np.asarray(g, dtype=complex)
            if g.ndim == 1:
                g = g[:, None]
            if g.shape[0] != rep.dims[v]:
                raise ShapeMismatch(f"generators at {v!r}: ambient dimension {g.shape[0]} != {rep.dims[v]}")
            if g.size:
                groups.setdefault((v, g.shape), []).append((i, g))
    for (v, _), entries in groups.items():
        for (i, _), basis in zip(entries, stacked_columns(np.array([g for _, g in entries]))):
            starts[i][v] = basis
    closures = []
    for bases in starts:
        changed = True
        while changed:
            changed = False
            for a in rep.quiver.arrows:
                src, head = bases[a.tail], bases[a.head]
                if src.shape[1] == 0 or head.shape[1] == head.shape[0]:
                    continue
                images = np.hstack([s @ src for s in rep.slices[a.name]])
                if np.linalg.norm(images - head @ (head.conj().T @ images)) <= RANK_TOL:
                    continue
                grown = orthonormal_columns(np.hstack([head, images]))
                if grown.shape[1] != head.shape[1]:
                    bases[a.head] = grown
                    changed = True
        closures.append(SubrepWitness(bases))
    return closures


def _adjoint(rep: TwistedRep) -> TwistedRep:
    """Arrows reversed, slices conjugate-transposed: W^perp is invariant here exactly when W is in ``rep``."""
    arrows = tuple(Arrow(a.name, a.head, a.tail) for a in rep.quiver.arrows)
    slices = {name: tuple(s.conj().T for s in mats) for name, mats in rep.slices.items()}
    return TwistedRep(Quiver(rep.quiver.vertices, arrows), rep.twist, rep.dims, slices)


def invariant_closure(rep: TwistedRep, generators: Mapping[str, np.ndarray]) -> SubrepWitness:
    """Smallest invariant subspace containing the given per-vertex vectors:
    :func:`invariant_closures` of the one member ``generators``."""
    return invariant_closures(rep, [generators])[0]


def module_map_operator(
    rep: TwistedRep, slices: Mapping[str, Sequence[np.ndarray]] | None = None
) -> np.ndarray:
    """Matrix of the linear map u -> (u_head phi - phi u_tail) over every
    arrow slice phi; its kernel is End(V).

    Columns run over the row-major entries of u_v, vertex by vertex in
    quiver order; rows over the row-major entries of each slice's image,
    arrow by arrow and slice by slice.  ``slices`` replaces the
    representation's own (same shapes), e.g. by the slices in another frame.
    """
    slices = rep.slices if slices is None else slices
    verts = rep.quiver.vertices
    offsets = np.cumsum([0] + [rep.dims[v] ** 2 for v in verts])
    col = dict(zip(verts, offsets))
    blocks = []
    for a in rep.quiver.arrows:
        nh, nt = rep.dims[a.head], rep.dims[a.tail]
        for sl in slices[a.name]:
            block = np.zeros((nh * nt, offsets[-1]), dtype=complex)
            block[:, col[a.head]: col[a.head] + nh * nh] += kron(np.eye(nh), sl.T)
            block[:, col[a.tail]: col[a.tail] + nt * nt] -= kron(sl, np.eye(nt))
            blocks.append(block)
    return np.vstack(blocks) if blocks else np.zeros((0, offsets[-1]), dtype=complex)


def invariant_complement(rep: TwistedRep, witness: SubrepWitness) -> SubrepWitness | None:
    """Invariant complement of an invariant subobject W, or None when W is
    not a direct summand.

    Solves by least squares for a module retraction p: V -> W in the
    coordinates of W's bases b_v: p_v b_v = 1 and p_head phi =
    (b_head^H phi b_tail) p_tail for every arrow slice phi.  W splits when
    the relative residual is at most ``SUBREP_TOL``; ker p is then the
    complement.  Singular values below sqrt(``SUBREP_TOL``) count as zero:
    rounding makes a nilpotent block diagonalizable, with eigenvectors
    about 1e-8 apart, and the huge retraction splitting those must fail.
    """
    verts = rep.quiver.vertices
    b = {v: witness.basis[v] for v in verts}
    shapes = [(b[v].shape[1], rep.dims[v]) for v in verts]
    # the module-map equations are homogeneous: scale them to the others
    entries = [np.abs(sl).max() for sls in rep.slices.values() for sl in sls if sl.size]
    scale = max(entries, default=0.0) or 1.0

    def equations(x):
        parts = np.split(x, np.cumsum([r * n for r, n in shapes])[:-1])
        p = {v: part.reshape(shape) for v, part, shape in zip(verts, parts, shapes)}
        rows = [p[v] @ b[v] for v in verts] + [
            (p[a.head] @ sl - b[a.head].conj().T @ sl @ b[a.tail] @ p[a.tail]) / scale
            for a in rep.quiver.arrows
            for sl in rep.slices[a.name]
        ]
        return np.concatenate([r.ravel() for r in rows]), p

    unknowns = sum(r * n for r, n in shapes)
    if unknowns == 0:
        return full_witness(rep)
    system = np.column_stack([equations(e)[0] for e in np.eye(unknowns, dtype=complex)])
    target = np.zeros(system.shape[0], dtype=complex)
    ones = np.concatenate([np.eye(r).ravel() for r, _ in shapes])
    target[: ones.size] = ones
    x = np.linalg.lstsq(system, target, rcond=np.sqrt(SUBREP_TOL))[0]
    if np.linalg.norm(system @ x - target) > SUBREP_TOL * np.linalg.norm(target):
        return None
    p = equations(x)[1]
    return SubrepWitness({v: null_space(p[v]) for v in verts})


# ---------------------------------------------------------------------------
# module action tables (trivial twists)


@dataclass(frozen=True)
class ModuleActionTable:
    """Action of basis paths on the total space, idempotents included.

    The vertex spaces sit in the total space as consecutive coordinate
    blocks following the quiver's vertex order; trivial-path actions are the
    corresponding coordinate projections.
    """

    quiver: Quiver
    max_length: int
    total_dim: int
    offsets: Mapping[str, int]
    block_dims: Mapping[str, int]
    action: Mapping[Path, np.ndarray] = field(repr=False)


def to_module(rep: TwistedRep, max_length: int = DEFAULT_MAX_PATH_LENGTH) -> ModuleActionTable:
    """Module table of a representation with trivial twists."""
    for a in rep.quiver.arrows:
        if not rep.twist.is_trivial_on(a.name):
            raise TwistedModuleUnsupported(
                f"arrow {a.name!r} carries a nontrivial twist"
            )
    offsets: dict[str, int] = {}
    pos = 0
    for v in rep.quiver.vertices:
        offsets[v] = pos
        pos += rep.dims[v]
    total = pos
    action: dict[Path, np.ndarray] = {}
    for p in basis_paths(rep.quiver, max_length):
        mat = np.zeros((total, total), dtype=complex)
        src, tgt = p.source, p.target
        block = evaluate_path(rep, p)
        mat[
            offsets[tgt]: offsets[tgt] + rep.dims[tgt],
            offsets[src]: offsets[src] + rep.dims[src],
        ] = block
        action[p] = _freeze(mat)
    return ModuleActionTable(
        rep.quiver, max_length, total, offsets, dict(rep.dims), action
    )


def from_module(table: ModuleActionTable) -> TwistedRep:
    """Inverse of :func:`to_module`; exact round trip."""
    q = table.quiver
    dims = dict(table.block_dims)
    slices = {}
    for a in q.arrows:
        p = Path(q, (a.name,))
        mat = table.action[p]
        oh, ot = table.offsets[a.head], table.offsets[a.tail]
        block = mat[oh: oh + dims[a.head], ot: ot + dims[a.tail]]
        slices[a.name] = (np.array(block),)
    return TwistedRep(q, TwistSpec.trivial(q), dims, slices)
