"""Quivers, paths, relations, and the truncated path algebra.

A quiver is a directed multigraph: vertex identifiers, arrow identifiers, and
head/tail maps.  Paths are stored target-to-source: ``arrows[0]`` is applied
last, so a path evaluates as the operator composition
``phi(arrows[0]) @ ... @ phi(arrows[-1])``.

The path algebra over a quiver with oriented cycles is infinite dimensional;
we materialize basis paths only up to a configured maximum length and raise
:class:`~quiverforge.errors.LengthOverflow` when a product crosses it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ._linalg import check_hpd
from .errors import (
    LengthOverflow,
    NonComposable,
    NonFiniteData,
    ShapeMismatch,
    TwistedRelationUnsupported,
    check_tolerance,
)

DEFAULT_MAX_PATH_LENGTH = 8


@dataclass(frozen=True)
class Arrow:
    name: str
    tail: str
    head: str


@dataclass(frozen=True)
class Quiver:
    """Finite directed multigraph with total head/tail maps."""

    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise ShapeMismatch("duplicate vertex identifiers")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise ShapeMismatch("duplicate arrow identifiers")
        vset = set(self.vertices)
        for a in self.arrows:
            if a.tail not in vset or a.head not in vset:
                raise ShapeMismatch(f"arrow {a.name!r} references unknown vertex")
        object.__setattr__(self, "_by_name", {a.name: a for a in self.arrows})

    @classmethod
    def from_lists(cls, vertices: Sequence[str], arrows: Sequence[tuple[str, str, str]]) -> "Quiver":
        """Arrows given as (name, tail, head) triples."""
        return cls(tuple(vertices), tuple(Arrow(*a) for a in arrows))

    def arrow(self, name: str) -> Arrow:
        return self._by_name[name]

    def head(self, name: str) -> str:
        return self._by_name[name].head

    def tail(self, name: str) -> str:
        return self._by_name[name].tail

    def arrows_into(self, v: str) -> tuple[Arrow, ...]:
        return tuple(a for a in self.arrows if a.head == v)

    def arrows_out_of(self, v: str) -> tuple[Arrow, ...]:
        return tuple(a for a in self.arrows if a.tail == v)

    def is_acyclic(self) -> bool:
        out = {v: [a.head for a in self.arrows_out_of(v)] for v in self.vertices}
        state: dict[str, int] = {}

        def visit(v: str) -> bool:
            state[v] = 1
            for w in out[v]:
                if state.get(w) == 1:
                    return False
                if state.get(w) is None and not visit(w):
                    return False
            state[v] = 2
            return True

        return all(visit(v) for v in self.vertices if state.get(v) is None)


@dataclass(frozen=True)
class TwistSpec:
    """Per-arrow twist data: multiplicity m_a >= 1 and a Hermitian positive
    definite m_a x m_a weight (the fiber metric of the twisting space).  An
    arrow without a weight has the identity metric, which is neither
    checked nor inverted."""

    multiplicity: Mapping[str, int]
    weight: Mapping[str, np.ndarray]

    def __post_init__(self):
        if set(self.weight) - set(self.multiplicity):
            raise ShapeMismatch("twist weight given for an arrow without a multiplicity")
        weight, inverse = {}, {}
        for a, m in self.multiplicity.items():
            if m < 1:
                raise ShapeMismatch(f"twist multiplicity for arrow {a!r} must be >= 1")
            if a not in self.weight:
                continue
            q = np.array(self.weight[a], dtype=complex)
            if q.shape != (m, m):
                raise ShapeMismatch(f"twist weight for arrow {a!r} has wrong shape")
            if not np.all(np.isfinite(q)):
                raise NonFiniteData(f"twist weight for arrow {a!r} has a non-finite entry")
            check_hpd(q)
            qinv = np.linalg.inv(q)
            q.flags.writeable = qinv.flags.writeable = False
            weight[a], inverse[a] = q, qinv
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "_inverse", inverse)

    @classmethod
    def trivial(cls, quiver: Quiver) -> "TwistSpec":
        return cls({a.name: 1 for a in quiver.arrows}, {})

    def rank(self, arrow: str) -> int:
        return int(self.multiplicity.get(arrow, 1))

    def metric(self, arrow: str) -> np.ndarray:
        q = self.weight.get(arrow)
        return np.eye(self.rank(arrow), dtype=complex) if q is None else q

    def metric_inv(self, arrow: str) -> np.ndarray:
        """Inverse of :meth:`metric`, computed once at construction."""
        q = self._inverse.get(arrow)
        return np.eye(self.rank(arrow), dtype=complex) if q is None else q

    def is_trivial_on(self, arrow: str) -> bool:
        return self.rank(arrow) == 1 and abs(self.metric(arrow)[0, 0] - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# paths


@dataclass(frozen=True)
class Path:
    """A composable arrow sequence, target-to-source; the empty path carries
    its base vertex."""

    quiver: Quiver
    arrows: tuple[str, ...]
    base: str | None = None

    def __post_init__(self):
        if not self.arrows:
            if self.base not in self.quiver.vertices:
                raise NonComposable(f"empty path needs a valid base vertex, got {self.base!r}")
            return
        q = self.quiver
        for name in self.arrows:
            if name not in q._by_name:
                raise NonComposable(f"unknown arrow {name!r}")
        for earlier, later in zip(self.arrows, self.arrows[1:]):
            if q.tail(earlier) != q.head(later):
                raise NonComposable(
                    f"arrows {earlier!r} and {later!r} do not compose"
                )

    def __len__(self) -> int:
        return len(self.arrows)

    @property
    def source(self) -> str:
        return self.base if not self.arrows else self.quiver.tail(self.arrows[-1])

    @property
    def target(self) -> str:
        return self.base if not self.arrows else self.quiver.head(self.arrows[0])


def trivial_path(quiver: Quiver, vertex: str) -> Path:
    return Path(quiver, (), vertex)


def compose_paths(p: Path, r: Path) -> Path:
    """Concatenate paths, ``p`` after ``r``."""
    if p.quiver != r.quiver:
        raise NonComposable("paths over different quivers")
    if r.target != p.source:
        raise NonComposable(
            f"cannot compose: path into {r.target!r} followed by path out of {p.source!r}"
        )
    if not p.arrows and not r.arrows:
        return trivial_path(p.quiver, p.base)
    return Path(p.quiver, p.arrows + r.arrows)


def basis_paths(quiver: Quiver, max_length: int = DEFAULT_MAX_PATH_LENGTH) -> list[Path]:
    """All paths of length <= max_length, trivial paths first, then by length."""
    out: list[Path] = [trivial_path(quiver, v) for v in quiver.vertices]
    frontier: list[Path] = [Path(quiver, (a.name,)) for a in quiver.arrows]
    length = 1
    while frontier and length <= max_length:
        out.extend(frontier)
        nxt = []
        for p in frontier:
            for a in quiver.arrows_out_of(p.target):
                nxt.append(Path(quiver, (a.name,) + p.arrows))
        frontier = nxt
        length += 1
    return out


# ---------------------------------------------------------------------------
# truncated path algebra


@dataclass(frozen=True)
class PathAlgebraElement:
    """Finite complex combination of basis paths of length <= max_length."""

    quiver: Quiver
    max_length: int = DEFAULT_MAX_PATH_LENGTH
    terms: Mapping[Path, complex] = field(default_factory=dict)

    def __post_init__(self):
        cleaned = {}
        for p, c in self.terms.items():
            if p.quiver != self.quiver:
                raise NonComposable("path over a different quiver")
            if len(p) > self.max_length:
                raise LengthOverflow(
                    f"basis path of length {len(p)} exceeds truncation {self.max_length}"
                )
            if c != 0:
                cleaned[p] = complex(c)
        object.__setattr__(self, "terms", cleaned)

    @classmethod
    def idempotent(cls, quiver: Quiver, vertex: str, max_length: int = DEFAULT_MAX_PATH_LENGTH):
        return cls(quiver, max_length, {trivial_path(quiver, vertex): 1.0})

    @classmethod
    def unit(cls, quiver: Quiver, max_length: int = DEFAULT_MAX_PATH_LENGTH):
        return cls(
            quiver,
            max_length,
            {trivial_path(quiver, v): 1.0 for v in quiver.vertices},
        )

    @classmethod
    def from_path(cls, path: Path, coeff: complex = 1.0, max_length: int = DEFAULT_MAX_PATH_LENGTH):
        return cls(path.quiver, max_length, {path: coeff})

    def __add__(self, other: "PathAlgebraElement") -> "PathAlgebraElement":
        if self.quiver != other.quiver:
            raise NonComposable("elements over different quivers")
        acc = dict(self.terms)
        for p, c in other.terms.items():
            acc[p] = acc.get(p, 0.0) + c
        return PathAlgebraElement(self.quiver, self.max_length, acc)

    def __rmul__(self, scalar: complex) -> "PathAlgebraElement":
        return PathAlgebraElement(
            self.quiver, self.max_length, {p: scalar * c for p, c in self.terms.items()}
        )


def algebra_product(x: PathAlgebraElement, y: PathAlgebraElement) -> PathAlgebraElement:
    """Bilinear extension of path concatenation; non-composable products vanish."""
    if x.quiver != y.quiver:
        raise NonComposable("elements over different quivers")
    max_length = min(x.max_length, y.max_length)
    acc: dict[Path, complex] = {}
    for p, c in x.terms.items():
        for r, d in y.terms.items():
            if r.target != p.source:
                continue
            if len(p) + len(r) > max_length:
                raise LengthOverflow(
                    f"product path of length {len(p) + len(r)} exceeds truncation {max_length}"
                )
            pr = compose_paths(p, r)
            acc[pr] = acc.get(pr, 0.0) + c * d
    return PathAlgebraElement(x.quiver, max_length, acc)


# ---------------------------------------------------------------------------
# path evaluation in a representation


def evaluate_path(rep, p: Path) -> np.ndarray:
    """Composite linear map of a path in a representation.

    For trivial twists this is the plain matrix product of the arrow maps.
    With twists, the result maps the tensor product of the source space with
    the twist spaces, ordered right-to-left along the composition (the
    first-applied arrow's twist slot comes right after the source slot, the
    last-applied arrow's slot is last), into the target space.  Columns are
    the C-order flattening of that index tuple, so the last-applied arrow's
    twist index varies fastest.
    """
    if p.quiver != rep.quiver:
        raise NonComposable("path over a different quiver")
    if not p.arrows:
        return np.eye(rep.dims[p.base], dtype=complex)
    result = np.eye(rep.dims[p.source], dtype=complex)
    # apply arrows source-to-target, appending each arrow's twist index as the
    # fastest-varying column index so the last-applied arrow ends up fastest
    for name in reversed(p.arrows):
        slices = rep.slices[name]
        m = len(slices)
        rows = slices[0].shape[0]
        cols = result.shape[1]
        t = np.empty((rows, cols, m), dtype=complex)
        for k, phik in enumerate(slices):
            t[:, :, k] = phik @ result
        result = t.reshape(rows, cols * m)
    return result


@dataclass(frozen=True)
class Relation:
    """Formal combination sum_j c_j p_j of paths sharing source and target."""

    terms: tuple[tuple[complex, Path], ...]

    def __post_init__(self):
        if not self.terms:
            raise NonComposable("relation needs at least one term")
        paths = [p for _, p in self.terms]
        q = paths[0].quiver
        src, tgt = paths[0].source, paths[0].target
        for p in paths[1:]:
            if p.quiver != q:
                raise NonComposable("relation mixes quivers")
            if p.source != src or p.target != tgt:
                raise NonComposable("relation terms must share source and target")

    @property
    def quiver(self) -> Quiver:
        return self.terms[0][1].quiver

    @property
    def source(self) -> str:
        return self.terms[0][1].source

    @property
    def target(self) -> str:
        return self.terms[0][1].target


@dataclass(frozen=True)
class RelationReport:
    residual: float
    satisfied: bool


def check_relations(rep, relations: Sequence[Relation], tol: float = 1e-10) -> list[RelationReport]:
    """Residual (max absolute entry of sum_j c_j phi(p_j)) per relation.

    Only untwisted arrows are supported: relation satisfaction is defined for
    plain arrow maps, and we refuse rather than guess an extension.
    ``tol`` must be finite and positive.
    """
    check_tolerance("tol", tol)
    reports = []
    for rel in relations:
        for _, p in rel.terms:
            for name in p.arrows:
                if not rep.twist.is_trivial_on(name):
                    raise TwistedRelationUnsupported(
                        f"arrow {name!r} carries a nontrivial twist"
                    )
        acc = np.zeros((rep.dims[rel.target], rep.dims[rel.source]), dtype=complex)
        for c, p in rel.terms:
            acc += c * evaluate_path(rep, p)
        residual = float(np.abs(acc).max(initial=0.0))
        reports.append(RelationReport(residual, residual <= tol))
    return reports
