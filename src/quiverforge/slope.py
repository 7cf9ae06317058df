"""Slope calculus and parameter admissibility.

The weighted degree of an object with per-vertex degrees and ranks is
deg = sum_v (sigma_v deg_v - tau_v rk_v); the slope divides by
sum_v sigma_v rk_v.  At point scale every degree is zero, so admissibility
reduces to sum_v tau_v dim_v = 0 and verdict signs are independent of sigma.

This module sits below both the flow and the stability verdicts: the flow
reads slopes off its own limit direction to certify divergence, and both
read :func:`dimension_grid`, the degree and slope of every proper dimension
vector.  :func:`degree_and_slope`, :func:`admissibility` and
:func:`dimension_grid` refuse parameters that miss a vertex,
:func:`dimension_grid` also parameters that name a vertex the quiver does
not have (a witness's degree sees only the witness's own vertices), and
:func:`reparameterize` refuses sigma and tau that differ in one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import InadmissibleParameters, NonpositiveScale, QuiverMismatch, ShapeMismatch, ZeroTotalRank
from .reps import SubrepWitness, TwistedRep

SLOPE_TOL = 1e-9
# most dimension vectors dimension_grid enumerates
BOUND_GRID_ROWS = 1 << 18


@dataclass(frozen=True)
class StabilityParams:
    sigma: Mapping[str, float]
    tau: Mapping[str, float]

    def __post_init__(self):
        sigma = {v: float(s) for v, s in self.sigma.items()}
        tau = {v: float(t) for v, t in self.tau.items()}
        # comparisons with NaN are all False, so a non-finite value would
        # slip through every later sign and admissibility test
        for name, values in (("sigma", sigma), ("tau", tau)):
            for v, x in values.items():
                if not math.isfinite(x):
                    raise InadmissibleParameters(f"{name}[{v!r}] must be finite, got {x}")
        for v, s in sigma.items():
            if s <= 0:
                raise NonpositiveScale(f"sigma[{v!r}] must be positive, got {s}")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "tau", tau)


@dataclass(frozen=True)
class DegreeData:
    """Per-vertex degree/rank data; at point scale degrees vanish and ranks
    are the vertex dimensions."""

    degree: Mapping[str, float]
    rank: Mapping[str, int]

    @classmethod
    def point_scale(cls, dims: Mapping[str, int]) -> "DegreeData":
        return cls({v: 0.0 for v in dims}, {v: int(d) for v, d in dims.items()})


def _as_degree_data(data) -> DegreeData:
    if isinstance(data, DegreeData):
        return data
    if isinstance(data, TwistedRep):
        return DegreeData.point_scale(data.dims)
    if isinstance(data, SubrepWitness):
        return DegreeData.point_scale(data.dims)
    raise ShapeMismatch(f"cannot read degree data from {type(data).__name__}")


def _check_vertices(vertices, params: StabilityParams, exact: bool = False) -> None:
    """Raise :class:`QuiverMismatch` naming the first vertex that sigma or
    tau has no value for, and with ``exact`` (``vertices`` is then the
    quiver's vertex set) the first one they name that is not a vertex."""
    for name, values in (("sigma", params.sigma), ("tau", params.tau)):
        for v in vertices:
            if v not in values:
                raise QuiverMismatch(f"vertex {v!r} is missing from {name}")
        for v in values if exact else ():
            if v not in vertices:
                raise QuiverMismatch(f"{name} at {v!r}: not a vertex of the quiver")


def degree_and_slope(data, params: StabilityParams) -> tuple[float, float]:
    """Weighted degree and slope of a representation or degree table."""
    dd = _as_degree_data(data)
    _check_vertices(dd.rank, params)
    deg = sum(
        params.sigma[v] * dd.degree[v] - params.tau[v] * dd.rank[v] for v in dd.rank
    )
    denom = sum(params.sigma[v] * dd.rank[v] for v in dd.rank)
    if denom == 0:
        raise ZeroTotalRank("no vertex with positive rank")
    return float(deg), float(deg / denom)


def admissibility(data, params: StabilityParams, tol: float = 1e-12) -> bool:
    """Whether the weighted degree vanishes (necessary for any solution)."""
    dd = _as_degree_data(data)
    _check_vertices(dd.rank, params)
    deg = sum(
        params.sigma[v] * dd.degree[v] - params.tau[v] * dd.rank[v] for v in dd.rank
    )
    scale = 1.0 + sum(
        abs(params.sigma[v] * dd.degree[v]) + abs(params.tau[v] * dd.rank[v])
        for v in dd.rank
    )
    return abs(deg) <= tol * scale


def dimension_grid(rep: TwistedRep, params: StabilityParams) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Every proper dimension vector of ``rep`` (one row per vector, columns
    in quiver vertex order; neither zero nor ``rep.dims``) with its point-scale
    degree and slope, or None when there are more than ``BOUND_GRID_ROWS``
    vectors.

    Degree and slope are accumulated vertex by vertex in quiver order with
    the float operations of :func:`degree_and_slope` (sigma_v * 0.0 - tau_v
    d_v and sigma_v d_v, summed left to right), so a subobject's slope equals
    the entry of its dimension vector bit for bit, and no subobject's slope
    exceeds the largest entry.  Refuses (:class:`QuiverMismatch`) sigma or
    tau that miss a vertex of the quiver or name one it does not have."""
    verts = rep.quiver.vertices
    _check_vertices(verts, params, exact=True)
    if math.prod(rep.dims[v] + 1 for v in verts) > BOUND_GRID_ROWS:
        return None
    grid = np.indices([rep.dims[v] + 1 for v in verts]).reshape(len(verts), -1).T
    size = grid.sum(axis=1)
    grid = grid[(size > 0) & (size < rep.total_dim)]
    deg, denom = np.zeros(len(grid)), np.zeros(len(grid))
    for v, d in zip(verts, grid.T):
        deg = deg + (params.sigma[v] * 0.0 - params.tau[v] * d)
        denom = denom + params.sigma[v] * d
    return grid, deg, deg / denom


def reparameterize(params: StabilityParams, c: float, d: float) -> tuple[StabilityParams, float]:
    """Transformed parameters sigma' = c sigma, tau' = c (tau + d sigma).

    Returns the new parameters together with the section rescale factor
    sqrt(c) the caller must apply to the arrow maps for the equations to
    transform covariantly.  Slopes shift by exactly -d.  Refuses sigma and
    tau with different vertices (:class:`QuiverMismatch`).
    """
    if c <= 0:
        raise NonpositiveScale(f"scale must be positive, got {c}")
    _check_vertices({**params.sigma, **params.tau}, params)
    sigma = {v: c * s for v, s in params.sigma.items()}
    tau = {v: c * (params.tau[v] + d * params.sigma[v]) for v in params.sigma}
    return StabilityParams(sigma, tau), float(np.sqrt(c))
