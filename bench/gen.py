"""Seeded input generators for the three benchmark workloads.

Every input is built from a *base* draw, fixed by its position in the
workload, and a *symmetry* drawn from the run seed: a random unitary change
of basis at every vertex or a phase (point representations), a translation
of the torus (bump weights), or a common factor on every equation
(constant-weight systems).  Each is an exact symmetry of its problem, so a
new seed changes the input numbers but not the verdicts, and the amount of
work only through rounding (a divergent flow's line search may take a few
more or fewer steps in another frame); runs with different seeds measure
the same work and stay comparable.

The generators return plain library objects or write instance files;
nothing here times or checks.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

import quiverforge as qf
from quiverforge import io as qio
from quiverforge.gallery import chain_quiver, grid_quiver, grid_relations, kronecker_quiver, two_way_quiver

# sigma vectors of acceptance criterion 4
CRITERION4_SIGMAS = ({"1": 1.0, "2": 1.0}, {"1": 2.0, "2": 3.0}, {"1": 5.0, "2": 1.0})
THREE_VERTEX_SIGMAS = (
    {"1": 1.0, "2": 1.0, "3": 1.0},
    {"1": 2.0, "2": 3.0, "3": 1.0},
    {"1": 5.0, "2": 1.0, "3": 2.0},
)
# the criterion-4 family is drawn from base seeds 5000 + k, as in the test-suite
CRITERION4_BASE = 5000
TWISTED_BASE = 6000
THREE_VERTEX_BASE = 6500


@dataclass(frozen=True)
class PointCase:
    """One point-scale decision: a representation and its parameters."""

    name: str  # <family>-<k>, family criterion4 | twisted | three-vertex
    rep: qf.TwistedRep
    params: qf.StabilityParams


def _gaussian(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def criterion4_instance(base_seed: int):
    """The acceptance suite's random two-vertex instance for ``base_seed``
    (same draws in the same order), returned as (rep, tau)."""
    rng = np.random.default_rng(base_seed)
    d1, d2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    arrows = [("a", "1", "2")]
    if rng.random() < 0.6:
        arrows.append(("b", "2", "1"))
    if rng.random() < 0.3:
        arrows.append(("c", "1", "1"))
    q = qf.Quiver.from_lists(["1", "2"], arrows)
    dims = {"1": d1, "2": d2}
    slices = {}
    for name, t, h in arrows:
        r, c = dims[h], dims[t]
        slices[name] = [rng.normal(size=(r, c)) + 1j * rng.normal(size=(r, c))]
    rep = qf.build_rep(q, None, dims, slices)
    t1 = float(rng.normal())
    return rep, {"1": t1, "2": -t1 * d1 / d2}


def twisted_instance(base_seed: int):
    """Two vertices, arrow 1 -> 2 of multiplicity 2 with a random HPD twist
    weight, an optional plain back arrow."""
    rng = np.random.default_rng(base_seed)
    d1, d2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    arrows = [("a", "1", "2")]
    if rng.random() < 0.5:
        arrows.append(("b", "2", "1"))
    q = qf.Quiver.from_lists(["1", "2"], arrows)
    g = _gaussian(rng, (2, 2))
    weight = g @ g.conj().T + 0.5 * np.eye(2)
    twist = qf.TwistSpec({"a": 2, **{n: 1 for n, _, _ in arrows[1:]}},
                         {"a": weight, **{n: np.eye(1, dtype=complex) for n, _, _ in arrows[1:]}})
    dims = {"1": d1, "2": d2}
    slices = {"a": [_gaussian(rng, (d2, d1)) for _ in range(2)]}
    for name, t, h in arrows[1:]:
        slices[name] = [_gaussian(rng, (dims[h], dims[t]))]
    rep = qf.build_rep(q, twist, dims, slices)
    t1 = float(rng.normal())
    return rep, {"1": t1, "2": -t1 * d1 / d2}


def three_vertex_instance(base_seed: int):
    """Vertices 1, 2, 3 with arrows 1 -> 2 -> 3 and an optional arrow
    3 -> 1 closing the cycle; dims 1-2."""
    rng = np.random.default_rng(base_seed)
    dims = {v: int(rng.integers(1, 3)) for v in ("1", "2", "3")}
    arrows = [("a", "1", "2"), ("b", "2", "3")]
    if rng.random() < 0.5:
        arrows.append(("c", "3", "1"))
    q = qf.Quiver.from_lists(["1", "2", "3"], arrows)
    slices = {name: [_gaussian(rng, (dims[h], dims[t]))] for name, t, h in arrows}
    rep = qf.build_rep(q, None, dims, slices)
    t1, t2 = float(rng.normal()), float(rng.normal())
    return rep, {"1": t1, "2": t2, "3": -(t1 * dims["1"] + t2 * dims["2"]) / dims["3"]}


def random_unitary(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(_gaussian(rng, (n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def reframe(rep: qf.TwistedRep, rng) -> qf.TwistedRep:
    """The same representation in a random unitary frame at every vertex:
    each slice phi becomes U_head phi U_tail^*.  Unitary base change is an
    isometry of the standard metrics, so the flow's iterates, the verdict
    and every slope are unchanged."""
    frames = {v: random_unitary(rng, rep.dims[v]) for v in rep.quiver.vertices}
    slices = {
        a.name: [frames[a.head] @ s @ frames[a.tail].conj().T for s in rep.slices[a.name]]
        for a in rep.quiver.arrows
    }
    return qf.build_rep(rep.quiver, rep.twist, dict(rep.dims), slices)


# one pass of the point sweep: mostly criterion-4 instances in their natural
# mix of stable and unstable, plus a minority of twisted and three-vertex ones
POINT_PASS = (
    [("criterion4", k) for k in range(20)]
    + [("twisted", k) for k in range(2)]
    + [("three-vertex", k) for k in range(2)]
)


def point_pass(seed: int) -> list[PointCase]:
    rng = np.random.default_rng([seed, 1])
    cases = []
    for family, k in POINT_PASS:
        if family == "criterion4":
            rep, tau = criterion4_instance(CRITERION4_BASE + k)
            sigma = CRITERION4_SIGMAS[k % 3]
        elif family == "twisted":
            rep, tau = twisted_instance(TWISTED_BASE + k)
            sigma = CRITERION4_SIGMAS[k % 3]
        else:
            rep, tau = three_vertex_instance(THREE_VERTEX_BASE + k)
            sigma = THREE_VERTEX_SIGMAS[k % 3]
        cases.append(PointCase(f"{family}-{k}", reframe(rep, rng), qf.StabilityParams(sigma, tau)))
    return cases


# ---------------------------------------------------------------------------
# torus systems

VORTEX_TOL = 1e-8
TORUS_CLASSES = ("kron_n512", "chain4_n128", "const_n256", "ymh_n512")


@dataclass(frozen=True)
class TorusCase:
    """One torus operation: a Newton solve, or a YMH identity evaluation
    when ``phi`` is given."""

    name: str
    system: qf.TorusSystem
    closed_form: dict | None = None  # vertex -> constant potential
    state: qf.PotentialState | None = None
    phi: dict | None = None


def _bump(center, shift, amplitude=1.0, width=0.4, floor=0.05):
    c = ((center[0] + shift[0]) % 1.0, (center[1] + shift[1]) % 1.0)
    return qf.WeightSpec("bump", amplitude=amplitude, width=width, center=c, floor=floor)


def smooth_field(rng, n: int, modes: int = 4, scale: float = 1.0, complex_valued: bool = False):
    """Random trigonometric polynomial of degree ``modes``, sup-normalized."""
    spec = np.zeros((n, n), dtype=complex)
    for i in range(-modes, modes + 1):
        for j in range(-modes, modes + 1):
            spec[i, j] = rng.normal() + 1j * rng.normal()
    f = np.fft.ifft2(spec)
    f = f / np.abs(f).max() * scale
    return f if complex_valued else np.real(f)


def torus_round(seed: int) -> list[TorusCase]:
    """The four torus classes.  Bump systems are translated by a random
    shift (an exact symmetry of the torus); the constant-weight system is
    rescaled by a random factor lam, which multiplies every equation by lam
    and leaves the solution unchanged."""
    rng = np.random.default_rng([seed, 2])
    shift = tuple(rng.random(2))

    t = 1.5
    kron = qf.build_torus_system(
        kronecker_quiver(1), {"1": 0, "2": 0}, {"a0": _bump((0.3, 0.6), shift)},
        qf.StabilityParams({"1": 1.0, "2": 1.0}, {"1": -t, "2": t}), 512,
    )

    chain_q = chain_quiver(3)
    verts = chain_q.vertices
    chain = qf.build_torus_system(
        chain_q, {v: 0 for v in verts},
        {f"a{i}": _bump((0.2 + 0.3 * i, 0.6 - 0.2 * i), shift) for i in range(3)},
        qf.StabilityParams({v: 1.0 for v in verts}, dict(zip(verts, (-1.5, -0.5, 0.5, 1.5)))), 128,
    )

    # degrees (1, 0): tau_1 + tau_2 = 2 pi sigma_1; the constant solution has
    # u_2 - u_1 = log(tau_2 / c) / 2 and sigma-weighted mean zero
    lam = float(rng.uniform(0.8, 1.25))
    c, tau2 = 1.0 * lam, 1.5 * lam
    const = qf.build_torus_system(
        kronecker_quiver(1), {"1": 1, "2": 0}, {"a0": c},
        qf.StabilityParams({"1": lam, "2": lam}, {"1": 2 * np.pi * lam - tau2, "2": tau2}), 256,
    )
    rho = 0.5 * np.log(tau2 / c)
    const_form = {"1": -0.5 * rho, "2": 0.5 * rho}

    n = 512
    ymh_sys = qf.build_torus_system(
        two_way_quiver(), {"1": 0, "2": 0}, {"a": 1.0, "b": 1.0},
        qf.StabilityParams({"1": 1.0, "2": 2.0}, {"1": -0.7, "2": 0.7}), n,
    )
    state = qf.PotentialState({v: smooth_field(rng, n, scale=0.8) for v in ("1", "2")})
    phi = {a: smooth_field(rng, n, complex_valued=True) for a in ("a", "b")}
    return [
        TorusCase("kron_n512", kron),
        TorusCase("chain4_n128", chain),
        TorusCase("const_n256", const, closed_form=const_form),
        TorusCase("ymh_n512", ymh_sys, state=state, phi=phi),
    ]


# ---------------------------------------------------------------------------
# CLI manifests

CLI_BASE = 7000
CLI_COMMANDS = ("check", "flow", "tensor", "relations", "vortex", "ymh")
SHIPPED = {
    # shipped instance -> {command: (exit code, report key, expected value)}
    "kronecker_stable.json": {"check": (0, "verdict", "stable"), "flow": (0, "status", "converged")},
    "jordan_nilpotent.json": {
        "check": (2, "verdict", "strictly-semistable"), "flow": (2, "status", "diverged"),
    },
    "two_way_pair.json": {"check": (0, "verdict", "stable"), "flow": (0, "status", "converged")},
    "torus_chain.json": {"vortex": (0, "status", "converged"), "ymh": (0, "satisfied", True)},
}


@dataclass(frozen=True)
class CliEntry:
    """One manifest entry with its closed-form outcome."""

    command: str
    args: dict
    code: int
    key: str | None  # report field holding the verdict (None: QVTX output)
    expected: object
    closed_form: dict | None = None  # vortex: vertex -> constant potential


def _instance_doc(rep, params, relations=None):
    doc = {
        "schema": qio.SCHEMA_TAG,
        "quiver": qio.encode_quiver(rep.quiver, rep.twist),
        "rep": qio.encode_rep(rep),
        "params": qio.encode_params(params),
    }
    if relations is not None:
        doc["relations"] = relations
    return doc


def _phase(rng) -> complex:
    return complex(np.exp(2j * np.pi * rng.random()))


def _kronecker(modulus, t, phase):
    rep = qf.build_rep(kronecker_quiver(1), None, {"1": 1, "2": 1}, {"a0": [np.array([[modulus * phase]])]})
    return rep, qf.StabilityParams({"1": 1.0, "2": 1.0}, {"1": -t, "2": t})


def _jordan(phase):
    """The nilpotent Jordan block, with a phase on its basis vectors."""
    nil = np.array([[0.0, phase], [0.0, 0.0]])
    rep = qf.build_rep(qf.Quiver.from_lists(["v"], [("phi", "v", "v")]), None, {"v": 2}, {"phi": [nil]})
    return rep, qf.StabilityParams({"v": 1.0}, {"v": 0.0})


def _polystable(moduli, t, rng):
    """Orthogonal sum of two stable Kronecker (1, 1) pieces of equal slope,
    in a random unitary frame."""
    phis = np.diag([m * _phase(rng) for m in moduli])
    rep = qf.build_rep(kronecker_quiver(1), None, {"1": 2, "2": 2}, {"a0": [phis]})
    return reframe(rep, rng), qf.StabilityParams({"1": 1.0, "2": 1.0}, {"1": -t, "2": t})


def _grid(rng, perturb: bool):
    """Commuting 2 x 3 grid: arrow a1 out of (i, j) acts by A_i and a2 by
    B_j, all diagonal in one random frame, so both composites around every
    square agree; ``perturb`` breaks one of them."""
    q = grid_quiver(2, 3)
    frame = random_unitary(rng, 2)
    diag = {key: np.diag(_gaussian(rng, 2)) for key in ("A0", "A1", "B0", "B1", "B2")}
    slices = {}
    for a in q.arrows:
        i, j = a.tail.split(",")
        d = diag[f"A{i}"] if a.name.startswith("a1") else diag[f"B{j}"]
        slices[a.name] = [frame @ d @ frame.conj().T]
    if perturb:
        name = q.arrows[0].name
        slices[name] = [slices[name][0] + 1e-3 * _gaussian(rng, (2, 2))]
    rep = qf.build_rep(q, None, {v: 2 for v in q.vertices}, slices)
    rels = [
        {"terms": [{"coeff": [float(np.real(c)), float(np.imag(c))], "path": list(p.arrows)} for c, p in r.terms]}
        for r in grid_relations(q)
    ]
    return rep, rels


def cli_manifests(seed: int, workdir: str, instance_dir: str) -> dict[str, list[CliEntry]]:
    """Write the instance files of one seed into ``workdir`` and return the
    entries of each command's manifest.  Moduli, parameters and shapes come
    from a fixed base draw; the seed picks phases, unitary frames, grid
    matrices and a rescaling of the vortex systems, none of which changes
    an entry's verdict or its amount of work."""
    base = np.random.default_rng(CLI_BASE)
    rng = np.random.default_rng([seed, 3])
    entries: dict[str, list[CliEntry]] = {c: [] for c in CLI_COMMANDS}
    count = [0]

    def write(doc) -> str:
        count[0] += 1
        path = os.path.join(workdir, f"in{count[0]:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def add(command, args, code, key, expected, closed_form=None):
        out = os.path.join(workdir, f"out{sum(map(len, entries.values())):03d}-{command}")
        entries[command].append(
            CliEntry(command, {**args, "out": out, "quiet": True}, code, key, expected, closed_form)
        )

    for k in range(6):
        t = float(base.uniform(0.5, 2.0)) * (1 if k % 2 == 0 else -1)
        path = write(_instance_doc(*_kronecker(float(base.uniform(0.5, 2.0)), t, _phase(rng))))
        stable = t > 0
        add("check", {"instance": path}, 0 if stable else 2, "verdict", "stable" if stable else "unstable")
        add("flow", {"instance": path}, 0 if stable else 2, "status", "converged" if stable else "diverged")
    for _ in range(3):
        path = write(_instance_doc(*_jordan(_phase(rng))))
        add("check", {"instance": path}, 2, "verdict", "strictly-semistable")
        add("flow", {"instance": path}, 2, "status", "diverged")
    for _ in range(3):
        moduli, t = base.uniform(0.5, 2.0, size=2), float(base.uniform(0.5, 2.0))
        path = write(_instance_doc(*_polystable(moduli, t, rng)))
        add("check", {"instance": path}, 0, "verdict", "polystable")
        add("flow", {"instance": path}, 0, "status", "converged")
    for k in range(4):
        # factor pairs of acceptance criterion 8, whose product metric solves
        # the product equations: opposite-direction Kronecker arrows with
        # tau = |phi|^2 (identity solutions), or loops at different vertices
        if k % 2 == 0:
            phi, psi = base.uniform(0.5, 2.0, size=2)
            left_rep, _ = _kronecker(phi, 0.0, _phase(rng))
            right_rep = qf.build_rep(
                qf.Quiver.from_lists(["1", "2"], [("b", "2", "1")]), None, {"1": 1, "2": 1},
                {"b": [np.array([[psi * _phase(rng)]])]},
            )
            left_tau, right_tau = {"1": -phi**2, "2": phi**2}, {"1": psi**2, "2": -psi**2}
        else:
            loops = [_gaussian(base, (2, 2)) for _ in range(2)]
            left_rep = reframe(qf.build_rep(
                qf.Quiver.from_lists(["1", "2"], [("c", "1", "1")]), None, {"1": 2, "2": 1}, {"c": [loops[0]]}
            ), rng)
            right_rep = reframe(qf.build_rep(
                qf.Quiver.from_lists(["1", "2"], [("d", "2", "2")]), None, {"1": 1, "2": 2}, {"d": [loops[1]]}
            ), rng)
            left_tau = right_tau = {"1": 0.0, "2": 0.0}
        sigma = {"1": 1.0, "2": 1.0}
        left = write(_instance_doc(left_rep, qf.StabilityParams(sigma, left_tau)))
        right = write(_instance_doc(right_rep, qf.StabilityParams(sigma, right_tau)))
        add("tensor", {"quiver": left, "rep": left, "params": left, "quiver2": right, "rep2": right, "params2": right,
                       "verify": True}, 0, "verified", True)
    for k in range(8):
        perturb = k % 2 == 1
        rep, rels = _grid(rng, perturb)
        params = qf.StabilityParams({v: 1.0 for v in rep.quiver.vertices}, {v: 0.0 for v in rep.quiver.vertices})
        path = write(_instance_doc(rep, params, relations={"relations": rels}))
        add("relations", {"instance": path}, 2 if perturb else 0, "satisfied", not perturb)
    for _ in range(4):
        # every equation multiplied by lam: same solution, same Newton steps
        t, c = float(base.uniform(1.0, 3.0)), float(base.uniform(0.5, 1.0))
        lam = float(rng.uniform(0.8, 1.25))
        doc = {
            "schema": qio.SCHEMA_TAG,
            "quiver": qio.encode_quiver(kronecker_quiver(1)),
            "params": qio.encode_params(qf.StabilityParams({"1": lam, "2": lam}, {"1": -lam * t, "2": lam * t})),
            "system": {"N": 64, "degrees": {"1": 0, "2": 0}, "weights": {"a0": lam * c}},
        }
        path = write(doc)
        u = 0.25 * np.log(t / c)
        add("vortex", {"instance": path}, 0, None, "converged", closed_form={"1": -u, "2": u})
        add("ymh", {"instance": path, "seed": int(rng.integers(1 << 30))}, 0, "satisfied", True)
    for name, outcomes in SHIPPED.items():
        path = os.path.join(instance_dir, name)
        for command, (code, key, expected) in outcomes.items():
            add(command, {"instance": path}, code, None if command == "vortex" else key, expected)
    for command, items in entries.items():
        with open(os.path.join(workdir, f"manifest-{command}.json"), "w", encoding="utf-8") as fh:
            json.dump([{"command": e.command, **e.args} for e in items], fh)
    return entries
