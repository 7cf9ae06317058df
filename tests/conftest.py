import numpy as np
import pytest

import quiverforge as qf
from quiverforge.gallery import kronecker_quiver, loop_quiver

# one pass/fail line per acceptance criterion, printed at session end
ACCEPTANCE_RESULTS: dict[str, str] = {}


def record_criterion(name: str, passed: bool):
    ACCEPTANCE_RESULTS[name] = "PASS" if passed else "FAIL"
    assert passed, f"acceptance criterion {name} failed"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(ACCEPTANCE_RESULTS, key=lambda s: [int(p) if p.isdigit() else p for p in s.split(".")]):
        terminalreporter.write_line(f"criterion {name}: {ACCEPTANCE_RESULTS[name]}")


# ---------------------------------------------------------------------------
# shared instance builders


def kronecker_rep(phi=1.0, n_arrows=1, dims=(1, 1)):
    q = kronecker_quiver(n_arrows)
    phis = np.atleast_1d(phi)
    slices = {
        f"a{i}": [np.asarray([[phis[i] if phis.size > 1 else phis[0]]], dtype=complex)]
        for i in range(n_arrows)
    }
    if dims != (1, 1):
        rng = np.random.default_rng(0)
        slices = {
            f"a{i}": [rng.normal(size=(dims[1], dims[0])) + 0j] for i in range(n_arrows)
        }
    return qf.build_rep(q, None, {"1": dims[0], "2": dims[1]}, slices)


def kronecker_params(t=1.0, sigma=(1.0, 1.0)):
    return qf.StabilityParams(
        {"1": sigma[0], "2": sigma[1]}, {"1": -t, "2": t}
    )


def jordan_rep():
    q = loop_quiver("phi")
    return qf.build_rep(q, None, {"v": 2}, {"phi": [np.array([[0.0, 1.0], [0.0, 0.0]])]})


def jordan_params():
    return qf.StabilityParams({"v": 1.0}, {"v": 0.0})


def two_arrow_kron_rep(phis):
    """Dims (1,1) over the 2-arrow Kronecker quiver; slice pair ``phis``."""
    q = kronecker_quiver(2)
    return qf.build_rep(
        q,
        None,
        {"1": 1, "2": 1},
        {"a0": [np.array([[phis[0]]], dtype=complex)], "a1": [np.array([[phis[1]]], dtype=complex)]},
    )


def random_two_vertex_instance(seed, max_dim=3):
    """Seeded random admissible point instance on a 2-vertex quiver."""
    rng = np.random.default_rng(seed)
    d1, d2 = int(rng.integers(1, max_dim + 1)), int(rng.integers(1, max_dim + 1))
    arrows = [("a", "1", "2")]
    if rng.random() < 0.6:
        arrows.append(("b", "2", "1"))
    if rng.random() < 0.3:
        arrows.append(("c", "1", "1"))
    q = qf.Quiver.from_lists(["1", "2"], arrows)
    slices = {}
    dims = {"1": d1, "2": d2}
    for name, t, h in arrows:
        r, c = dims[h], dims[t]
        slices[name] = [rng.normal(size=(r, c)) + 1j * rng.normal(size=(r, c))]
    rep = qf.build_rep(q, None, dims, slices)
    t1 = float(rng.normal())
    tau = {"1": t1, "2": -t1 * d1 / d2}
    return rep, tau


def random_onedim_instance(seed, integer_tau=False):
    """Random one-dimensional representation on 2-4 vertices.  With
    ``integer_tau`` every slice is nonzero and tau is integral, which makes
    subsets of equal slope common."""
    rng = np.random.default_rng(seed)
    nv = int(rng.integers(2, 5))
    verts = [str(i) for i in range(nv)]
    arrows = []
    for i in range(nv):
        for j in range(nv):
            if i != j and rng.random() < 0.4:
                arrows.append((f"a{i}{j}", str(i), str(j)))
    if not arrows:
        return None
    q = qf.Quiver.from_lists(verts, arrows)
    slices = {}
    for name, _, _ in arrows:
        val = rng.normal() + 1j * rng.normal() if integer_tau or rng.random() < 0.8 else 0.0
        slices[name] = [np.array([[val]])]
    rep = qf.build_rep(q, None, {v: 1 for v in verts}, slices)
    if integer_tau:
        taus = [float(t) for t in rng.integers(-2, 3, size=nv - 1)]
        taus.append(-sum(taus))
    else:
        taus = rng.normal(size=nv)
        taus -= taus.mean()
    params = qf.StabilityParams(
        {v: 1.0 for v in verts}, {v: float(t) for v, t in zip(verts, taus)}
    )
    return rep, params


def h_selfadjoint_direction(metric, rng, scale=1.0):
    """Random direction that is selfadjoint with respect to the given metric."""
    from quiverforge._linalg import random_hermitian

    out = {}
    for v, h in metric.h.items():
        w, u = np.linalg.eigh(h)
        hs = (u * np.sqrt(w)) @ u.conj().T
        his = (u / np.sqrt(w)) @ u.conj().T
        out[v] = his @ random_hermitian(rng, h.shape[0], scale) @ hs
    return out


def geodesic_energy(rep, metric, params, direction, eps):
    """Kempf-Ness energy along the metric geodesic H e^{eps * direction}."""
    from quiverforge._linalg import herm

    trial = {}
    for v, h in metric.h.items():
        w, u = np.linalg.eigh(h)
        hs = (u * np.sqrt(w)) @ u.conj().T
        his = (u / np.sqrt(w)) @ u.conj().T
        tilde = herm(hs @ direction[v] @ his)
        tw, tu = np.linalg.eigh(tilde)
        trial[v] = herm(hs @ ((tu * np.exp(eps * tw)) @ tu.conj().T) @ hs)
    return qf.kempf_ness_metric(rep, qf.MetricState(trial), params)


def random_smooth_field(rng, n, modes=4, scale=1.0, complex_valued=False):
    spec = np.zeros((n, n), dtype=complex)
    for i in range(-modes, modes + 1):
        for j in range(-modes, modes + 1):
            spec[i, j] = rng.normal() + 1j * rng.normal()
    f = np.fft.ifft2(spec)
    f = f / np.abs(f).max() * scale
    return f if complex_valued else np.real(f)


@pytest.fixture
def rng():
    return np.random.default_rng(2026)
