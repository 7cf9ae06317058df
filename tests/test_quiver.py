import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quiverforge as qf
from quiverforge.errors import (
    LengthOverflow,
    NonComposable,
    NonFiniteData,
    NonpositiveScale,
    ShapeMismatch,
    TwistedRelationUnsupported,
)
from quiverforge.gallery import chain_quiver, grid_quiver, grid_relations, kronecker_quiver
from quiverforge.quiver import (
    Path,
    PathAlgebraElement,
    Relation,
    algebra_product,
    basis_paths,
    compose_paths,
    evaluate_path,
    trivial_path,
)


def test_quiver_validation():
    with pytest.raises(ShapeMismatch):
        qf.Quiver.from_lists(["v", "v"], [])
    with pytest.raises(ShapeMismatch):
        qf.Quiver.from_lists(["v"], [("a", "v", "w")])
    with pytest.raises(ShapeMismatch):
        qf.Quiver.from_lists(["v"], [("a", "v", "v"), ("a", "v", "v")])


def test_acyclicity():
    assert chain_quiver(3).is_acyclic()
    assert not qf.gallery.loop_quiver().is_acyclic()
    assert grid_quiver(3, 3).is_acyclic()


# ---------------------------------------------------------------------------
# path composition


def test_compose_identity_case():
    q = chain_quiver(2)
    p = Path(q, ("a0",))
    e = trivial_path(q, "0")
    assert compose_paths(p, e) == p
    e1 = trivial_path(q, "1")
    assert compose_paths(e1, p) == p


def test_compose_chain_quiver():
    # chain 0 -> 1 -> 2: composing the later arrow after the earlier one
    q = chain_quiver(2)
    p = compose_paths(Path(q, ("a1",)), Path(q, ("a0",)))
    assert p.arrows == ("a1", "a0")
    assert p.source == "0" and p.target == "2"


def test_compose_endpoint_mismatch():
    q = kronecker_quiver(2)  # a0, a1 both 1 -> 2
    with pytest.raises(NonComposable):
        compose_paths(Path(q, ("a0",)), Path(q, ("a1",)))


def test_path_adjacency_validated():
    q = kronecker_quiver(2)
    with pytest.raises(NonComposable):
        Path(q, ("a0", "a1"))


# ---------------------------------------------------------------------------
# truncated path algebra


def test_idempotent_products():
    q = kronecker_quiver(1)
    ev = PathAlgebraElement.idempotent(q, "1")
    ew = PathAlgebraElement.idempotent(q, "2")
    assert algebra_product(ev, ev).terms == ev.terms
    assert algebra_product(ev, ew).terms == {}


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_unit_law(seed):
    q = grid_quiver(2, 2)
    rng = np.random.default_rng(seed)
    paths = basis_paths(q, 2)
    picks = rng.choice(len(paths), size=3, replace=False)
    terms = {paths[i]: complex(rng.normal(), rng.normal()) for i in picks}
    x = PathAlgebraElement(q, 8, terms)
    one = PathAlgebraElement.unit(q, 8)
    assert algebra_product(one, x).terms == x.terms
    assert algebra_product(x, one).terms == x.terms


def test_associativity_on_basis_paths():
    q = grid_quiver(2, 2)
    paths = basis_paths(q, 2)
    L = 6
    for p in paths:
        for r in paths:
            for s in paths:
                if len(p) + len(r) + len(s) > L:
                    continue
                ep = PathAlgebraElement.from_path(p, max_length=L)
                er = PathAlgebraElement.from_path(r, max_length=L)
                es = PathAlgebraElement.from_path(s, max_length=L)
                left = algebra_product(algebra_product(ep, er), es)
                right = algebra_product(ep, algebra_product(er, es))
                assert left.terms == right.terms


def test_length_overflow():
    q = qf.gallery.loop_quiver()
    loop = PathAlgebraElement.from_path(Path(q, ("phi",)), max_length=1)
    with pytest.raises(LengthOverflow):
        algebra_product(loop, loop)


def test_acyclic_basis_complete_at_arrow_count():
    for q in (chain_quiver(3), grid_quiver(2, 3), grid_quiver(3, 3, triangular=True)):
        assert q.is_acyclic()
        n = len(q.arrows)
        assert len(basis_paths(q, n)) == len(basis_paths(q, n + 3))


# ---------------------------------------------------------------------------
# path evaluation


def test_evaluate_empty_path_identity():
    q = chain_quiver(1)
    rep = qf.build_rep(q, None, {"0": 3, "1": 2}, {"a0": [np.ones((2, 3))]})
    assert np.array_equal(evaluate_path(rep, trivial_path(q, "0")), np.eye(3))


def test_evaluate_scalar_chain():
    q = chain_quiver(2)
    rep = qf.build_rep(
        q,
        None,
        {"0": 1, "1": 1, "2": 1},
        {"a0": [np.array([[3.0]])], "a1": [np.array([[2.0]])]},
    )
    p = Path(q, ("a1", "a0"))
    assert evaluate_path(rep, p)[0, 0] == pytest.approx(6.0)


def _brute_force_path(rep, path):
    """Independent evaluation: explicit loop over twist multi-indices."""
    q = rep.quiver
    m = [rep.twist.rank(a) for a in path.arrows]
    src = path.source
    n_src = rep.dims[src]
    tails = list(reversed(path.arrows))  # applied first ... last
    cols = []
    import itertools

    # column index order: (source index, k_first_applied, ..., k_last_applied)
    for i in range(n_src):
        for ks in itertools.product(*[range(rep.twist.rank(a)) for a in tails]):
            vec = np.zeros(n_src, dtype=complex)
            vec[i] = 1.0
            for a, k in zip(tails, ks):
                vec = rep.slices[a][k] @ vec
            cols.append(vec)
    return np.stack(cols, axis=1)


def test_twist_inverts_each_weight_once():
    q = np.array([[2.0, 0.3j], [-0.3j, 1.0]])
    twist = qf.TwistSpec({"a0": 2}, {"a0": q})
    assert np.array_equal(twist.metric_inv("a0"), np.linalg.inv(q.astype(complex)))
    assert twist.metric_inv("a0") is twist.metric_inv("a0")
    assert not twist.metric("a0").flags.writeable and not twist.metric_inv("a0").flags.writeable
    # an arrow without twist data has the rank-one identity weight
    assert np.array_equal(twist.metric_inv("other"), np.eye(1))
    # and a multiplicity without a weight the identity of its rank (this
    # raised KeyError)
    bare = qf.TwistSpec({"a0": 2}, {})
    assert np.array_equal(bare.metric("a0"), np.eye(2)) and np.array_equal(bare.metric_inv("a0"), np.eye(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_twist_refuses_non_finite_weight(bad):
    # NaN compares False, so the definiteness check alone would accept it
    with pytest.raises(NonFiniteData):
        qf.TwistSpec({"a0": 2}, {"a0": np.array([[1.0, 0.0], [0.0, bad]])})


def test_evaluate_against_brute_force_oracle(rng):
    q = chain_quiver(2)
    twist = qf.TwistSpec(
        {"a0": 2, "a1": 1},
        {"a0": np.eye(2, dtype=complex), "a1": np.eye(1, dtype=complex)},
    )
    dims = {"0": 2, "1": 2, "2": 2}
    slices = {
        "a0": [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2)],
        "a1": [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))],
    }
    rep = qf.build_rep(q, twist, dims, slices)
    p = Path(q, ("a1", "a0"))
    got = evaluate_path(rep, p)
    want = _brute_force_path(rep, p)
    assert got.shape == (2, 4)
    assert np.abs(got - want).max() < 1e-12


def test_evaluate_functorial(rng):
    # evaluate(compose(p, r)) equals evaluate(p) applied after evaluate(r),
    # with the twist slots of r preceding those of p
    q = chain_quiver(3)
    twist = qf.TwistSpec(
        {"a0": 2, "a1": 1, "a2": 2},
        {"a0": np.eye(2, dtype=complex), "a1": np.eye(1, dtype=complex), "a2": np.eye(2, dtype=complex)},
    )
    dims = {str(i): 2 for i in range(4)}
    slices = {
        a.name: [
            rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            for _ in range(twist.rank(a.name))
        ]
        for a in q.arrows
    }
    rep = qf.build_rep(q, twist, dims, slices)
    r = Path(q, ("a1", "a0"))
    p = Path(q, ("a2",))
    full = evaluate_path(rep, compose_paths(p, r))
    mp = evaluate_path(rep, p)  # 2 x (2 source * 2 twist)
    mr = evaluate_path(rep, r)  # 2 x (2 source * 2 twist * 1 twist)
    # column of the composite at (source i, k_a0, k_a1, k_a2) is the a2-slice
    # k_a2 applied to r's column at (i, k_a0, k_a1)
    mp_t = mp.reshape(2, 2, 2)  # rows x source x k_a2
    for col in range(mr.shape[1]):
        for k2 in range(2):
            got_col = full[:, col * 2 + k2]
            want_col = mp_t[:, :, k2] @ mr[:, col]
            assert np.abs(got_col - want_col).max() < 1e-12


# ---------------------------------------------------------------------------
# relations


def _grid_rep(q, x, y):
    """All a1 arrows act by matrix x, all a2 arrows by y (1-dim vertices)."""
    dims = {v: 1 for v in q.vertices}
    slices = {}
    for a in q.arrows:
        val = x if a.name.startswith("a1") else y
        slices[a.name] = [np.array([[val]], dtype=complex)]
    return qf.build_rep(q, None, dims, slices)


def test_grid_relations_commuting():
    q = grid_quiver(3, 3)
    rels = grid_relations(q)
    assert rels
    rep = _grid_rep(q, 2.0, 3.0)
    reports = qf.check_relations(rep, rels)
    assert all(r.residual == 0.0 for r in reports)


def test_grid_relations_zero_maps():
    q = grid_quiver(2, 2)
    rep = qf.build_rep(q, None, {v: 1 for v in q.vertices}, {})
    reports = qf.check_relations(rep, grid_relations(q))
    assert all(r.residual == 0.0 for r in reports)


def test_square_relation_scalar_residual():
    # one square with scalars x, y on one route and z, w on the other:
    # residual is |x*y - z*w| by hand
    q = qf.Quiver.from_lists(
        ["s", "p", "q", "t"],
        [("x", "s", "p"), ("y", "p", "t"), ("z", "s", "q"), ("w", "q", "t")],
    )
    vals = {"x": 2.0, "y": 1.5, "z": 0.5, "w": 4.0}
    rep = qf.build_rep(
        q, None, {v: 1 for v in q.vertices},
        {a: [np.array([[vals[a]]])] for a in vals},
    )
    rel = Relation(((1.0, Path(q, ("y", "x"))), (-1.0, Path(q, ("w", "z")))))
    (report,) = qf.check_relations(rep, [rel])
    assert report.residual == pytest.approx(abs(2.0 * 1.5 - 0.5 * 4.0))


@pytest.mark.parametrize("tol, error", [(np.nan, NonFiniteData), (np.inf, NonFiniteData), (-1.0, NonpositiveScale)])
def test_check_relations_refuses_invalid_tolerance(tol, error):
    # a NaN tolerance would call every relation violated, an infinite one
    # every relation satisfied
    q = grid_quiver(2, 2)
    rep = _grid_rep(q, 2.0, 3.0)
    with pytest.raises(error):
        qf.check_relations(rep, grid_relations(q), tol=tol)


def test_twisted_relation_refused():
    q = kronecker_quiver(1)
    twist = qf.TwistSpec({"a0": 2}, {"a0": np.eye(2, dtype=complex)})
    rep = qf.build_rep(q, twist, {"1": 1, "2": 1}, {"a0": [np.eye(1), np.eye(1)]})
    rel = Relation(((1.0, Path(q, ("a0",))),))
    with pytest.raises(TwistedRelationUnsupported):
        qf.check_relations(rep, [rel])


def test_sigma_from_multiplicities():
    from quiverforge.gallery import sigma_from_multiplicities

    sigma = sigma_from_multiplicities({"0,0": 1, "1,0": 2, "0,1": 2, "1,1": 4})
    assert sigma == {"0,0": 1.0, "1,0": 2.0, "0,1": 2.0, "1,1": 4.0}
    # usable directly as stability weights
    params = qf.StabilityParams(sigma, {v: 0.0 for v in sigma})
    assert params.sigma["1,1"] == 4.0
