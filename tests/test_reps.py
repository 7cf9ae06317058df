import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quiverforge as qf
from quiverforge import reps, stability
from quiverforge._linalg import complement_basis, null_space, orthonormal_columns, projector
from quiverforge.errors import (
    DimensionOverflow,
    NonFiniteData,
    QuiverMismatch,
    ShapeMismatch,
    TwistedModuleUnsupported,
    VertexSetMismatch,
)
from quiverforge.gallery import chain_quiver, kronecker_quiver, two_way_quiver
from quiverforge.quiver import Path, evaluate_path, trivial_path
from quiverforge.reps import (
    from_module,
    invariant_closure,
    invariant_complement,
    module_map_operator,
    to_module,
)
from conftest import random_two_vertex_instance, twisted_instance


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_build_rep_refuses_non_finite_slice(bad):
    with pytest.raises(NonFiniteData):
        qf.build_rep(kronecker_quiver(1), None, {"1": 1, "2": 2}, {"a0": [np.array([[1.0], [bad]])]})


def test_build_rep_no_arrows():
    q = qf.Quiver.from_lists(["v"], [])
    rep = qf.build_rep(q, None, {"v": 3}, {})
    assert rep.dims == {"v": 3}
    assert rep.total_dim == 3


def test_build_rep_two_way():
    q = two_way_quiver()
    rep = qf.build_rep(
        q, None, {"1": 1, "2": 1},
        {"a": [np.array([[1.0]])], "b": [np.array([[2.0]])]},
    )
    assert rep.slices["a"][0].shape == (1, 1)
    assert rep.slices["b"][0][0, 0] == 2.0


def test_build_rep_shape_mismatch():
    q = kronecker_quiver(1)
    with pytest.raises(ShapeMismatch, match="a0"):
        qf.build_rep(q, None, {"1": 1, "2": 1}, {"a0": [np.ones((2, 2))]})
    with pytest.raises(ShapeMismatch):
        qf.build_rep(q, None, {"1": 1, "2": 1}, {"a0": [np.ones((1, 1)), np.ones((1, 1))]})


def test_direct_sum_with_zero():
    q = kronecker_quiver(1)
    rep = qf.build_rep(q, None, {"1": 1, "2": 1}, {"a0": [np.array([[2.0]])]})
    zero = qf.build_rep(q, None, {"1": 0, "2": 0}, {})
    s = qf.direct_sum(rep, zero)
    assert s.dims == rep.dims
    assert np.array_equal(s.slices["a0"][0], rep.slices["a0"][0])


def test_direct_sum_block_structure():
    q = kronecker_quiver(1)
    r1 = qf.build_rep(q, None, {"1": 1, "2": 1}, {"a0": [np.array([[2.0]])]})
    r2 = qf.build_rep(q, None, {"1": 1, "2": 1}, {"a0": [np.array([[3.0]])]})
    s = qf.direct_sum(r1, r2)
    assert s.dims == {"1": 2, "2": 2}
    assert np.array_equal(s.slices["a0"][0], np.diag([2.0, 3.0]).astype(complex))


def test_direct_sum_quiver_mismatch():
    r1 = qf.build_rep(kronecker_quiver(1), None, {"1": 1, "2": 1}, {})
    r2 = qf.build_rep(two_way_quiver(), None, {"1": 1, "2": 1}, {})
    with pytest.raises(QuiverMismatch):
        qf.direct_sum(r1, r2)


def test_direct_sum_commutes_with_evaluation(rng):
    q = chain_quiver(2)
    dims1 = {"0": 2, "1": 1, "2": 2}
    dims2 = {"0": 1, "1": 2, "2": 1}
    mk = lambda dims: qf.build_rep(
        q,
        None,
        dims,
        {
            a.name: [rng.normal(size=(dims[a.head], dims[a.tail])) + 1j * rng.normal(size=(dims[a.head], dims[a.tail]))]
            for a in q.arrows
        },
    )
    r1, r2 = mk(dims1), mk(dims2)
    s = qf.direct_sum(r1, r2)
    p = Path(q, ("a1", "a0"))
    got = evaluate_path(s, p)
    m1 = evaluate_path(r1, p)
    m2 = evaluate_path(r2, p)
    want = np.zeros_like(got)
    want[: m1.shape[0], : m1.shape[1]] = m1
    want[m1.shape[0]:, m1.shape[1]:] = m2
    assert np.abs(got - want).max() < 1e-12


# ---------------------------------------------------------------------------
# tensor products


def test_tensor_scalar_kronecker_by_hand():
    qa = qf.Quiver.from_lists(["1", "2"], [("a", "1", "2")])
    qb = qf.Quiver.from_lists(["1", "2"], [("b", "1", "2")])
    ra = qf.build_rep(qa, None, {"1": 1, "2": 1}, {"a": [np.array([[2.0]])]})
    rb = qf.build_rep(qb, None, {"1": 1, "2": 1}, {"b": [np.array([[5.0]])]})
    prod = qf.tensor_product(ra, rb)
    assert prod.dims == {"1": 1, "2": 1}
    assert {a.name for a in prod.quiver.arrows} == {"left:a", "right:b"}
    assert prod.slices["left:a"][0][0, 0] == 2.0
    assert prod.slices["right:b"][0][0, 0] == 5.0


def test_tensor_kron_oracle(rng):
    # loop factors with dims (2,1) x (1,2): slices against an explicit loop
    ql1 = qf.Quiver.from_lists(["1", "2"], [("c", "1", "1")])
    ql2 = qf.Quiver.from_lists(["1", "2"], [("d", "2", "2")])
    A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    B = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    r1 = qf.build_rep(ql1, None, {"1": 2, "2": 1}, {"c": [A]})
    r2 = qf.build_rep(ql2, None, {"1": 1, "2": 2}, {"d": [B]})
    prod = qf.tensor_product(r1, r2)
    assert prod.dims == {"1": 2, "2": 2}
    left = prod.slices["left:c"][0]
    right = prod.slices["right:d"][0]
    # independent Kronecker loop
    want_left = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(1):
                for l in range(1):
                    want_left[i * 1 + k, j * 1 + l] = A[i, j] * (1.0 if k == l else 0.0)
    assert np.abs(left - want_left).max() < 1e-14
    want_right = np.zeros((2, 2), dtype=complex)
    for i in range(1):
        for j in range(1):
            for k in range(2):
                for l in range(2):
                    want_right[i * 2 + k, j * 2 + l] = (1.0 if i == j else 0.0) * B[k, l]
    assert np.abs(right - want_right).max() < 1e-14


def test_tensor_vertex_set_mismatch():
    r1 = qf.build_rep(kronecker_quiver(1), None, {"1": 1, "2": 1}, {})
    q3 = qf.Quiver.from_lists(["1", "3"], [])
    r2 = qf.build_rep(q3, None, {"1": 1, "3": 1}, {})
    with pytest.raises(VertexSetMismatch):
        qf.tensor_product(r1, r2)


def test_tensor_unequal_partner_dims_refused():
    qa = qf.Quiver.from_lists(["1", "2"], [("a", "1", "2")])
    qb = qf.Quiver.from_lists(["1", "2"], [])
    ra = qf.build_rep(qa, None, {"1": 1, "2": 1}, {"a": [np.eye(1)]})
    rb = qf.build_rep(qb, None, {"1": 1, "2": 2}, {})
    with pytest.raises(ShapeMismatch):
        qf.tensor_product(ra, rb)


# ---------------------------------------------------------------------------
# subrepresentations


def test_check_subrep_full_and_zero():
    q = two_way_quiver()
    rep = qf.build_rep(
        q, None, {"1": 2, "2": 2},
        {"a": [np.ones((2, 2))], "b": [np.ones((2, 2))]},
    )
    ok, leak = qf.check_subrep(rep, qf.reps.full_witness(rep))
    assert ok and leak == 0.0
    ok, leak = qf.check_subrep(rep, qf.reps.zero_witness(rep))
    assert ok and leak == 0.0


def test_check_subrep_kronecker():
    q = kronecker_quiver(1)
    rep = qf.build_rep(q, None, {"1": 1, "2": 1}, {"a0": [np.array([[1.0]])]})
    head_only = qf.SubrepWitness({"1": np.zeros((1, 0)), "2": np.eye(1)})
    tail_only = qf.SubrepWitness({"1": np.eye(1), "2": np.zeros((1, 0))})
    assert qf.check_subrep(rep, head_only)[0]
    ok, leak = qf.check_subrep(rep, tail_only)
    assert not ok and leak == pytest.approx(1.0)


def test_check_subrep_jordan():
    rep = qf.build_rep(
        qf.gallery.loop_quiver(), None, {"v": 2},
        {"phi": [np.array([[0.0, 1.0], [0.0, 0.0]])]},
    )
    w = qf.SubrepWitness({"v": np.array([[1.0], [0.0]])})
    assert qf.check_subrep(rep, w)[0]
    w2 = qf.SubrepWitness({"v": np.array([[0.0], [1.0]])})
    assert not qf.check_subrep(rep, w2)[0]


def test_check_subrep_dimension_overflow():
    q = qf.Quiver.from_lists(["v"], [])
    rep = qf.build_rep(q, None, {"v": 1}, {})
    with pytest.raises(DimensionOverflow):
        qf.check_subrep(rep, qf.SubrepWitness({"v": np.ones((1, 2))}))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_closure_is_invariant(seed):
    rng = np.random.default_rng(seed)
    q = two_way_quiver()
    dims = {"1": 3, "2": 2}
    slices = {
        a.name: [rng.normal(size=(dims[a.head], dims[a.tail])) + 1j * rng.normal(size=(dims[a.head], dims[a.tail]))]
        for a in q.arrows
    }
    rep = qf.build_rep(q, None, dims, slices)
    x = rng.normal(size=3) + 1j * rng.normal(size=3)
    w = invariant_closure(rep, {"1": x})
    ok, leak = qf.check_subrep(rep, w, tol=1e-10)
    assert ok, leak


@pytest.mark.parametrize(
    "generators, error",
    [
        ({"zz": np.ones(1)}, QuiverMismatch),
        ({"1": np.array([1.0, np.nan])}, NonFiniteData),
        ({"1": np.array([[np.inf], [0.0]])}, NonFiniteData),
        ({"1": np.ones((2, 1, 1))}, ShapeMismatch),
        ({"1": np.ones(3)}, ShapeMismatch),
    ],
    ids=["unknown-vertex", "nan", "inf", "wrong-shape", "wrong-height"],
)
def test_closure_refuses_bad_generators(generators, error):
    # bad generators are refused rather than closed, with the key or vertex
    # named; none lets a numpy error escape
    rep = qf.build_rep(kronecker_quiver(1), None, {"1": 2, "2": 1}, {"a0": [np.ones((1, 2))]})
    (key,) = generators
    with pytest.raises(error, match=repr(key)):
        invariant_closure(rep, generators)


def test_invariant_complement():
    q = kronecker_quiver(1)
    rep = qf.direct_sum(
        qf.build_rep(q, None, {"1": 1, "2": 1}, {"a0": [np.array([[1.0]])]}),
        qf.build_rep(q, None, {"1": 1, "2": 1}, {"a0": [np.array([[2.0]])]}),
    )
    w = qf.SubrepWitness({"1": np.eye(2)[:, :1], "2": np.eye(2)[:, :1]})
    comp = invariant_complement(rep, w)
    assert comp.dims == {"1": 1, "2": 1}
    assert qf.check_subrep(rep, comp)[0]
    # the kernel of a nilpotent Jordan block is not a direct summand
    jordan = qf.build_rep(
        qf.Quiver.from_lists(["v"], [("phi", "v", "v")]), None, {"v": 2},
        {"phi": [np.array([[0.0, 1.0], [0.0, 0.0]])]},
    )
    assert invariant_complement(jordan, qf.SubrepWitness({"v": np.eye(2)[:, :1]})) is None


def test_invariant_complement_is_the_kernel_of_the_retraction(monkeypatch):
    # ker p from one SVD of p spans what the complement of the row space of
    # p spanned, with the same rank cut; here on a summand that splits in a
    # general frame, so its complement is not the orthogonal one
    rng = np.random.default_rng(9)

    def gaussian(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    q = kronecker_quiver(2)
    first = qf.build_rep(q, None, {"1": 1, "2": 1}, {"a0": [gaussian(1, 1)], "a1": [gaussian(1, 1)]})
    second = qf.build_rep(q, None, {"1": 2, "2": 1}, {"a0": [gaussian(1, 2)], "a1": [gaussian(1, 2)]})
    rep = qf.direct_sum(first, second)
    frames = {v: np.eye(n) + 0.5 * gaussian(n, n) for v, n in rep.dims.items()}
    rep = qf.build_rep(q, None, rep.dims, {
        a: [frames["2"] @ s @ np.linalg.inv(frames["1"]) for s in rep.slices[a]] for a in ("a0", "a1")
    })
    w = qf.SubrepWitness({v: orthonormal_columns(f[:, :1]) for v, f in frames.items()})
    retractions = []
    monkeypatch.setattr(reps, "null_space", lambda p: retractions.append(p) or null_space(p))
    comp = invariant_complement(rep, w)
    assert len(retractions) == 2
    for p, v in zip(retractions, rep.quiver.vertices):
        old = complement_basis(orthonormal_columns(p.conj().T))
        assert np.abs(projector(comp.basis[v]) - projector(old)).max() < 1e-12
        assert np.abs(projector(comp.basis[v]) - projector(orthonormal_columns(frames[v][:, 1:]))).max() < 1e-9


def _probing_complement(rep, witness):
    """Reference for :func:`invariant_complement`: the least-squares system
    assembled column by column, by applying the retraction equations to
    every unit vector of the unknowns."""
    verts = rep.quiver.vertices
    b = {v: witness.basis[v] for v in verts}
    shapes = [(b[v].shape[1], rep.dims[v]) for v in verts]
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
        return reps.full_witness(rep)
    system = np.column_stack([equations(e)[0] for e in np.eye(unknowns, dtype=complex)])
    target = np.zeros(system.shape[0], dtype=complex)
    ones = np.concatenate([np.eye(r).ravel() for r, _ in shapes])
    target[: ones.size] = ones
    x = np.linalg.lstsq(system, target, rcond=np.sqrt(reps.SUBREP_TOL))[0]
    if np.linalg.norm(system @ x - target) > reps.SUBREP_TOL * np.linalg.norm(target):
        return None
    p = equations(x)[1]
    return qf.SubrepWitness({v: null_space(p[v]) for v in verts})


def _loop_jordan_reps():
    """One-vertex loops: nilpotent Jordan blocks of sizes 2 and 3 and the
    sums J_2(0) + J_1(0) and J_2(1) + J_1(0), each in the standard and in a
    general frame.  A loop's head and tail blocks share columns of the
    retraction system."""
    rng = np.random.default_rng(5)
    q = qf.Quiver.from_lists(["v"], [("phi", "v", "v")])
    blocks = [np.diag([1.0], 1), np.diag([1.0, 1.0], 1), np.diag([1.0, 0.0], 1), np.diag([1.0, 1.0, 0.0]) + np.diag([1.0, 0.0], 1)]
    for block in blocks:
        n = len(block)
        for frame in (np.eye(n), rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))):
            yield qf.build_rep(q, None, {"v": n}, {"phi": [frame @ block @ np.linalg.inv(frame)]})


def test_invariant_complement_matches_the_probing_reference():
    # the Kronecker-block system gives the probing construction's answers,
    # complements byte for byte, on every proper member of the oracle's
    # families of criterion-4 and twisted draws and of loop Jordan blocks,
    # and on the closure of each coordinate vector of the loops
    draws = [random_two_vertex_instance(5000 + k)[0] for k in range(20)]
    draws += [twisted_instance(6000 + k)[0] for k in range(12)]
    answers = []
    for loop, rep in [(False, r) for r in draws] + [(True, r) for r in _loop_jordan_reps()]:
        members = list(stability._coordinate_family(rep))
        members += stability._endomorphism_family(rep, stability._endomorphisms(rep))
        if loop:
            members += [invariant_closure(rep, {"v": e}) for e in np.eye(rep.dims["v"])]
        for w in members:
            if not 0 < w.total_dim < rep.total_dim:
                continue
            got, want = invariant_complement(rep, w), _probing_complement(rep, w)
            assert (got is None) == (want is None)
            if want is not None:
                assert [(v, got.basis[v].tobytes()) for v in got.basis] == [
                    (v, want.basis[v].tobytes()) for v in want.basis
                ]
            answers.append((loop, want is None))
    # both answers occur, on the draws and on the loops
    assert set(answers) == {(False, False), (False, True), (True, False), (True, True)}


def test_module_map_operator_matches_definition():
    # a loop (both column blocks at one vertex), an arrow of multiplicity 2
    # and a zero-dimensional vertex
    rng = np.random.default_rng(4)
    q = qf.Quiver.from_lists(["1", "2", "3"], [("a", "1", "2"), ("c", "2", "2"), ("d", "3", "1")])
    twist = qf.TwistSpec({"a": 2}, {"a": np.array([[1.5, 0.2j], [-0.2j, 0.9]])})
    dims = {"1": 2, "2": 3, "3": 0}
    cplx = lambda shape: rng.normal(size=shape) + 1j * rng.normal(size=shape)
    rep = qf.build_rep(
        q, twist, dims, {"a": [cplx((3, 2)), cplx((3, 2))], "c": [cplx((3, 3))], "d": [cplx((2, 0))]}
    )
    u = {v: cplx((n, n)) for v, n in dims.items()}
    want = np.concatenate([
        (u[a.head] @ sl - sl @ u[a.tail]).ravel() for a in q.arrows for sl in rep.slices[a.name]
    ])
    got = module_map_operator(rep) @ np.concatenate([u[v].ravel() for v in q.vertices])
    assert np.abs(got - want).max() < 1e-12
    # the kernel is End(V), for these generic slices the scalars alone
    assert np.linalg.matrix_rank(module_map_operator(rep)) == 2 * 2 + 3 * 3 - 1


# ---------------------------------------------------------------------------
# module action tables


def test_to_module_kronecker_hand_construction():
    q = kronecker_quiver(1)
    rep = qf.build_rep(q, None, {"1": 1, "2": 1}, {"a0": [np.array([[0.5]])]})
    table = to_module(rep)
    e1 = table.action[trivial_path(q, "1")]
    e2 = table.action[trivial_path(q, "2")]
    assert np.array_equal(e1, np.diag([1.0, 0.0]).astype(complex))
    assert np.array_equal(e2, np.diag([0.0, 1.0]).astype(complex))
    arrow = table.action[Path(q, ("a0",))]
    want = np.zeros((2, 2), dtype=complex)
    want[1, 0] = 0.5
    assert np.array_equal(arrow, want)


def test_module_idempotents_exact():
    q = chain_quiver(2)
    rep = qf.build_rep(
        q, None, {"0": 2, "1": 1, "2": 2},
        {"a0": [np.ones((1, 2))], "a1": [np.ones((2, 1))]},
    )
    table = to_module(rep)
    total = np.zeros((table.total_dim, table.total_dim), dtype=complex)
    for v in q.vertices:
        e = table.action[trivial_path(q, v)]
        assert np.array_equal(e @ e, e)
        total += e
        for w in q.vertices:
            if w != v:
                assert np.array_equal(e @ table.action[trivial_path(q, w)], 0 * e)
    assert np.array_equal(total, np.eye(table.total_dim))


def test_module_action_respects_products():
    q = chain_quiver(2)
    rep = qf.build_rep(
        q, None, {"0": 1, "1": 1, "2": 1},
        {"a0": [np.array([[3.0]])], "a1": [np.array([[2.0]])]},
    )
    table = to_module(rep)
    p = Path(q, ("a1", "a0"))
    assert np.array_equal(
        table.action[p],
        table.action[Path(q, ("a1",))] @ table.action[Path(q, ("a0",))],
    )


def test_module_round_trip_zero_rep():
    q = kronecker_quiver(1)
    rep = qf.build_rep(q, None, {"1": 0, "2": 0}, {})
    table = to_module(rep)
    assert table.total_dim == 0
    back = from_module(table)
    assert back.dims == rep.dims


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_module_round_trip_random(seed):
    rng = np.random.default_rng(seed)
    q = chain_quiver(2)
    dims = {v: int(rng.integers(1, 4)) for v in q.vertices}
    slices = {
        a.name: [rng.normal(size=(dims[a.head], dims[a.tail])) + 1j * rng.normal(size=(dims[a.head], dims[a.tail]))]
        for a in q.arrows
    }
    rep = qf.build_rep(q, None, dims, slices)
    back = from_module(to_module(rep))
    assert back.dims == rep.dims
    for a in q.arrows:
        assert np.array_equal(back.slices[a.name][0], rep.slices[a.name][0])


def test_to_module_refuses_twists():
    q = kronecker_quiver(1)
    twist = qf.TwistSpec({"a0": 2}, {"a0": np.eye(2, dtype=complex)})
    rep = qf.build_rep(q, twist, {"1": 1, "2": 1}, {"a0": [np.eye(1), np.eye(1)]})
    with pytest.raises(TwistedModuleUnsupported):
        to_module(rep)


def test_tensor_with_arrowless_unit_like_factor():
    # the product keeps the original arrows only, with unchanged slices
    qa = qf.Quiver.from_lists(["1", "2"], [("a", "1", "2")])
    qb = qf.Quiver.from_lists(["1", "2"], [])
    ra = qf.build_rep(qa, None, {"1": 2, "2": 3}, {"a": [np.arange(6.0).reshape(3, 2)]})
    rb = qf.build_rep(qb, None, {"1": 1, "2": 1}, {})
    prod = qf.tensor_product(ra, rb)
    assert prod.dims == {"1": 2, "2": 3}
    assert [x.name for x in prod.quiver.arrows] == ["left:a"]
    assert np.array_equal(prod.slices["left:a"][0], ra.slices["a"][0])
