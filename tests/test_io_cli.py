import argparse
import copy
import json
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quiverforge as qf
from quiverforge import cli
from quiverforge import io as qio
from quiverforge.errors import NewtonStall, NonFiniteData, SchemaError
from quiverforge.torus import PotentialState
from conftest import random_two_vertex_instance, twisted_instance


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


QUIVER_DOC = {
    "schema": "qf-1",
    "vertices": ["1", "2"],
    "arrows": [{"id": "a0", "tail": "1", "head": "2"}],
}
REP_DOC = {"dims": {"1": 1, "2": 1}, "arrows": {"a0": [[[[1.0, 0.0]]]]}}
PARAMS_DOC = {"sigma": {"1": 1.0, "2": 1.0}, "tau": {"1": -1.0, "2": 1.0}}


# ---------------------------------------------------------------------------
# loading and validation


def test_load_minimal_instance(tmp_path):
    q = write(tmp_path, "q.json", {"vertices": ["v"], "arrows": []})
    bundle = qio.load_instance([q])
    assert bundle.quiver.vertices == ("v",)


def test_load_split_files(tmp_path):
    paths = [
        write(tmp_path, "q.json", QUIVER_DOC),
        write(tmp_path, "r.json", REP_DOC),
        write(tmp_path, "p.json", PARAMS_DOC),
    ]
    bundle = qio.load_instance(paths)
    assert bundle.rep.slices["a0"][0][0, 0] == 1.0
    assert bundle.params.tau["2"] == 1.0


def test_load_two_way_instance(tmp_path):
    doc = {
        "quiver": {
            "vertices": ["1", "2"],
            "arrows": [
                {"id": "a", "tail": "1", "head": "2"},
                {"id": "b", "tail": "2", "head": "1"},
            ],
        },
        "rep": {
            "dims": {"1": 1, "2": 1},
            "arrows": {"a": [[[[1.0, 0.0]]]], "b": [[[[0.0, 1.0]]]]},
        },
        "params": PARAMS_DOC,
    }
    bundle = qio.load_instance([write(tmp_path, "inst.json", doc)])
    assert bundle.rep.slices["b"][0][0, 0] == 1j


def test_schema_errors_collected(tmp_path):
    doc = {
        "quiver": {
            "vertices": ["1"],
            "arrows": [
                {"id": "a", "tail": "1", "head": "missing"},
                {"id": "b", "tail": "nope", "head": "1"},
            ],
        },
        "params": {"sigma": {"1": 1.0}},
    }
    with pytest.raises(SchemaError) as info:
        qio.load_instance([write(tmp_path, "bad.json", doc)])
    pointers = [ptr for ptr, _ in info.value.errors]
    assert "/quiver/arrows/0/head" in pointers
    assert "/quiver/arrows/1/tail" in pointers
    assert any(p.startswith("/params") for p in pointers)


@pytest.mark.parametrize("sigma", [1.0, -1.0])
def test_params_refuse_unknown_vertices(tmp_path, sigma):
    # entries at a vertex the quiver lacks loaded (sigma 1.0, and check
    # exited 0) or failed the params constructor at /params (sigma -1.0)
    doc = _kronecker_doc()
    doc["params"]["sigma"]["zz"] = sigma
    doc["params"]["tau"]["zz"] = 5.0
    path = write(tmp_path, "inst.json", doc)
    with pytest.raises(SchemaError) as info:
        qio.load_instance([path])
    assert info.value.errors == [
        ("/params/sigma/zz", "unknown vertex 'zz'"), ("/params/tau/zz", "unknown vertex 'zz'"),
    ]
    assert cli.main(["check", "--instance", path, "--quiet"]) == 1
    # without a quiver no vertex is unknown
    alone = qio.load_instance(text=json.dumps({"sigma": {"zz": 1.0}, "tau": {"zz": 5.0}})).params
    assert alone.sigma == {"zz": 1.0}


@pytest.mark.parametrize("twisted", [True, False], ids=["twisted", "plain"])
def test_encoders_round_trip(twisted):
    # the benchmark writes every cli-batch instance with these encoders
    rep, tau = twisted_instance(6013) if twisted else random_two_vertex_instance(5018)
    params = qf.StabilityParams({"1": 2.0, "2": 3.0}, tau)
    doc = {
        "quiver": qio.encode_quiver(rep.quiver, rep.twist),
        "rep": qio.encode_rep(rep),
        "params": qio.encode_params(params),
    }
    assert ("twist_weight" in doc["quiver"]["arrows"][0]) == twisted
    bundle = qio.load_instance(text=json.dumps(doc))
    assert bundle.quiver == rep.quiver
    assert dict(bundle.rep.dims) == dict(rep.dims)
    assert bundle.params == params
    for a in rep.quiver.arrows:
        assert bundle.twist.rank(a.name) == rep.twist.rank(a.name)
        assert np.array_equal(bundle.twist.metric(a.name), rep.twist.metric(a.name))
        assert len(bundle.rep.slices[a.name]) == len(rep.slices[a.name])
        for got, want in zip(bundle.rep.slices[a.name], rep.slices[a.name]):
            assert np.array_equal(got, want)
    if not twisted:
        assert qio.load_instance(text=json.dumps(qio.encode_quiver(rep.quiver))).quiver == rep.quiver


def test_rep_without_quiver_fails(tmp_path):
    with pytest.raises(SchemaError):
        qio.load_instance([write(tmp_path, "r.json", REP_DOC)])


# ---------------------------------------------------------------------------
# deterministic export


def test_export_empty_report():
    assert qio.export_report({}) == b"{}"


def test_export_float_format_and_sorted_keys():
    data = qio.export_report({"b": 0.1, "a": 2})
    assert data == b'{"a":2,"b":0.10000000000000001}'


def test_export_round_trip_structure():
    payload = {"status": "diverged", "residual": 1.5e-11, "log": [[0, 1.0], [1, 0.5]]}
    data = qio.export_report(payload)
    assert json.loads(data.decode()) == payload


def test_csv_column_order():
    rep = qf.build_rep(
        qf.gallery.kronecker_quiver(1), None, {"1": 1, "2": 1},
        {"a0": [np.array([[1.0]])]},
    )
    params = qf.StabilityParams({"1": 1.0, "2": 1.0}, {"1": -1.0, "2": 1.0})
    report = qf.flow_solve(rep, params)
    csv = qio.flow_log_csv(report).decode().splitlines()
    assert csv[0] == "iter,kempf_ness,residual_norm,step,s_norm"


def test_potential_binary_round_trip(tmp_path):
    state = PotentialState(
        {"1": np.arange(16.0).reshape(4, 4), "2": np.ones((4, 4)) * 0.5}
    )
    path = tmp_path / "u.qvtx"
    qio.write_potential_binary(path, state, ["1", "2"])
    with open(path, "rb") as fh:
        assert fh.read(5) == b"QVTX1"
    back = qio.read_potential_binary(path, ["1", "2"])
    assert np.array_equal(back["1"], state.u["1"])
    assert np.array_equal(back["2"], state.u["2"])


def test_potential_binary_refuses_bad_length(tmp_path):
    state = PotentialState({"1": np.zeros((4, 4)), "2": np.ones((4, 4))})
    path = tmp_path / "u.qvtx"
    qio.write_potential_binary(path, state, ["1", "2"])
    data = path.read_bytes()
    for bad in (data[:-3], data[:9], data + b"\0"):
        path.write_bytes(bad)
        with pytest.raises(SchemaError):
            qio.read_potential_binary(path, ["1", "2"])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_potential_binary_refuses_non_finite_potential(tmp_path, bad):
    # read NaN and infinite potentials back as they were
    u = np.zeros((4, 4))
    u[1, 2] = bad
    path = tmp_path / "u.qvtx"
    qio.write_potential_binary(path, PotentialState({"1": np.zeros((4, 4)), "2": u}), ["1", "2"])
    with pytest.raises(NonFiniteData, match="vertex '2'"):
        qio.read_potential_binary(path, ["1", "2"])


# ---------------------------------------------------------------------------
# CLI


def setup_instance(tmp_path, t=1.0):
    params = dict(PARAMS_DOC)
    params["tau"] = {"1": -t, "2": t}
    return [
        write(tmp_path, "q.json", QUIVER_DOC),
        write(tmp_path, "r.json", REP_DOC),
        write(tmp_path, "p.json", params),
    ]


def test_cli_check_stable(tmp_path, capsys):
    q, r, p = setup_instance(tmp_path)
    out = tmp_path / "verdict.json"
    code = cli.main(["check", "--quiver", q, "--rep", r, "--params", p, "--out", str(out)])
    assert code == 0
    verdict = json.loads(out.read_text())
    assert verdict["verdict"] == "stable"


def test_cli_check_unstable_exit_2(tmp_path):
    q, r, p = setup_instance(tmp_path, t=-1.0)
    code = cli.main(["check", "--quiver", q, "--rep", r, "--params", p, "--quiet"])
    assert code == 2


def test_cli_flow_converges(tmp_path):
    q, r, p = setup_instance(tmp_path)
    out = tmp_path / "flow.json"
    log = tmp_path / "flow.csv"
    code = cli.main([
        "flow", "--quiver", q, "--rep", r, "--params", p,
        "--out", str(out), "--log", str(log),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["status"] == "converged"
    assert log.read_text().splitlines()[0].startswith("iter,")


def test_cli_flow_divergence_carries_filtration(tmp_path):
    jq = write(
        tmp_path, "jq.json",
        {"vertices": ["v"], "arrows": [{"id": "phi", "tail": "v", "head": "v"}]},
    )
    jr = write(
        tmp_path, "jr.json",
        {"dims": {"v": 2}, "arrows": {"phi": [[[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]}},
    )
    jp = write(tmp_path, "jp.json", {"sigma": {"v": 1.0}, "tau": {"v": 0.0}})
    out = tmp_path / "flow.json"
    code = cli.main(["flow", "--quiver", jq, "--rep", jr, "--params", jp, "--out", str(out)])
    assert code == 2
    report = json.loads(out.read_text())
    assert report["status"] == "diverged"
    assert report["filtration"]
    assert report["filtration"][0]["slope"] == pytest.approx(0.0, abs=1e-12)


def test_cli_reports_byte_identical(tmp_path):
    q, r, p = setup_instance(tmp_path)
    outs = []
    for name in ("o1.json", "o2.json"):
        out = tmp_path / name
        code = cli.main([
            "flow", "--quiver", q, "--rep", r, "--params", p,
            "--out", str(out), "--seed", "7",
        ])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_cli_vortex(tmp_path):
    q, _, p = setup_instance(tmp_path, t=1.0)
    s = write(
        tmp_path, "s.json",
        {"N": 32, "degrees": {"1": 0, "2": 0}, "weights": {"a0": {"kind": "constant", "value": 1.0}}},
    )
    out = tmp_path / "u.qvtx"
    log = tmp_path / "newton.csv"
    code = cli.main([
        "vortex", "--quiver", q, "--params", p, "--system", s,
        "--out", str(out), "--log", str(log), "--quiet",
    ])
    assert code == 0
    fields = qio.read_potential_binary(out, ["1", "2"])
    assert fields["1"].shape == (32, 32)
    assert log.read_text().startswith("iter,sup_residual,damping")


def test_cli_vortex_stall_exit_2(tmp_path):
    q, _, p = setup_instance(tmp_path, t=-1.0)
    s = write(
        tmp_path, "s.json",
        {"N": 16, "degrees": {"1": 0, "2": 0}, "weights": {"a0": 1.0}},
    )
    code = cli.main(["vortex", "--quiver", q, "--params", p, "--system", s, "--quiet"])
    assert code == 2


def test_cli_relations(tmp_path):
    doc = {
        "vertices": ["s", "p", "q", "t"],
        "arrows": [
            {"id": "x", "tail": "s", "head": "p"},
            {"id": "y", "tail": "p", "head": "t"},
            {"id": "z", "tail": "s", "head": "q"},
            {"id": "w", "tail": "q", "head": "t"},
        ],
    }
    qp = write(tmp_path, "q.json", doc)
    good = {"dims": {v: 1 for v in "spqt"},
            "arrows": {a: [[[[val, 0.0]]]] for a, val in (("x", 2.0), ("y", 3.0), ("z", 3.0), ("w", 2.0))}}
    rp = write(tmp_path, "r.json", good)
    rel = write(
        tmp_path, "rel.json",
        {"relations": [{"terms": [
            {"coeff": [1.0, 0.0], "path": ["y", "x"]},
            {"coeff": [-1.0, 0.0], "path": ["w", "z"]},
        ]}]},
    )
    code = cli.main(["relations", "--quiver", qp, "--rep", rp, "--relations-file", rel, "--quiet"])
    assert code == 0
    bad = dict(good)
    bad["arrows"] = dict(good["arrows"])
    bad["arrows"]["w"] = [[[[5.0, 0.0]]]]
    rp2 = write(tmp_path, "r2.json", bad)
    code = cli.main(["relations", "--quiver", qp, "--rep", rp2, "--relations-file", rel, "--quiet"])
    assert code == 2


def test_cli_tensor_verify(tmp_path):
    qa = write(tmp_path, "qa.json", QUIVER_DOC)
    qb = write(
        tmp_path, "qb.json",
        {"vertices": ["1", "2"], "arrows": [{"id": "b", "tail": "2", "head": "1"}]},
    )
    ra = write(tmp_path, "ra.json", REP_DOC)
    rb = write(tmp_path, "rb.json", {"dims": {"1": 1, "2": 1}, "arrows": {"b": [[[[1.5, 0.0]]]]}})
    pa = write(tmp_path, "pa.json", PARAMS_DOC)
    pb = write(tmp_path, "pb.json", {"sigma": {"1": 1.0, "2": 1.0}, "tau": {"1": 2.25, "2": -2.25}})
    out = tmp_path / "tensor.json"
    code = cli.main([
        "tensor", "--quiver", qa, "--rep", ra, "--params", pa,
        "--quiver2", qb, "--rep2", rb, "--params2", pb,
        "--verify", "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["verified"] is True
    assert report["product_residual"] <= 1e-8


def test_cli_ymh(tmp_path):
    q, _, p = setup_instance(tmp_path, t=0.0)
    s = write(
        tmp_path, "s.json",
        {"N": 64, "degrees": {"1": 0, "2": 0}, "weights": {"a0": 1.0}},
    )
    out = tmp_path / "ymh.json"
    code = cli.main(["ymh", "--quiver", q, "--params", p, "--system", s, "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["satisfied"] is True


def test_cli_ymh_refuses_state_of_other_grid(tmp_path):
    q, _, p = setup_instance(tmp_path, t=0.0)
    s = write(
        tmp_path, "s.json",
        {"N": 32, "degrees": {"1": 0, "2": 0}, "weights": {"a0": 1.0}},
    )
    state = tmp_path / "u16.qvtx"
    qio.write_potential_binary(
        state, PotentialState({"1": np.zeros((16, 16)), "2": np.zeros((16, 16))}), ["1", "2"]
    )
    code = cli.main([
        "ymh", "--quiver", q, "--params", p, "--system", s, "--state", str(state), "--quiet",
    ])
    assert code == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cli_ymh_refuses_non_finite_state(tmp_path, bad, capsys):
    # reported satisfied: false with NaN sums (exit 2), after numpy warnings
    q, _, p = setup_instance(tmp_path, t=0.0)
    s = write(tmp_path, "s.json", {"N": 16, "degrees": {"1": 0, "2": 0}, "weights": {"a0": 1.0}})
    u = np.zeros((16, 16))
    u[2, 5] = bad
    state = tmp_path / "u.qvtx"
    qio.write_potential_binary(state, PotentialState({"1": u, "2": np.zeros((16, 16))}), ["1", "2"])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(["ymh", "--quiver", q, "--params", p, "--system", s, "--state", str(state)])
    out, err = capsys.readouterr()
    assert code == 1 and out == "" and len(err.splitlines()) == 1
    assert json.loads(err)["error_code"] == "non_finite_data"


def test_cli_error_exit_1(tmp_path):
    code = cli.main(["check", "--quiver", str(tmp_path / "does-not-exist.json"), "--quiet"])
    assert code == 1


def test_cli_inadmissible_params_exit_1(tmp_path):
    q, r, _ = setup_instance(tmp_path)
    badp = write(tmp_path, "bad.json", {"sigma": {"1": 1.0, "2": 1.0}, "tau": {"1": 1.0, "2": 1.0}})
    code = cli.main(["flow", "--quiver", q, "--rep", r, "--params", badp, "--quiet"])
    assert code == 1


def test_cli_non_finite_params_exit_1(tmp_path):
    q, r, _ = setup_instance(tmp_path)
    badp = tmp_path / "nan.json"
    badp.write_text('{"sigma": {"1": 1.0, "2": 1.0}, "tau": {"1": NaN, "2": 0.0}}')
    with pytest.raises(SchemaError) as info:
        qio.load_instance([q, r, str(badp)])
    assert [ptr for ptr, _ in info.value.errors] == ["/params/tau/1"]
    code = cli.main(["check", "--quiver", q, "--rep", r, "--params", str(badp), "--quiet"])
    assert code == 1


def _kronecker_doc():
    return copy.deepcopy({"quiver": QUIVER_DOC, "rep": REP_DOC, "params": PARAMS_DOC})


def _torus_doc(weight):
    return copy.deepcopy({
        "quiver": QUIVER_DOC,
        "params": PARAMS_DOC,
        "system": {"N": 16, "degrees": {"1": 0, "2": 0}, "weights": {"a0": weight}},
    })


def _with(doc, path, value):
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@pytest.mark.parametrize(
    "doc, pointer",
    [
        (_with(_kronecker_doc(), ("rep", "arrows", "a0"), [[[[float("nan"), 0.0]]]]), "/rep/arrows/a0/0/0/0"),
        (_with(_kronecker_doc(), ("quiver", "arrows", 0, "twist_weight"), [[[float("inf"), 0.0]]]),
         "/quiver/arrows/0/twist_weight/0/0"),
        (_torus_doc(float("nan")), "/system/weights/a0"),
        (_torus_doc({"kind": "constant", "value": float("inf")}), "/system/weights/a0/value"),
        (_torus_doc({"kind": "bump", "params": {"amplitude": float("nan")}}), "/system/weights/a0/params/amplitude"),
        (_torus_doc({"kind": "bump", "params": {"center": [0.5, float("-inf")]}}),
         "/system/weights/a0/params/center/1"),
    ],
    ids=["slice", "twist-weight", "weight-number", "weight-value", "bump-amplitude", "bump-center"],
)
def test_decoder_refuses_non_finite_numbers(tmp_path, doc, pointer):
    with pytest.raises(SchemaError) as info:
        qio.load_instance([write(tmp_path, "inst.json", doc)])
    assert [ptr for ptr, _ in info.value.errors] == [pointer]


def test_cli_flow_refuses_non_finite_slice(tmp_path, capsys):
    # refused with a pointer and exit 1, not run to a "max-iter" verdict
    doc = _with(_kronecker_doc(), ("rep", "arrows", "a0"), [[[[float("nan"), 0.0]]]])
    out = tmp_path / "out.json"
    code = cli.main(["flow", "--instance", write(tmp_path, "nan.json", doc), "--out", str(out)])
    assert code == 1
    assert not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert err["error_code"] == "schema_error" and "/rep/arrows/a0/0/0/0" in err["error"]


@pytest.mark.parametrize(
    "doc, pointer",
    [
        (_with(_kronecker_doc(), ("rep", "dims", "1"), "x"), "/rep/dims/1"),
        (_with(_kronecker_doc(), ("quiver", "arrows", 0, "twist_dim"), "q"), "/quiver/arrows/0/twist_dim"),
        (_with(_torus_doc(1.0), ("system", "degrees", "1"), "x"), "/system/degrees/1"),
        (_with(_kronecker_doc(), ("rep", "dims", "1"), 2.9), "/rep/dims/1"),
        (_with(_kronecker_doc(), ("quiver", "arrows", 0, "twist_dim"), 1.7), "/quiver/arrows/0/twist_dim"),
        (_with(_torus_doc(1.0), ("system", "degrees", "1"), 0.5), "/system/degrees/1"),
    ],
    ids=["dims", "twist-dim", "degrees", "dims-fraction", "twist-dim-fraction", "degrees-fraction"],
)
def test_decoder_refuses_non_integers(tmp_path, doc, pointer):
    with pytest.raises(SchemaError) as info:
        qio.load_instance([write(tmp_path, "inst.json", doc)])
    assert [ptr for ptr, _ in info.value.errors] == [pointer]


@pytest.mark.parametrize(
    "doc, pointer, command",
    [
        (_with(_kronecker_doc(), ("rep", "dims", "1"), "1"), "/rep/dims/1", "check"),
        (_with(_kronecker_doc(), ("rep", "dims", "2"), True), "/rep/dims/2", "check"),
        (_with(_kronecker_doc(), ("quiver", "arrows", 0, "twist_dim"), "1"), "/quiver/arrows/0/twist_dim", "check"),
        (_with(_kronecker_doc(), ("params", "sigma", "1"), "1.0"), "/params/sigma/1", "check"),
        (_with(_kronecker_doc(), ("params", "tau", "2"), "1"), "/params/tau/2", "check"),
        (_with(_kronecker_doc(), ("params", "sigma", "2"), True), "/params/sigma/2", "check"),
        (_with(_torus_doc(1.0), ("system", "degrees", "1"), "0"), "/system/degrees/1", "vortex"),
        (_torus_doc(True), "/system/weights/a0", "vortex"),
        (_torus_doc({"kind": "bump", "params": {"width": "0.4"}}), "/system/weights/a0/params/width", "vortex"),
        (_with(_torus_doc(1.0), ("system", "N"), True), "/system/N", "vortex"),
        (_with(_kronecker_doc(), ("rep", "arrows", "a0"), [[[[True, False]]]]), "/rep/arrows/a0/0/0/0", "check"),
        (_with(_kronecker_doc(), ("rep", "arrows", "a0"), [[[True]]]), "/rep/arrows/a0/0/0/0", "check"),
    ],
    ids=["dims-string", "dims-bool", "twist-dim-string", "sigma-string", "tau-string", "sigma-bool",
         "degrees-string", "weight-bool", "bump-width-string", "grid-bool", "slice-bool-pair", "slice-bool"],
)
def test_decoder_refuses_numeric_strings_and_booleans(tmp_path, doc, pointer, command):
    # int("1"), int(True), float("1.0") and complex(True, False) succeed, so
    # these loaded as 1
    path = write(tmp_path, "inst.json", doc)
    with pytest.raises(SchemaError) as info:
        qio.load_instance([path])
    assert [ptr for ptr, _ in info.value.errors] == [pointer]
    assert cli.main([command, "--instance", path, "--quiet"]) == 1


@pytest.mark.parametrize("width", [0, -0.4])
def test_decoder_refuses_nonpositive_bump_width(tmp_path, width):
    # refused at the field, before a grid is built (width 0 divided by zero
    # there and a negative width acted as a positive one)
    doc = _torus_doc({"kind": "bump", "params": {"width": width}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SchemaError) as info:
            qio.load_instance([write(tmp_path, "inst.json", doc)])
    assert [ptr for ptr, _ in info.value.errors] == ["/system/weights/a0/params/width"]


def _relations_doc(relations):
    return copy.deepcopy({"quiver": QUIVER_DOC, "rep": REP_DOC, "relations": relations})


@pytest.mark.parametrize(
    "doc, pointer",
    [
        ({"quiver": 5}, "/quiver"),
        (_with(_kronecker_doc(), ("quiver", "arrows"), 5), "/quiver/arrows"),
        (_with(_kronecker_doc(), ("quiver", "arrows", 0, "tail"), [1]), "/quiver/arrows/0/tail"),
        (_with(_kronecker_doc(), ("rep",), [1]), "/rep"),
        (_with(_kronecker_doc(), ("rep", "arrows"), [1]), "/rep/arrows"),
        (_with(_kronecker_doc(), ("params",), [1]), "/params"),
        (_with(_kronecker_doc(), ("options",), 5), "/options"),
        (_relations_doc(5), "/relations"),
        (_relations_doc([5]), "/relations/0"),
        (_relations_doc([{"terms": 5}]), "/relations/0/terms"),
        (_relations_doc([{"terms": [5]}]), "/relations/0/terms/0"),
        (_with(_torus_doc(1.0), ("system",), 5), "/system"),
        (_with(_torus_doc(1.0), ("system", "degrees"), [1]), "/system/degrees"),
        (_with(_torus_doc(1.0), ("system", "weights"), [1]), "/system/weights"),
    ],
    ids=[
        "quiver", "quiver-arrows", "arrow-tail", "rep", "rep-arrows", "params", "options",
        "relations", "relation", "terms", "term", "system", "degrees", "weights",
    ],
)
def test_decoder_refuses_wrong_json_types(tmp_path, doc, pointer):
    with pytest.raises(SchemaError) as info:
        qio.load_instance([write(tmp_path, "inst.json", doc)])
    assert [ptr for ptr, _ in info.value.errors] == [pointer]


def test_cli_refuses_wrong_json_type_with_exit_1(tmp_path, capsys):
    doc = _with(_torus_doc(1.0), ("system", "degrees"), [1])
    code = cli.main(["vortex", "--instance", write(tmp_path, "bad.json", doc), "--quiet"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error_code"] == "schema_error" and "/system/degrees" in err["error"]


# Any JSON value; numbers stay small so no decoded dimension or grid size
# allocates much, and keys and strings lean on the schema's own names so the
# values reach the decoders' inner branches.
_SCHEMA_WORDS = [
    "quiver", "rep", "params", "system", "relations", "options", "vertices", "arrows",
    "id", "tail", "head", "twist_dim", "twist_weight", "dims", "sigma", "tau", "terms",
    "coeff", "path", "N", "degrees", "weights", "kind", "constant", "bump", "center",
    "1", "2", "a0",
]
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 16)
    | st.floats(-16, 16)
    | st.sampled_from([float("nan"), float("inf")])
    | st.sampled_from(_SCHEMA_WORDS)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_SCHEMA_WORDS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)


def _fuzz_bases():
    kron = _kronecker_doc()
    kron["relations"] = [{"terms": [{"coeff": [1.0, 0.0], "path": ["a0"]}]}]
    kron["options"] = {}
    return [kron, _torus_doc({"kind": "bump", "params": {"center": [0.5, 0.5]}})]


# every section of each base document, and every field of each section
_FUZZ_SITES = [
    (i, path)
    for i, base in enumerate(_fuzz_bases())
    for section, body in base.items()
    for path in [(section,)]
    + [(section, key) for key in (body if isinstance(body, dict) else range(len(body)))]
]


def _loads_or_schema_error(doc):
    try:
        qio.load_instance(text=json.dumps(doc))
    except SchemaError:
        pass


@settings(max_examples=150, deadline=None)
@given(doc=_JSON)
def test_decoder_loads_or_refuses_any_document(doc):
    _loads_or_schema_error(doc)


@settings(max_examples=300, deadline=None)
@given(site=st.sampled_from(_FUZZ_SITES), value=_JSON)
def test_decoder_loads_or_refuses_any_section_value(site, value):
    base, path = site
    _loads_or_schema_error(_with(_fuzz_bases()[base], path, value))


def test_cli_vortex_stall_log_is_newton_log(tmp_path):
    q, _, p = setup_instance(tmp_path, t=-1.0)
    s = write(
        tmp_path, "s.json",
        {"N": 16, "degrees": {"1": 0, "2": 0}, "weights": {"a0": 1.0}},
    )
    log = tmp_path / "stall.csv"
    code = cli.main(["vortex", "--quiver", q, "--params", p, "--system", s, "--log", str(log), "--quiet"])
    assert code == 2
    with pytest.raises(NewtonStall) as info:
        qf.solve_vortex(qio.load_instance([q, p, s]).system)
    assert info.value.history
    assert log.read_bytes() == qio.newton_log_csv(info.value)


def test_cli_batch_manifest(tmp_path):
    q, r, p = setup_instance(tmp_path)
    entries = [
        {"command": "check", "quiver": q, "rep": r, "params": p, "quiet": True},
        {"command": "flow", "quiver": q, "rep": r, "params": p, "quiet": True},
    ]
    manifest = write(tmp_path, "m.json", entries)
    assert cli.main(["batch", "--manifest", manifest]) == 0
    assert cli.main(["batch", "--manifest", manifest, "--jobs", "2"]) == 0


def test_cli_batch_isolates_bad_entry(tmp_path):
    q, r, p = setup_instance(tmp_path)
    out = tmp_path / "check.json"
    entries = [
        {"command": "nope"},
        {"command": "check", "quiver": q, "rep": r, "params": p, "out": str(out), "quiet": False},
    ]
    manifest = write(tmp_path, "m.json", entries)
    assert cli.main(["batch", "--manifest", manifest]) == 1
    assert json.loads(out.read_text())["verdict"] == "stable"
    out.unlink()
    assert cli.main(["batch", "--manifest", manifest, "--jobs", "2"]) == 1
    assert out.exists()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["check", "--seed", "abc"], 1),
        (["nope"], 1),
        (["--help"], 0),
        (["check", "--no-such-flag", "1"], 1),
        (["ymh", "--modes"], 1),
        ([], 1),
        (["check", "--help"], 0),
    ],
    ids=["bad-value", "unknown-command", "help", "unknown-flag", "missing-value", "no-command", "command-help"],
)
def test_cli_usage_errors_exit_1(argv, code, capsys):
    # argparse raised SystemExit(2) out of main: a usage error read as a
    # negative verdict on the command line, and as an error only in batch;
    # then it wrote its usage text over several plain lines
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    if code:
        assert out == "" and len(err.splitlines()) == 1
        assert json.loads(err)["error_code"] == "usage_error"
    else:
        assert out.startswith("usage: quiverforge") and err == ""


def test_cli_batch_usage_errors_write_json_lines(tmp_path, capsys):
    q, r, p = setup_instance(tmp_path)
    entries = [
        {"command": "nope"},
        {"command": "check", "quiver": q, "rep": r, "params": p, "seed": "abc"},
        {"command": "check", "quiver": q, "rep": r, "params": p, "quiet": True},
    ]
    assert cli.main(["batch", "--manifest", write(tmp_path, "m.json", entries)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert [json.loads(line)["error_code"] for line in err.splitlines()] == ["usage_error"] * 2


def test_decoding_an_untwisted_quiver_checks_no_twist_metric(monkeypatch):
    # the decoder filled np.eye(m) for every arrow, and each was checked
    # and inverted
    checked = []
    monkeypatch.setattr("quiverforge.quiver.check_hpd", checked.append)
    doc = {
        "vertices": ["1", "2"],
        "arrows": [{"id": "a", "tail": "1", "head": "2"}, {"id": "b", "tail": "1", "head": "2", "twist_dim": 2}],
    }
    errs = []
    quiver, twist = qio.decode_quiver(doc, errs)
    assert errs == [] and checked == []
    assert np.array_equal(twist.metric("b"), np.eye(2))
    assert qio.encode_quiver(quiver, twist)["arrows"] == [
        {"id": "a", "tail": "1", "head": "2", "twist_dim": 1},
        {"id": "b", "tail": "1", "head": "2", "twist_dim": 2, "twist_weight": qio.encode_matrix(np.eye(2))},
    ]
    doc["arrows"][1]["twist_weight"] = [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    qio.decode_quiver(doc, errs)
    assert errs == [] and len(checked) == 1


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_batch_refuses_nonpositive_jobs(tmp_path, jobs, capsys):
    # these ran the entries one at a time and exited 0
    q, r, p = setup_instance(tmp_path)
    out = tmp_path / "check.json"
    entries = [{"command": "check", "quiver": q, "rep": r, "params": p, "out": str(out)}]
    assert cli.main(["batch", "--manifest", write(tmp_path, "m.json", entries), "--jobs", jobs]) == 1
    assert json.loads(capsys.readouterr().err)["error_code"] == "nonpositive_scale"
    assert not out.exists()


def test_cli_builds_one_parser_per_process(tmp_path, monkeypatch):
    # every main call built the grammar again: 2 batches x (1 + 4 entries)
    # x (1 top-level + 7 subcommand parsers) = 80 constructions
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    q, r, p = setup_instance(tmp_path)
    entries = [{"command": c, "quiver": q, "rep": r, "params": p, "quiet": True} for c in ("check", "flow") * 2]
    manifest = write(tmp_path, "m.json", entries)
    assert cli.main(["batch", "--manifest", manifest]) == 0
    assert cli.main(["batch", "--manifest", manifest, "--jobs", "2"]) == 0
    # 0 when an earlier test already built the parser
    assert len(built) <= 8


def test_cli_batch_shared_parser_is_thread_safe(tmp_path):
    # one parser serves every entry and thread: rejected entries must leave
    # it as it was, and reports must not depend on --jobs
    good = [
        ("check", "kronecker_stable"),
        ("check", "jordan_nilpotent"),
        ("flow", "two_way_pair"),
        ("flow", "jordan_nilpotent"),
        ("ymh", "torus_chain"),
    ]
    outs = [tmp_path / f"{i}-{command}-{name}.json" for i, (command, name) in enumerate(good)]
    entries = [
        {"command": command, "instance": _shipped(f"{name}.json"), "out": str(out), "quiet": True}
        for (command, name), out in zip(good, outs)
    ]
    bad = [
        {"command": "nope"},
        {"command": "check", "instance": _shipped("kronecker_stable.json"), "no_such_flag": 1},
        {"command": "check", "instance": _shipped("kronecker_stable.json"), "seed": "abc"},
    ]
    for k, e in enumerate(bad):  # rejected entries run between and beside good ones
        entries.insert(2 * k + 1, e)
    manifest = write(tmp_path, "m.json", entries)
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, mid-parse included
    try:
        for jobs in ("1", "2", "4", "1"):
            for out in outs:
                out.unlink(missing_ok=True)
            code = cli.main(["batch", "--manifest", manifest, "--jobs", jobs])
            runs.append((code, [out.read_bytes() for out in outs]))
    finally:
        sys.setswitchinterval(interval)
    # the Jordan block is strictly semistable, so the batch exits 2
    assert runs[0][0] == 2
    assert all(run == runs[0] for run in runs[1:])


# ---------------------------------------------------------------------------
# shipped instances


INSTANCE_DIR = __import__("pathlib").Path(__file__).resolve().parent.parent / "instances"


def test_shipped_two_way_pair_loads_and_runs():
    bundle = qio.load_instance([INSTANCE_DIR / "two_way_pair.json"])
    assert {a.name for a in bundle.quiver.arrows} == {"a", "b"}
    report = qf.flow_solve(bundle.rep, bundle.params)
    assert report.converged


def test_shipped_instances_all_load():
    for name in ("kronecker_stable.json", "jordan_nilpotent.json", "torus_chain.json"):
        bundle = qio.load_instance([INSTANCE_DIR / name])
        assert bundle.quiver is not None and bundle.params is not None


def test_shipped_instance_cli_round_trip(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        code = cli.main([
            "check", "--instance", str(INSTANCE_DIR / "kronecker_stable.json"),
            "--out", str(out), "--seed", "0",
        ])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize(
    "name, code, report",
    [
        # the witness is ker N = span(e_1) with the basis e_1 itself: a
        # kernel basis from an SVD is fixed only up to phase, and -e_1 would
        # change the report
        ("jordan_nilpotent", 2, b'"verdict":"strictly-semistable","witness":{"v":[[[1,0]],[[0,0]]]},"witness_slope":0}'),
        ("kronecker_stable", 0, b'"verdict":"stable"}'),
        ("two_way_pair", 0, b'"verdict":"stable"}'),
    ],
    ids=["jordan_nilpotent", "kronecker_stable", "two_way_pair"],
)
def test_shipped_check_report_bytes(tmp_path, name, code, report):
    out = tmp_path / "report.json"
    assert cli.main(["check", "--instance", str(INSTANCE_DIR / f"{name}.json"), "--out", str(out)]) == code
    assert out.read_bytes() == (
        b'{"certificate_source":"oracle-enumeration","command":"check","schema":"qf-1","slope":0,' + report
    )


def _shipped(name):
    return str(INSTANCE_DIR / name)


@pytest.mark.parametrize(
    "argv, error_code",
    [
        # an infinite tolerance passes every residual test: without the
        # check, torus_chain "converges" at sup residual 1.45 and the
        # strictly semistable Jordan block "converges" too
        (["vortex", "--instance", _shipped("torus_chain.json"), "--tol", "inf"], "non_finite_data"),
        (["flow", "--instance", _shipped("jordan_nilpotent.json"), "--tol", "inf"], "non_finite_data"),
        # NaN and negative tolerances fail every test: not negative verdicts
        (["vortex", "--instance", _shipped("torus_chain.json"), "--tol", "nan"], "non_finite_data"),
        (["vortex", "--instance", _shipped("torus_chain.json"), "--tol", "-1"], "nonpositive_scale"),
        (["ymh", "--instance", _shipped("torus_chain.json"), "--tol", "nan"], "non_finite_data"),
        # numpy refuses a negative seed with a ValueError
        (["check", "--instance", _shipped("kronecker_stable.json"), "--seed", "-1"], "nonpositive_scale"),
        (["ymh", "--instance", _shipped("torus_chain.json"), "--seed", "-1"], "nonpositive_scale"),
        (["flow", "--instance", _shipped("kronecker_stable.json"), "--seed", "-1"], "nonpositive_scale"),
        # an infinite start scale wrote NaN to --out and exited 2; NaN and
        # negative scales were ignored; a negative budget ended max-iter
        (["flow", "--instance", _shipped("kronecker_stable.json"), "--init-scale", "inf"], "non_finite_data"),
        (["flow", "--instance", _shipped("kronecker_stable.json"), "--init-scale", "nan"], "non_finite_data"),
        (["flow", "--instance", _shipped("kronecker_stable.json"), "--init-scale", "-2"], "nonpositive_scale"),
        (["flow", "--instance", _shipped("kronecker_stable.json"), "--max-iter", "-1"], "nonpositive_scale"),
        # a negative Newton budget ran no step and ended as a stall (exit 2)
        (["vortex", "--instance", _shipped("torus_chain.json"), "--max-newton", "-1"], "nonpositive_scale"),
        # 2 modes + 1 frequencies must fit the N = 64 grid: 100 modes raised
        # an IndexError, 32 folded frequency 32 onto -32, and -3 drew no
        # field and reported the identity satisfied
        (["ymh", "--instance", _shipped("torus_chain.json"), "--modes", "100"], "error"),
        (["ymh", "--instance", _shipped("torus_chain.json"), "--modes", "32"], "error"),
        (["ymh", "--instance", _shipped("torus_chain.json"), "--modes", "-3"], "error"),
    ],
)
def test_cli_refuses_invalid_tolerance_or_seed(argv, error_code, capsys):
    assert cli.main(argv + ["--quiet"]) == 1
    assert json.loads(capsys.readouterr().err)["error_code"] == error_code


@pytest.mark.parametrize("verify_tol", ["nan", "inf", "0"])
def test_cli_tensor_refuses_invalid_verify_tol(tmp_path, verify_tol):
    q, r, p = setup_instance(tmp_path)
    code = cli.main([
        "tensor", "--quiver", q, "--rep", r, "--params", p, "--rep2", r, "--params2", p,
        "--verify", "--verify-tol", verify_tol, "--quiet",
    ])
    assert code == 1


def _not_utf8(tmp_path):
    p = tmp_path / "utf16.json"
    p.write_bytes(b"\xff\xfe" + json.dumps(_kronecker_doc()).encode("utf-16-le"))
    return str(p)


def test_cli_reports_a_file_that_is_not_utf8(tmp_path, capsys):
    # a file that is not UTF-8 ended in a UnicodeDecodeError traceback
    assert cli.main(["check", "--instance", _not_utf8(tmp_path), "--quiet"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error_code"] == "io_error"


def test_cli_batch_runs_past_a_file_that_is_not_utf8(tmp_path, capsys):
    out = tmp_path / "check.json"
    entries = [
        {"command": "check", "instance": _not_utf8(tmp_path), "quiet": True},
        {"command": "check", "instance": write(tmp_path, "ok.json", _kronecker_doc()), "out": str(out), "quiet": True},
    ]
    assert cli.main(["batch", "--manifest", write(tmp_path, "m.json", entries)]) == 1
    assert json.loads(capsys.readouterr().err)["error_code"] == "io_error"
    assert json.loads(out.read_text())["verdict"] == "stable"


def test_cli_batch_runs_past_a_bad_ymh_entry(tmp_path):
    # the IndexError of 100 modes ended the whole manifest; 31 modes, the
    # most that fit the N = 64 grid, still run
    out = tmp_path / "ymh.json"
    entries = [
        {"command": "ymh", "instance": _shipped("torus_chain.json"), "modes": 100, "quiet": True},
        {"command": "ymh", "instance": _shipped("torus_chain.json"), "modes": 31, "out": str(out), "quiet": True},
    ]
    assert cli.main(["batch", "--manifest", write(tmp_path, "m.json", entries)]) == 1
    assert json.loads(out.read_text())["satisfied"] is True
