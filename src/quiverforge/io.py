"""Instance loading, validation, and deterministic report serialization.

Schemas (all JSON documents may carry "schema": "qf-1"):

quiver      {"vertices": [ids], "arrows": [{"id", "tail", "head",
             "twist_dim"?, "twist_weight"?}]}; twist_weight is the row-major
             matrix with [re, im] entries.
rep         {"dims": {vertex: int}, "arrows": {arrow: [slice matrices]}};
             a matrix is rows of [re, im] pairs.
params      {"sigma": {vertex: real}, "tau": {vertex: real}}
relations   {"relations": [{"terms": [{"coeff": [re, im],
             "path": [arrow ids, target-to-source]}]}]}
system      {"degrees": {vertex: int}, "weights": {arrow: {"kind":
             "constant"|"bump", ...}}, "N": int}

A key of dims, rep arrows, sigma, tau, degrees or weights that is not a
vertex or an arrow of the quiver is refused at its pointer.

Reports are exported with sorted keys and %.17g floats so identical runs
produce identical bytes.  The vortex output binary starts with the magic
b"QVTX1", then uint32 N and uint32 vertex count, then the row-major float64
potential fields in sorted vertex order (little endian).
"""
from __future__ import annotations

import cmath
import json
import math
import struct
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from .errors import SchemaError
from .quiver import Arrow, Path, Quiver, Relation, TwistSpec
from .reps import TwistedRep, build_rep
from .slope import StabilityParams
from .torus import TorusSystem, WeightSpec, build_torus_system

SCHEMA_TAG = "qf-1"


# ---------------------------------------------------------------------------
# primitive codecs


def _is_number(value) -> bool:
    """A JSON number: ``bool`` is an ``int`` subclass, but ``true`` is not
    a number."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _decode_complex(value, errs, ptr):
    if isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_number, value)):
        z = complex(value[0], value[1])
    elif _is_number(value):
        z = complex(value, 0.0)
    else:
        errs.append((ptr, "expected [re, im] pair"))
        return 0j
    if not cmath.isfinite(z):
        errs.append((ptr, f"entry must be finite, got {z}"))
        return 0j
    return z


def _decode_number(value, errs, ptr, kind=float):
    """``kind(value)`` when the value is a JSON number (not a string or a
    boolean), finite, and equal to it (an ``int`` is not truncated);
    otherwise the error is recorded and ``kind(1)`` returned, a value every
    constructor downstream accepts."""
    if _is_number(value):
        try:
            x = kind(value)
            if math.isfinite(x) and x == value:
                return x
        except (ValueError, OverflowError):
            pass
    errs.append((ptr, f"expected a finite {kind.__name__}, got {value!r}"))
    return kind(1)


def _expect(value, kind, errs, ptr, what):
    """``value`` when it is a ``kind`` (``dict`` or ``list``); otherwise the
    error is recorded and None returned."""
    if isinstance(value, kind):
        return value
    errs.append((ptr, f"expected {what}"))
    return None


def _known(section: Mapping, quiver: Quiver | None, what: str, errs: list, ptr: str):
    """(key, value, pointer) for each entry of a keyed section whose key is
    a ``what`` ("vertex" or "arrow") of ``quiver``, or for every entry when
    ``quiver`` is None; any other key is recorded as unknown at its own
    pointer."""
    if quiver is not None:
        names = quiver.vertices if what == "vertex" else {a.name for a in quiver.arrows}
    for key, value in section.items():
        if quiver is None or key in names:
            yield key, value, f"{ptr}/{key}"
        else:
            errs.append((f"{ptr}/{key}", f"unknown {what} {key!r}"))


def _build(errs: list, ptr: str, make, *args):
    """``make(*args)``, or None when it raises: a constructor's refusal
    becomes a schema error at ``ptr``."""
    try:
        return make(*args)
    except Exception as exc:
        errs.append((ptr, str(exc)))
        return None


def _decode_matrix(rows, errs, ptr):
    if not isinstance(rows, list):
        errs.append((ptr, "expected a matrix (list of rows)"))
        return np.zeros((0, 0), dtype=complex)
    out = []
    width = None
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            errs.append((f"{ptr}/{i}", "expected a row (list of entries)"))
            return np.zeros((0, 0), dtype=complex)
        if width is None:
            width = len(row)
        elif len(row) != width:
            errs.append((f"{ptr}/{i}", "ragged matrix"))
            return np.zeros((0, 0), dtype=complex)
        out.append([_decode_complex(x, errs, f"{ptr}/{i}/{j}") for j, x in enumerate(row)])
    if not out:
        return np.zeros((0, 0), dtype=complex)
    return np.asarray(out, dtype=complex)


def encode_complex(z: complex):
    return [float(np.real(z)), float(np.imag(z))]


def encode_matrix(m: np.ndarray):
    m = np.asarray(m)
    return [[encode_complex(m[i, j]) for j in range(m.shape[1])] for i in range(m.shape[0])]


# ---------------------------------------------------------------------------
# section decoders (collect all errors; raise once)


def decode_quiver(doc: Mapping, errs: list, ptr: str = "/quiver"):
    if _expect(doc, dict, errs, ptr, "a quiver object") is None:
        return None, None
    vertices = doc.get("vertices")
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        errs.append((f"{ptr}/vertices", "expected a list of vertex ids"))
        return None, None
    arrows = []
    mult = {}
    weight = {}
    arrow_docs = _expect(doc.get("arrows", []), list, errs, f"{ptr}/arrows", "a list of arrows")
    for i, a in enumerate(arrow_docs or []):
        aptr = f"{ptr}/arrows/{i}"
        if not isinstance(a, dict):
            errs.append((aptr, "expected an arrow object"))
            continue
        name = a.get("id")
        if not isinstance(name, str):
            errs.append((f"{aptr}/id", "missing arrow id"))
            continue
        tail, head = a.get("tail"), a.get("head")
        if tail not in vertices:
            errs.append((f"{aptr}/tail", f"unknown vertex {tail!r}"))
        if head not in vertices:
            errs.append((f"{aptr}/head", f"unknown vertex {head!r}"))
        if tail not in vertices or head not in vertices:
            continue
        arrows.append(Arrow(name, tail, head))
        m = _decode_number(a.get("twist_dim", 1), errs, f"{aptr}/twist_dim", int)
        if m < 1:
            errs.append((f"{aptr}/twist_dim", "twist dimension must be >= 1"))
            m = 1
        mult[name] = m
        if "twist_weight" in a:
            q = _decode_matrix(a["twist_weight"], errs, f"{aptr}/twist_weight")
            if q.shape != (m, m):
                errs.append((f"{aptr}/twist_weight", f"expected {m}x{m} matrix"))
            else:
                weight[name] = q
        else:
            weight[name] = np.eye(m, dtype=complex)
    if errs:
        return None, None
    pair = _build(errs, ptr, lambda: (Quiver(tuple(vertices), tuple(arrows)), TwistSpec(mult, weight)))
    return pair or (None, None)


def decode_rep(doc: Mapping, quiver: Quiver, twist: TwistSpec, errs: list, ptr: str = "/rep"):
    if _expect(doc, dict, errs, ptr, "a representation object") is None:
        return None
    dims_doc = doc.get("dims")
    if not isinstance(dims_doc, dict):
        errs.append((f"{ptr}/dims", "expected an object of vertex dims"))
        return None
    dims = {
        v: _decode_number(d, errs, p, int)
        for v, d, p in _known(dims_doc, quiver, "vertex", errs, f"{ptr}/dims")
    }
    slices = {}
    arrow_docs = _expect(doc.get("arrows") or {}, dict, errs, f"{ptr}/arrows", "an object of arrow slices")
    for a, mats, aptr in _known(arrow_docs or {}, quiver, "arrow", errs, f"{ptr}/arrows"):
        if not isinstance(mats, list):
            errs.append((aptr, "expected a list of slice matrices"))
            continue
        slices[a] = [_decode_matrix(m, errs, f"{aptr}/{k}") for k, m in enumerate(mats)]
    return None if errs else _build(errs, ptr, build_rep, quiver, twist, dims, slices)


def decode_params(doc: Mapping, errs: list, ptr: str = "/params", quiver: Quiver | None = None):
    if _expect(doc, dict, errs, ptr, "a params object") is None:
        return None
    sigma = doc.get("sigma")
    tau = doc.get("tau")
    if not isinstance(sigma, dict) or not isinstance(tau, dict):
        errs.append((ptr, "expected sigma and tau objects"))
        return None
    n_errs = len(errs)
    sigma = {v: _decode_number(s, errs, p) for v, s, p in _known(sigma, quiver, "vertex", errs, f"{ptr}/sigma")}
    tau = {v: _decode_number(t, errs, p) for v, t, p in _known(tau, quiver, "vertex", errs, f"{ptr}/tau")}
    return None if len(errs) > n_errs else _build(errs, ptr, StabilityParams, sigma, tau)


def decode_relations(doc: Mapping, quiver: Quiver, errs: list, ptr: str = "/relations"):
    if _expect(doc, dict, errs, ptr, "a relations object or list") is None:
        return None
    rels = []
    for i, r in enumerate(_expect(doc.get("relations", []), list, errs, ptr, "a list of relations") or []):
        if _expect(r, dict, errs, f"{ptr}/{i}", "a relation object") is None:
            continue
        terms = []
        term_docs = _expect(r.get("terms", []), list, errs, f"{ptr}/{i}/terms", "a list of terms")
        for j, t in enumerate(term_docs or []):
            tptr = f"{ptr}/{i}/terms/{j}"
            if _expect(t, dict, errs, tptr, "a term object") is None:
                continue
            coeff = _decode_complex(t.get("coeff", [1.0, 0.0]), errs, f"{tptr}/coeff")
            names = t.get("path")
            if not isinstance(names, list) or not names:
                errs.append((f"{tptr}/path", "expected a nonempty arrow list"))
                continue
            # a refused path leaves None behind an error, which skips the relation
            terms.append((coeff, _build(errs, f"{tptr}/path", Path, quiver, tuple(names))))
        if not errs and terms:
            rels.append(_build(errs, f"{ptr}/{i}", Relation, tuple(terms)))
    return rels if not errs else None


def decode_system(doc: Mapping, quiver: Quiver, params: StabilityParams, errs: list, ptr: str = "/system"):
    if _expect(doc, dict, errs, ptr, "a system object") is None:
        return None
    n = doc.get("N")
    if not isinstance(n, int) or isinstance(n, bool):
        errs.append((f"{ptr}/N", "expected an integer grid resolution"))
        return None
    degree_docs = _expect(doc.get("degrees") or {}, dict, errs, f"{ptr}/degrees", "an object of vertex degrees")
    degrees = {
        v: _decode_number(d, errs, p, int)
        for v, d, p in _known(degree_docs or {}, quiver, "vertex", errs, f"{ptr}/degrees")
    }
    weights = {}
    weight_docs = _expect(doc.get("weights") or {}, dict, errs, f"{ptr}/weights", "an object of arrow weights")
    for a, w, aptr in _known(weight_docs or {}, quiver, "arrow", errs, f"{ptr}/weights"):
        if isinstance(w, (int, float)):  # booleans too: _decode_number refuses them
            weights[a] = WeightSpec("constant", value=_decode_number(w, errs, aptr))
            continue
        if not isinstance(w, dict):
            errs.append((aptr, "expected a weight spec object or number"))
            continue
        kind = w.get("kind", "constant")
        if kind == "constant":
            value = _decode_number(w.get("value", 1.0), errs, f"{aptr}/value")
            weights[a] = WeightSpec("constant", value=value)
        elif kind == "bump":
            p, pptr = w.get("params", {}), f"{aptr}/params"
            center = p.get("center", (0.5, 0.5)) if isinstance(p, dict) else None
            if not isinstance(center, (list, tuple)) or len(center) != 2:
                errs.append((pptr, "expected an object with an [x, y] center"))
                continue
            fields = dict(
                amplitude=_decode_number(p.get("amplitude", 1.0), errs, f"{pptr}/amplitude"),
                width=_decode_number(p.get("width", 0.5), errs, f"{pptr}/width"),
                center=tuple(_decode_number(c, errs, f"{pptr}/center/{i}") for i, c in enumerate(center)),
                floor=_decode_number(p.get("floor", 0.0), errs, f"{pptr}/floor"),
            )
            if fields["width"] <= 0:
                errs.append((f"{pptr}/width", f"bump width must be positive, got {fields['width']!r}"))
                continue
            weights[a] = WeightSpec("bump", **fields)
        else:
            errs.append((f"{aptr}/kind", f"unknown weight kind {kind!r}"))
    return None if errs else _build(errs, ptr, build_torus_system, quiver, degrees, weights, params, n)


# ---------------------------------------------------------------------------
# bundles


@dataclass
class InstanceBundle:
    quiver: Quiver | None = None
    twist: TwistSpec | None = None
    rep: TwistedRep | None = None
    params: StabilityParams | None = None
    system: TorusSystem | None = None
    relations: list[Relation] | None = None
    options: dict = field(default_factory=dict)


def _merge_docs(paths, text):
    docs = []
    if text is not None:
        docs.append(("<stdin>", json.loads(text)))
    for p in paths or []:
        with open(p, "r", encoding="utf-8") as fh:
            docs.append((str(p), json.load(fh)))
    merged: dict[str, Any] = {}
    for _, doc in docs:
        if not isinstance(doc, dict):
            raise SchemaError([("/", "top-level document must be an object")])
        # a bare section file is recognized by its distinctive keys
        if "vertices" in doc and "quiver" not in doc:
            merged.setdefault("quiver", doc)
        elif "dims" in doc and "rep" not in doc:
            merged.setdefault("rep", doc)
        elif "sigma" in doc and "params" not in doc:
            merged.setdefault("params", doc)
        elif "N" in doc and "system" not in doc:
            merged.setdefault("system", doc)
        elif "relations" in doc and len(doc.keys() - {"schema", "relations"}) == 0:
            merged.setdefault("relations", doc)
        else:
            for key in ("quiver", "rep", "params", "system", "relations", "options"):
                if key in doc:
                    merged.setdefault(key, doc[key])
    return merged


def load_instance(paths=None, text=None) -> InstanceBundle:
    """Load and cross-validate an instance from files and/or a JSON string.

    All validation problems are collected and raised together as one
    :class:`SchemaError` whose entries carry JSON-pointer-style paths.
    """
    merged = _merge_docs(paths, text)
    errs: list = []
    bundle = InstanceBundle()
    if "quiver" in merged:
        bundle.quiver, bundle.twist = decode_quiver(merged["quiver"], errs)
    if "params" in merged:
        bundle.params = decode_params(merged["params"], errs, quiver=bundle.quiver)
    if bundle.quiver is not None and bundle.params is not None:
        for v in bundle.quiver.vertices:
            if v not in bundle.params.sigma:
                errs.append((f"/params/sigma/{v}", "missing vertex"))
            if v not in bundle.params.tau:
                errs.append((f"/params/tau/{v}", "missing vertex"))
    # a section whose quiver (or params) failed to decode already has its error
    if "rep" in merged:
        if "quiver" not in merged:
            errs.append(("/rep", "representation given without a quiver"))
        elif not errs:
            bundle.rep = decode_rep(merged["rep"], bundle.quiver, bundle.twist, errs)
    if "relations" in merged:
        if "quiver" not in merged:
            errs.append(("/relations", "relations given without a quiver"))
        elif not errs:
            rel_doc = merged["relations"]
            if isinstance(rel_doc, list):
                rel_doc = {"relations": rel_doc}
            bundle.relations = decode_relations(rel_doc, bundle.quiver, errs)
    if "system" in merged:
        if "quiver" not in merged or "params" not in merged:
            errs.append(("/system", "system needs a quiver and params"))
        elif not errs:
            bundle.system = decode_system(merged["system"], bundle.quiver, bundle.params, errs)
    bundle.options = dict(_expect(merged.get("options", {}), dict, errs, "/options", "an options object") or {})
    if errs:
        raise SchemaError(errs)
    return bundle


# ---------------------------------------------------------------------------
# encoders for reports


def encode_quiver(quiver: Quiver, twist: TwistSpec | None = None):
    arrows = []
    for a in quiver.arrows:
        entry = {"id": a.name, "tail": a.tail, "head": a.head}
        if twist is not None:
            m = twist.rank(a.name)
            entry["twist_dim"] = m
            q = twist.metric(a.name)
            if m != 1 or abs(q[0, 0] - 1.0) > 1e-15:
                entry["twist_weight"] = encode_matrix(q)
        arrows.append(entry)
    return {"schema": SCHEMA_TAG, "vertices": list(quiver.vertices), "arrows": arrows}


def encode_rep(rep: TwistedRep):
    return {
        "schema": SCHEMA_TAG,
        "dims": {v: rep.dims[v] for v in rep.quiver.vertices},
        "arrows": {
            a.name: [encode_matrix(s) for s in rep.slices[a.name]]
            for a in rep.quiver.arrows
        },
    }


def encode_params(params: StabilityParams):
    return {"schema": SCHEMA_TAG, "sigma": dict(params.sigma), "tau": dict(params.tau)}


def encode_metric(metric) -> dict:
    return {v: encode_matrix(m) for v, m in metric.h.items()}


def encode_witness(witness) -> dict:
    return {v: encode_matrix(b) for v, b in witness.basis.items()}


# ---------------------------------------------------------------------------
# deterministic export


def _format_float(x: float) -> str:
    return "%.17g" % x


def _render_json(obj, out: list[str]):
    if obj is None or obj is True or obj is False:
        out.append(json.dumps(obj))
    elif isinstance(obj, float):
        out.append(_format_float(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (np.floating,)):
        out.append(_format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _render_json(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _render_json(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def export_report(report, fmt: str = "json") -> bytes:
    """Deterministic bytes: sorted keys, %.17g floats; csv rows for lists."""
    if fmt == "json":
        out: list[str] = []
        _render_json(report, out)
        return "".join(out).encode()
    if fmt == "csv":
        header = report.get("columns", [])
        rows = report.get("rows", [])
        lines = [",".join(header)]
        for row in rows:
            cells = []
            for x in row:
                if isinstance(x, float) or isinstance(x, np.floating):
                    cells.append(_format_float(float(x)))
                else:
                    cells.append(str(x))
            lines.append(",".join(cells))
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown format {fmt!r}")


def flow_log_csv(report) -> bytes:
    return export_report(
        {
            "columns": ["iter", "kempf_ness", "residual_norm", "step", "s_norm"],
            "rows": [list(row) for row in report.iter_log],
        },
        "csv",
    )


def newton_log_csv(result) -> bytes:
    return export_report(
        {
            "columns": ["iter", "sup_residual", "damping"],
            "rows": [list(row) for row in result.history],
        },
        "csv",
    )


# ---------------------------------------------------------------------------
# vortex potential binary

QVTX_MAGIC = b"QVTX1"


def write_potential_binary(path, state, vertex_order=None) -> None:
    vertices = sorted(state.u) if vertex_order is None else list(vertex_order)
    n = next(iter(state.u.values())).shape[0]
    with open(path, "wb") as fh:
        fh.write(QVTX_MAGIC)
        fh.write(struct.pack("<II", n, len(vertices)))
        for v in vertices:
            fh.write(np.ascontiguousarray(state.u[v], dtype="<f8").tobytes())


def read_potential_binary(path, vertex_order):
    """Potential fields of a QVTX1 file, keyed by ``vertex_order``.

    Raises :class:`SchemaError` on a bad magic, a vertex count other than
    ``len(vertex_order)``, or a length other than the header's N promises
    (a truncated file or trailing bytes).
    """
    with open(path, "rb") as fh:
        data = fh.read()
    header = len(QVTX_MAGIC) + 8
    if data[: len(QVTX_MAGIC)] != QVTX_MAGIC:
        raise SchemaError([("/", f"bad magic {data[:len(QVTX_MAGIC)]!r}")])
    if len(data) < header:
        raise SchemaError([("/", f"file ends inside the header after {len(data)} bytes")])
    n, count = struct.unpack_from("<II", data, len(QVTX_MAGIC))
    if count != len(vertex_order):
        raise SchemaError([("/", f"vertex count {count} != {len(vertex_order)}")])
    want = header + 8 * n * n * count
    if len(data) != want:
        raise SchemaError([("/", f"file has {len(data)} bytes, N = {n} and {count} vertices need {want}")])
    fields = np.frombuffer(data, dtype="<f8", offset=header).reshape(count, n, n)
    return {v: fields[i].copy() for i, v in enumerate(vertex_order)}
