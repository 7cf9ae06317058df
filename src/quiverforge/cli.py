"""Command line front end.

Exit codes: 0 for positive verdicts (stable/polystable, converged, solved,
identity satisfied, relations satisfied); 2 for mathematically meaningful
negatives (unstable, strictly semistable, undecided, diverged, Newton
stall, max-iter, identity violated); 1 for errors, among them arguments
that do not parse, a tolerance that is not finite and positive and a
negative seed; each error writes one JSON line {"error", "error_code"} on
stderr, ``usage_error`` for arguments that do not parse.  All randomness
flows from --seed (default 0, never time-based); ``check`` draws none, and
the coefficients of the oracle's generic endomorphism are constants, not
drawn from --seed.
"""
import argparse
import functools
import json
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import io as qio
from .errors import (
    NewtonStall,
    NonpositiveScale,
    NoSeparation,
    QuiverforgeError,
    SchemaError,
    UsageError,
    check_seed,
    check_tolerance,
)
from .flow import (
    FlowOptions,
    MetricState,
    flow_solve,
    moment_map_residual,
    residual_norm_h,
)
from .quiver import check_relations
from .reps import tensor_product
from .slope import StabilityParams
from .stability import OracleOptions, destabilizer_extract, stability_oracle
from .torus import PotentialState, solve_vortex, ymh_identity

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NEGATIVE = 2


def _writeout(args, payload, stdout_only=False):
    """Export ``payload`` under the schema tag and the command's name, to
    --out unless ``stdout_only``, else to stdout unless --quiet."""
    data = qio.export_report({"schema": qio.SCHEMA_TAG, "command": args.command, **payload}, "json")
    if args.out and not stdout_only:
        with open(args.out, "wb") as fh:
            fh.write(data)
    elif not args.quiet:
        sys.stdout.write(data.decode() + "\n")


def _log(args, csv, result):
    """Write the iteration log ``csv(result)`` to --log when given."""
    if args.log:
        with open(args.log, "wb") as fh:
            fh.write(csv(result))


def _load(args, need=()):
    paths = []
    text = None
    for attr in ("instance", "quiver", "rep", "params", "system", "relations_file"):
        p = getattr(args, attr, None)
        if p == "-":
            text = sys.stdin.read()
        elif p:
            paths.append(p)
    bundle = qio.load_instance(paths or None, text)
    missing = [k for k in need if getattr(bundle, k) is None]
    if missing:
        raise QuiverforgeError(f"instance is missing: {', '.join(missing)}")
    return bundle


def _cmd_check(args):
    bundle = _load(args, need=("quiver", "rep", "params"))
    options = OracleOptions(seed=args.seed)
    verdict = stability_oracle(bundle.rep, bundle.params, options)
    payload = {
        "verdict": verdict.tag,
        "slope": verdict.slope,
        "certificate_source": verdict.certificate_source,
    }
    if verdict.witness is not None:
        payload["witness"] = qio.encode_witness(verdict.witness)
        payload["witness_slope"] = verdict.witness_slope
    _writeout(args, payload)
    return EXIT_OK if verdict.tag in ("stable", "polystable") else EXIT_NEGATIVE


def _cmd_flow(args):
    bundle = _load(args, need=("quiver", "rep", "params"))
    opts = FlowOptions(
        tol=args.tol, max_iter=args.max_iter, seed=args.seed, init_scale=args.init_scale
    )
    report = flow_solve(bundle.rep, bundle.params, opts)
    payload = {
        "status": report.status,
        "residual_norm": report.residual_norm,
        "iterations": report.iterations,
        "monotone": report.monotone,
        "metric": qio.encode_metric(report.final_metric),
    }
    if report.status == "diverged":
        try:
            steps = destabilizer_extract(bundle.rep, bundle.params, report)
            payload["filtration"] = [
                {
                    "witness": qio.encode_witness(s.witness),
                    "slope": s.slope,
                    "boundary": s.boundary,
                }
                for s in steps
            ]
        except NoSeparation as exc:
            payload["filtration"] = []
            payload["extraction_error"] = exc.code
            payload["limit_spectrum"] = [float(x) for x in (exc.spectrum or [])]
    _log(args, qio.flow_log_csv, report)
    _writeout(args, payload)
    return EXIT_OK if report.converged else EXIT_NEGATIVE


def _cmd_vortex(args):
    bundle = _load(args, need=("quiver", "params", "system"))
    try:
        result = solve_vortex(bundle.system, tol=args.tol, max_newton=args.max_newton)
    except NewtonStall as stall:
        if stall.history:
            _log(args, qio.newton_log_csv, stall)
        residual = stall.history[-1][1] if stall.history else float("nan")
        _writeout(args, {"status": "stall", "sup_residual": residual, "error_code": stall.code})
        return EXIT_NEGATIVE
    if args.out:
        qio.write_potential_binary(args.out, result.state, sorted(bundle.system.quiver.vertices))
    _log(args, qio.newton_log_csv, result)
    summary = dict(
        status="converged",
        sup_residual=result.sup_residual,
        newton_iterations=result.iterations,
        levels=[[n, steps] for n, steps in result.levels],
    )
    _writeout(args, summary, stdout_only=True)
    return EXIT_OK


def _cmd_tensor(args):
    left = qio.load_instance([p for p in (args.quiver, args.rep, args.params) if p])
    right = qio.load_instance([p for p in (args.quiver2 or args.quiver, args.rep2, args.params2) if p])
    for b, side in ((left, "left"), (right, "right")):
        if b.rep is None or b.params is None:
            raise QuiverforgeError(f"{side} instance needs a rep and params")
    product = tensor_product(left.rep, right.rep)
    tau = {v: left.params.tau[v] + right.params.tau[v] for v in product.quiver.vertices}
    params = StabilityParams(dict(left.params.sigma), tau)
    payload = {
        "dims": dict(product.dims),
        "tau": tau,
        "rep": qio.encode_rep(product),
    }
    code = EXIT_OK
    if args.verify:
        check_tolerance("verify-tol", args.verify_tol)
        opts = FlowOptions(tol=args.tol, max_iter=args.max_iter, seed=args.seed)
        rl = flow_solve(left.rep, left.params, opts)
        rr = flow_solve(right.rep, right.params, opts)
        if not (rl.converged and rr.converged):
            payload["verified"] = False
            payload["status"] = f"factors: {rl.status}/{rr.status}"
            code = EXIT_NEGATIVE
        else:
            h = {
                v: np.kron(rl.final_metric.h[v], rr.final_metric.h[v])
                for v in product.quiver.vertices
            }
            metric = MetricState(h)
            m = moment_map_residual(product, metric, params)
            res = residual_norm_h(product, metric, m)
            payload["verified"] = bool(res <= args.verify_tol)
            payload["product_residual"] = res
            code = EXIT_OK if res <= args.verify_tol else EXIT_NEGATIVE
    _writeout(args, payload)
    return code


def _cmd_ymh(args):
    bundle = _load(args, need=("quiver", "params", "system"))
    system = bundle.system
    check_seed(args.seed)
    n = system.grid.n
    if not 0 <= args.modes <= (n - 1) // 2:
        # 2 modes + 1 frequencies per axis fit the N-point grid without aliasing
        raise QuiverforgeError(f"modes must be in 0..{(n - 1) // 2} on a grid of N = {n}, got {args.modes}")
    rng = np.random.default_rng(args.seed)
    if args.state:
        u = qio.read_potential_binary(args.state, sorted(system.quiver.vertices))
        for f in u.values():
            if f.shape != (n, n):
                raise SchemaError([("/N", f"state grid N = {f.shape[0]} differs from the system's N = {n}")])
        state = PotentialState(u)
    else:
        state = PotentialState({v: np.zeros((n, n)) for v in system.quiver.vertices})
    phi = {}
    for a in system.quiver.arrows:
        if system.degrees[a.tail] == 0 and system.degrees[a.head] == 0:
            phi[a.name] = _random_smooth(rng, n, args.modes)
    report = ymh_identity(system, state, phi, tol=args.tol)
    payload = {
        "lhs": report.lhs,
        "rhs": report.rhs,
        "mismatch": report.mismatch,
        "satisfied": report.satisfied,
        "synthetic_weights": report.synthetic_weights,
    }
    _writeout(args, payload)
    return EXIT_OK if report.satisfied else EXIT_NEGATIVE


def _random_smooth(rng, n, modes):
    spec = np.zeros((n, n), dtype=complex)
    for i in range(-modes, modes + 1):
        for j in range(-modes, modes + 1):
            spec[i, j] = rng.normal() + 1j * rng.normal()
    f = np.fft.ifft2(spec)
    return f / max(1e-12, np.abs(f).max())


def _cmd_relations(args):
    bundle = _load(args, need=("quiver", "rep", "relations"))
    reports = check_relations(bundle.rep, bundle.relations, tol=args.tol)
    payload = {
        "residuals": [r.residual for r in reports],
        "satisfied": all(r.satisfied for r in reports),
    }
    _writeout(args, payload)
    return EXIT_OK if payload["satisfied"] else EXIT_NEGATIVE


def _run_manifest(args):
    """Run every manifest entry in isolation: an entry whose arguments do not
    parse, or that is not an object with a ``command`` other than ``batch``
    (a manifest could name itself), reports an error (exit 1) and the
    remaining entries still run.  ``true`` values pass a bare flag;
    ``false`` and ``null`` values omit the flag.  Every entry goes through
    ``main`` and so shares the process's one parser."""
    if args.jobs < 1:
        raise NonpositiveScale(f"jobs must be a positive integer, got {args.jobs}")
    with open(args.manifest, "r", encoding="utf-8") as fh:
        entries = json.load(fh)
    if not isinstance(entries, list):
        raise SchemaError([("/", "manifest must be a list of entries")])

    def run(index, entry):
        if not isinstance(entry, dict) or "command" not in entry or entry["command"] == "batch":
            message = "entry must be an object with a command other than batch"
            return _report_error(SchemaError([(f"/{index}", message)]))
        argv = [str(entry["command"])]
        for key, val in entry.items():
            if key == "command" or val is False or val is None:
                continue
            argv.append(f"--{key.replace('_', '-')}")
            if val is not True:
                argv.append(str(val))
        return main(argv)

    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            codes = list(pool.map(run, range(len(entries)), entries))
    else:
        codes = [run(i, e) for i, e in enumerate(entries)]
    return max(codes, default=EXIT_OK)


def _add_common(p):
    p.add_argument("--instance", help="combined instance JSON")
    p.add_argument("--quiver", help="quiver/twist JSON")
    p.add_argument("--rep", help="representation JSON")
    p.add_argument("--params", help="stability parameter JSON")
    p.add_argument("--out", help="report output path")
    p.add_argument("--log", help="CSV iteration log path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quiet", action="store_true")


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as :class:`UsageError`, for the one JSON error
    line, instead of printing the usage text; subcommand parsers inherit
    the class."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="quiverforge")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="stability verdict by subobject enumeration")
    _add_common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("flow", help="metric existence by the Kempf-Ness flow")
    _add_common(p)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=5000)
    p.add_argument("--init-scale", type=float, default=0.0)
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("vortex", help="solve the torus vortex system")
    _add_common(p)
    p.add_argument("--system", help="torus system JSON")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-newton", type=int, default=30)
    p.set_defaults(func=_cmd_vortex)

    p = sub.add_parser("tensor", help="tensor product of two instances")
    _add_common(p)
    p.add_argument("--quiver2", help="second quiver JSON (defaults to --quiver)")
    p.add_argument("--rep2", required=True)
    p.add_argument("--params2", required=True)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--verify-tol", type=float, default=1e-8)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=5000)
    p.set_defaults(func=_cmd_tensor)

    p = sub.add_parser("ymh", help="energy-splitting identity check")
    _add_common(p)
    p.add_argument("--system", help="torus system JSON")
    p.add_argument("--state", help="potential binary (QVTX1) for the metric")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--modes", type=int, default=4)
    p.set_defaults(func=_cmd_ymh)

    p = sub.add_parser("relations", help="relation residuals of a representation")
    _add_common(p)
    p.add_argument("--relations-file", dest="relations_file", help="relations JSON")
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=_cmd_relations)

    p = sub.add_parser("batch", help="run a manifest of instances")
    p.add_argument("--manifest", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_run_manifest)
    return ap


# built on first use, then shared by every main call of the process, batch
# entries and their threads included: parsing reads the parser, never changes it
_parser = functools.cache(build_parser)


def _report_error(exc: Exception) -> int:
    """One JSON line on stderr; an error without a code (OSError, bad JSON,
    a file that is not UTF-8) is an ``io_error``."""
    payload = {"error": str(exc), "error_code": getattr(exc, "code", "io_error")}
    sys.stderr.write(qio.export_report(payload, "json").decode() + "\n")
    return EXIT_ERROR


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse printed the help
        return EXIT_OK if exc.code in (0, None) else EXIT_ERROR
    except (QuiverforgeError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        return _report_error(exc)


if __name__ == "__main__":
    raise SystemExit(main())
