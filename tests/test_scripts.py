import csv
import runpy
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_torus_bump_demo_runs(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["torus_bump_demo.py", "--n", "32"])
    with pytest.raises(SystemExit) as info:
        runpy.run_path(str(SCRIPTS / "torus_bump_demo.py"), run_name="__main__")
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert "Newton steps per grid: 64x64 " in out
    assert "CG iterations per grid: 64x64 " in out


def _run_kronecker_family(monkeypatch, *args):
    monkeypatch.setattr(sys, "argv", ["kronecker_family.py", *args])
    with pytest.raises(SystemExit) as info:
        runpy.run_path(str(SCRIPTS / "kronecker_family.py"), run_name="__main__")
    return info.value.code


def test_kronecker_family_matches_closed_form(monkeypatch, tmp_path):
    out = tmp_path / "sweep.csv"
    assert _run_kronecker_family(monkeypatch, "--phi", "1.5", "--out", str(out)) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    positive = [r for r in rows if float(r["t"]) > 0]
    assert len(positive) == 4
    for r in positive:
        # the flow stops at residual 1e-10; the ratio is printed to 10 places
        assert r["status"] == "converged"
        assert float(r["metric_ratio"]) == pytest.approx(float(r["closed_form"]), abs=1e-9)
    assert all(r["status"] == "diverged" for r in rows if float(r["t"]) < 0)


@pytest.mark.parametrize(
    # --steps -1 was a ValueError traceback from np.linspace
    "args", [("--steps", "0"), ("--t-min", "0", "--t-max", "0", "--steps", "1"), ("--steps", "-1")]
)
def test_kronecker_family_refuses_an_empty_sweep(monkeypatch, capsys, args):
    assert _run_kronecker_family(monkeypatch, *args) == 1
    assert "empty sweep" in capsys.readouterr().err


def test_kronecker_family_has_no_closed_form_without_an_arrow_map(monkeypatch, tmp_path):
    # phi = 0 splits the pair, so every t != 0 diverges; the closed form
    # t/|phi|^2 read inf, with a divide-by-zero warning
    out = tmp_path / "sweep.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run_kronecker_family(monkeypatch, "--phi", "0", "--steps", "3", "--out", str(out)) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["status"] for r in rows] == ["diverged", "diverged"]
    assert [r["closed_form"] for r in rows] == ["", ""]


def test_oracle_digest_prints_one_line_per_call(monkeypatch, capsys):
    # the script puts src/ and bench/ on sys.path and wraps library
    # functions, the End(V) family and invariant_complement here; restore
    # them afterwards, with recorders under the wrappers
    from quiverforge import flow, stability

    monkeypatch.setattr(sys, "path", list(sys.path))
    members, complements = [], []
    family, complement = stability._endomorphism_family, stability.invariant_complement

    def recorded(*args):
        for w in family(*args):
            members.append(w)
            yield w

    monkeypatch.setattr(stability, "_endomorphism_family", recorded)
    monkeypatch.setattr(stability, "invariant_complement", lambda *args: complements.append(args) or complement(*args))
    monkeypatch.setattr(sys, "argv", ["oracle_digest.py", "--limit", "10"])
    with pytest.raises(SystemExit) as info:
        runpy.run_path(str(SCRIPTS / "oracle_digest.py"), run_name="__main__")
    assert info.value.code == 0
    out, err = capsys.readouterr()
    rows = [line.split() for line in out.splitlines()]
    calls = [r for r in rows if r[0] != "count"]
    # ten calls from each of six families: the criterion-4, twisted and
    # three-vertex draws, the two point passes and the planted sweep
    assert [name for name, _, _ in calls[:5]] == [
        "criterion4-5000-s0", "criterion4-5000-s1", "criterion4-5000-s2", "criterion4-5001-s0", "criterion4-5001-s1"
    ]
    assert [name for name, _, _ in calls[30:40]] == [f"pass1-criterion4-{k}" for k in range(10)]
    assert [name for name, _, _ in calls[40:50]] == [f"pass7919-criterion4-{k}" for k in range(10)]
    assert [name for name, _, _ in calls[50:]] == [f"planted-{k}" for k in range(10)]
    assert all(len(digest) == 12 for _, _, digest in calls)
    counts = {tag: int(n) for _, tag, n in rows[len(calls):]}
    assert counts == {tag: sum(1 for _, t, _ in calls if t == tag) for tag in counts}
    assert sum(counts.values()) == len(calls) == 60
    # the oracle's CPU time goes to stderr, out of the diffable digest; then
    # the End(V) members it read and its invariant_complement calls, as the
    # recorders under the script's wrappers saw them
    (label, seconds), counted_members, counted_complements = [line.split() for line in err.splitlines()]
    assert label == "oracle_cpu_s" and float(seconds) >= 0
    assert counted_members == ["members", str(len(members))]
    assert counted_complements == ["complements", str(len(complements))]
    assert members and complements

    # --flow: one "name status stop iterations hash dims:slope..." line per call;
    # the script wraps filtration_steps, the proof reading and the polish in
    # the library modules, so restore them
    for owner in (flow, stability):
        monkeypatch.setattr(owner, "filtration_steps", owner.filtration_steps)
    readings, polishes = [], []
    for attr, seen in (("_certifies_instability", readings), ("_polish_invariant", polishes)):
        call = getattr(flow, attr)
        monkeypatch.setattr(flow, attr, lambda *args, call=call, seen=seen: seen.append(args) or call(*args))
    monkeypatch.setattr(sys, "argv", ["oracle_digest.py", "--limit", "10", "--flow"])
    with pytest.raises(SystemExit) as info:
        runpy.run_path(str(SCRIPTS / "oracle_digest.py"), run_name="__main__")
    assert info.value.code == 0
    out, err = capsys.readouterr()
    rows = [line.split() for line in out.splitlines()]
    assert [r[0] for r in rows] == [name for name, _, _ in calls]
    for name, status, stop, iterations, digest, *steps in rows:
        assert (status, stop) in {
            ("converged", "tol"), ("diverged", "certificate"), ("diverged", "no-complement"),
            ("max-iter", "max-iter"), ("max-iter", "line-search"),
        }
        assert int(iterations) >= 0
        assert len(digest) == 12 and int(digest, 16) >= 0
        # a diverged flow always yields its proof among the extracted steps
        assert bool(steps) == (status == "diverged")
        for step in steps:
            dims, slope = step.split(":")
            assert all(d.isdigit() for d in dims.split(",")) and np.isfinite(float(slope))
    # the readings' CPU time is part of the flows' and goes beside it; then
    # the counts of proof readings and of polishes, extraction's included,
    # as the recorders under the script's wrappers saw them
    (flow_label, flow_seconds), (read_label, read_seconds), counted, polished = [line.split() for line in err.splitlines()]
    assert (flow_label, read_label) == ("flow_cpu_s", "read_cpu_s")
    assert 0 < float(read_seconds) <= float(flow_seconds)
    assert counted == ["readings", str(len(readings))] and polished == ["polishes", str(len(polishes))]
    assert readings and polishes
