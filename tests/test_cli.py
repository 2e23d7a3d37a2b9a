"""Command-line interface: output schemas and exit codes."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from helpers import entries, tolerance
from hypothesis import assume, example, given, settings, strategies as st

from magdirac import bounds, cli, torus
from magdirac.lattice import Lattice
from magdirac.spectrum import Spectrum
from magdirac.torus import SpinCData


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_sphere_json_schema_and_roundtrip(capsys):
    code, out, _ = run(capsys, "sphere", "--t", "0.5", "--cutoff", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["t"] == 0.5 and payload["cutoff"] == 3.0
    entries = payload["eigenvalues"]
    assert entries[0]["value"] == 0.5 - np.sqrt(10.25)  # repr round-trip
    assert entries[0]["multiplicity"] == 3
    assert entries[0]["labels"] == [["branch", 2, 1, -1]]


def test_sphere_table_and_csv(capsys):
    code, out, _ = run(capsys, "sphere", "--t", "0", "--cutoff", "2")
    assert code == 0 and "families" in out
    code, out, _ = run(capsys, "sphere", "--t", "0", "--cutoff", "2", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "value,multiplicity,labels"
    assert lines[1] == "-1.5,2,branch:k=1:p=0:s=-1"
    assert lines[2].startswith("1.5,2,")
    assert "plus:k=0" in lines[2] and "minus:k=0" in lines[2]


def test_sphere_exclusive_formats(capsys):
    code, _, err = run(capsys, "sphere", "--t", "0", "--json", "--csv")
    assert code == 1
    assert "not allowed" in err


def test_sphere_curve_csv_columns_and_window(capsys):
    code, out, _ = run(
        capsys, "sphere-curve", "--t-range", "-1:1:3", "--k-max", "2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,family,k,p,sign,value"
    body = [ln.split(",") for ln in lines[1:]]
    assert all(len(row) == 6 for row in body)
    assert all(-5.0 <= float(row[5]) <= 5.0 for row in body)
    ts = {float(row[0]) for row in body}
    assert ts == {-1.0, 0.0, 1.0}

    code, out_all, _ = run(
        capsys, "sphere-curve", "--t-range", "0:0:1", "--k-max", "1",
        "--window", "none",
    )
    assert code == 0
    assert len(out_all.strip().splitlines()) == 1 + 6  # header + all members


def test_collisions_json_contains_worked_example(capsys):
    code, out, _ = run(capsys, "collisions", "--k-max", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    rows = {
        (r["k"], r["p"], r["k2"], r["p2"]): r for r in payload["collisions"]
    }
    hit = rows[(1, 0, 2, 1)]
    assert hit["t"] == -2.5 and hit["f0"] == 10.25


def test_torus_json_schema(capsys):
    code, out, _ = run(
        capsys, "torus", "--basis", "[[1,0],[0,1]]", "--delta", "1,0",
        "--cutoff", "7",
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"eigenvalues", "zero_mode"}
    assert payload["zero_mode"] is None
    values = [e["value"] for e in payload["eigenvalues"]]
    assert values == sorted(values)
    assert payload["eigenvalues"][0]["modes"] == [[-1, 0], [0, 0]]
    assert payload["eigenvalues"][0]["multiplicity"] == 2


def test_torus_zero_mode_and_flux(capsys):
    code, out, _ = run(
        capsys, "torus", "--basis", "[[1,0],[0,1]]", "--delta", "0,0",
        "--cutoff", "5",
    )
    assert code == 0
    assert json.loads(out)["zero_mode"] == [0, 0]

    code, out, _ = run(
        capsys, "torus", "--basis", "[[1]]", "--delta", "1",
        "--flux", str(2 * np.pi), "--cutoff", "9",
    )
    assert code == 0
    payload = json.loads(out)
    # flux 2 pi shifts theta' by 1/2; with delta = 1 the modes land on
    # integers, so a zero mode appears and values are multiples of 2 pi
    assert payload["zero_mode"] == [-1]
    values = [e["value"] for e in payload["eigenvalues"]]
    assert all(
        abs(v - round(v / (2 * np.pi)) * 2 * np.pi) < 1e-9 for v in values
    )


def test_torus_flux_and_potential_conflict(capsys):
    code, _, err = run(
        capsys, "torus", "--basis", "[[1]]", "--A", "1", "--flux", "1",
        "--cutoff", "5",
    )
    assert code == 1 and "either" in err


def test_torus_csv(capsys):
    code, out, _ = run(
        capsys, "torus", "--basis", "[[1,0],[0,1]]", "--delta", "1,0",
        "--cutoff", "7", "--csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "value,multiplicity,modes"
    assert len(lines) == 3


def test_bounds_sphere_json(capsys):
    code, out, _ = run(capsys, "bounds", "--model", "sphere", "--t", "1.0")
    assert code == 0
    payload = json.loads(out)
    names = [b["name"] for b in payload["bounds"]]
    assert names == ["friedrich", "hijazi", "basic", "diamagnetic"]
    for b in payload["bounds"]:
        assert b["satisfied"] is True
    hij = payload["bounds"][1]
    assert hij["equality"] is True


def test_bounds_selection_and_unknown(capsys):
    code, out, _ = run(
        capsys, "bounds", "--model", "sphere", "--t", "0", "--which", "basic"
    )
    assert code == 0
    assert [b["name"] for b in json.loads(out)["bounds"]] == ["basic"]
    code, _, err = run(
        capsys, "bounds", "--model", "sphere", "--which", "magic"
    )
    assert code == 1 and "unknown bound" in err


def test_bounds_without_which_reports_the_bound_table(capsys, monkeypatch):
    # every bounds.BOUNDS name in table order, for both models; an entry
    # added to the table is reported with no other change
    for model in ("sphere", "torus"):
        code, out, _ = run(capsys, "bounds", "--model", model)
        assert code == 0 and [b["name"] for b in json.loads(out)["bounds"]] == list(bounds.BOUNDS)
    demo = lambda data, t: bounds.BoundValue("demo", 0.0, "squared")
    monkeypatch.setitem(bounds.BOUNDS, "demo", demo)
    code, out, _ = run(capsys, "bounds", "--model", "sphere", "--t", "0.5")
    assert code == 0 and [b["name"] for b in json.loads(out)["bounds"]] == list(bounds.BOUNDS)
    assert json.loads(out)["bounds"][-1]["name"] == "demo"


@pytest.mark.parametrize("which, message", [
    ("magic", "unknown bound 'magic'"), ("basic,magic", "unknown bound 'magic'"),
    (",", "bounds request names no bound"),
    ("friedrich,basic,friedrich", "repeated bound 'friedrich'")])
def test_bound_refusals_list_the_bound_table(capsys, which, message):
    code, out, err = run(capsys, "bounds", "--model", "sphere", "--which", which)
    assert (code, out) == (1, "")
    assert err == f"error: {message}; choose from {', '.join(bounds.BOUNDS)}\n"


def test_bounds_torus_reports_inapplicable(capsys):
    code, out, _ = run(
        capsys, "bounds", "--model", "torus", "--basis", "[[1,0],[0,1]]",
        "--delta", "1,0", "--cutoff", "8",
    )
    assert code == 0
    payload = json.loads(out)
    by_name = {b["name"]: b for b in payload["bounds"]}
    assert by_name["friedrich"]["satisfied"] is True
    for name in ("hijazi", "basic", "diamagnetic"):
        assert by_name[name]["applicable"] is False
        assert by_name[name]["reason"]
    # the bound needs only an eigenspinor of the plain operator, and every
    # plane wave is one: what is missing is the evaluation, not a hypothesis
    assert by_name["diamagnetic"]["reason"] == "its evaluation on flat tori is not implemented yet"

    # the circle (default basis [[1]]): Friedrich needs n >= 2 too
    code, out, _ = run(capsys, "bounds", "--model", "torus")
    assert code == 0
    by_name = {b["name"]: b for b in json.loads(out)["bounds"]}
    assert list(by_name) == ["friedrich", "hijazi", "basic", "diamagnetic"]
    assert all(b["applicable"] is False and b["reason"] for b in by_name.values())
    assert by_name["friedrich"]["reason"] == "needs dimension >= 2, got n=1"

    # each row is the library evaluator's, in every dimension: whether a bound
    # applies, and why not, is decided in bounds.py alone
    for n in range(1, 5):
        A = [0.5 * (i + 1) for i in range(n)]
        code, out, _ = run(capsys, "bounds", "--model", "torus", "--basis",
                           json.dumps(np.eye(n).tolist()), "--A", ",".join(map(str, A)),
                           "--cutoff", "4")
        assert code == 0
        rows = json.loads(out)["bounds"]
        data = bounds.torus_data(np.eye(n), np.array(A) / 2.0)
        for w, row in zip(bounds.BOUNDS, rows, strict=True):
            bv = bounds.BOUNDS[w](data, 1.0)
            assert row["name"] == bv.name == w
            if bv.vacuous:
                assert row == {"name": w, "applicable": False, "reason": bv.reason}, (n, w)
            else:
                assert "applicable" not in row and row["bound"] == bv.value, (n, w)


def test_a_bounds_model_is_one_row(capsys, monkeypatch):
    # round S^5 at t = 0 (lambda_1 = 5/2): a model that returns its head,
    # data, coupling and reference, with no word on which bounds apply
    vol = math.pi**3
    data = bounds.GeometricData(n=5, S=20.0, dEta_norm=0.0, yamabe=20.0 * vol ** 0.4,
                                vol=vol, eta_Ln=0.0, eta_Linf=0.0, oneill_b=0.0)
    model = lambda bounds, ns: ({"model": "sphere5"}, data, 0.0, 2.5, None)
    monkeypatch.setitem(cli._BOUND_MODELS, "sphere5", ((), model))
    code, out, err = run(capsys, "bounds", "--model", "sphere5")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["model"] == "sphere5"
    rows = {b["name"]: b for b in payload["bounds"]}
    # the round spheres are the equality cases of Friedrich and Hijazi
    for name in ("friedrich", "hijazi"):
        assert rows[name]["satisfied"] is True and rows[name]["equality"] is True, rows[name]
    for name in ("basic", "diamagnetic"):
        assert rows[name] == {"name": name, "applicable": False,
                              "reason": bounds.BOUNDS[name](data, 0.0).reason}
    assert "n=5" in rows["basic"]["reason"] and "n=5" in rows["diamagnetic"]["reason"]


def test_a_torus_bound_of_any_form_is_checked_against_its_reference(capsys, monkeypatch):
    # lambda_1 of the torus model is the least |value|: an upper_squared
    # bound takes its square, an absolute one takes it as it is
    data = SpinCData(Lattice.from_rows(np.eye(2)), [1, 0], [0.0, 0.0], np.zeros(2))
    lam1 = torus.spectrum(data, 20.0).min_abs()
    assert lam1 > 0.0
    for evaluator, form, reference in (
            (lambda data, t: bounds.diamagnetic_upper(3.0, 0.0, data.eta_Linf, t),
             "upper_squared", lam1**2),
            (lambda data, t: bounds.BoundValue("diamagnetic", 1.0, "absolute"), "absolute", lam1)):
        monkeypatch.setitem(bounds.BOUNDS, "diamagnetic", evaluator)
        code, out, err = run(capsys, "bounds", "--model", "torus", "--basis", "[[1,0],[0,1]]",
                             "--delta", "1,0", "--which", "diamagnetic")
        assert (code, err) == (0, "")
        [row] = json.loads(out)["bounds"]
        assert (row["form"], row["reference"]) == (form, reference)


def test_a_bound_with_no_reference_is_refused(capsys, monkeypatch):
    # the torus model has no basic spectrum, so a first_positive bound that
    # applies there has nothing to be checked against
    monkeypatch.setitem(bounds.BOUNDS, "basic",
                        lambda data, t: bounds.BoundValue("basic", 1.0, "first_positive"))
    code, out, err = run(capsys, "bounds", "--model", "torus", "--which", "basic")
    assert (code, out) == (1, "")
    assert err == "error: bounds --model torus has no reference for basic\n"


def test_verify_sphere_blocks_cli(capsys):
    code, out, _ = run(
        capsys, "verify", "sphere-blocks", "--k-max", "4",
        "--t-grid", "-1:1:3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True and payload["max_residual"] < 1e-12


def test_verify_torus_modes_cli(capsys):
    code, out, _ = run(
        capsys, "verify", "torus-modes", "--n", "2", "--samples", "10",
        "--seed", "3",
    )
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_gauge_cli_pass_and_fail(capsys):
    code, out, _ = run(
        capsys, "verify", "gauge", "--basis", "[[1,0],[0,1]]",
        "--f-terms", "[[[1,0],0.2,0.1]]", "--cutoffs", "3,5",
    )
    assert code == 0
    assert json.loads(out)["pass"] is True

    code, out, _ = run(
        capsys, "verify", "gauge", "--basis", "[[1,0],[0,1]]",
        "--f-terms", "[[[1,0],40,0]]", "--cutoffs", "3,4",
    )
    assert code == 2
    assert json.loads(out)["pass"] is False


def test_verify_gauge_checks_count_the_pairs_compared(capsys):
    # a 1-D window of cutoff c holds 2c + 1 eigenvalues: 3 and 5 at cutoffs 1
    # and 2, fewer than GAUGE_PAIRS; at 40 the ten lowest end at a gap
    code, out, _ = run(capsys, "verify", "gauge", "--basis", "[[1]]",
                       "--f-terms", "[[[1],0.01,0]]", "--cutoffs", "1,2,40")
    assert code == 0
    assert json.loads(out)["checks"] == 3 + 5 + 10


def test_invalid_inputs_exit_one(capsys):
    assert run(capsys, "sphere", "--t", "abc")[0] == 1
    assert run(capsys, "torus", "--basis", "not-json", "--cutoff", "3")[0] == 1
    assert run(capsys, "sphere-curve", "--t-range", "1:2")[0] == 1
    assert run(capsys, "sphere-curve", "--csv")[0] == 1
    assert run(capsys, "bounds", "--model", "sphere", "--json")[0] == 1
    assert run(capsys, "torus", "--basis", "[[1,2],[2,4]]", "--cutoff", "3")[0] == 1
    assert run(capsys)[0] == 1


@pytest.mark.parametrize("argv, message", [
    (("sphere-curve", "--t-range", "0:1:0"), "grid needs at least one step"),
    (("verify", "gauge", "--basis", "[[1,0],[0,1]]", "--f-terms", "[[[1,0], 0.1]]"),
     "each f-term must be"),
    (("sphere-curve", "--window", "1:2:3"), "window must be lo:hi with lo <= hi"),
    (("sphere-curve", "--window", "5:-5"), "window must be lo:hi with lo <= hi"),
    (("verify", "gauge", "--basis", "[[1,0],[0,1]]", "--f-terms", "[[[1,0],0.2,0.1]]",
      "--cutoffs", ","), "gauge check needs one or more cutoffs"),
    (("verify", "gauge", "--basis", "[[1,0],[0,1]]", "--f-terms", "[[[1,0],0.2,0.1]]",
      "--cutoffs", "0"), "gauge check needs one or more cutoffs"),
    (("verify", "torus-modes", "--samples", "0"), "torus-modes check needs samples >= 1"),
    (("verify", "torus-modes", "--samples", "-3"), "torus-modes check needs samples >= 1"),
    (("bounds", "--model", "sphere", "--which", ","), "bounds request names no bound"),
    (("verify", "gauge", "--basis", "[[1]]", "--f-terms", "[]", "--cutoffs", "3"),
     "gauge check needs a potential df"),
    (("verify", "gauge", "--basis", "[[1,0],[0,1]]", "--f-terms", "[[[1,0],0,0]]"),
     "gauge check needs a potential df"),
    (("bounds", "--model", "torus", "--basis", "[[1,0],[0,1]]", "--delta", "1,0", "--t", "5"),
     "bounds --model torus takes no --t"),
    (("bounds", "--model", "torus", "--t", "0"), "bounds --model torus takes no --t"),
    (("bounds", "--model", "sphere", "--t", "0.5", "--basis", "[[2]]", "--cutoff", "1",
      "--A", "3"), "bounds --model sphere takes no --basis, --A, --cutoff"),
    (("bounds", "--model", "sphere", "--delta", "1", "--theta", "0.5", "--flux", "1"),
     "bounds --model sphere takes no --delta, --theta, --flux"),
    # a falling residual is only expected along growing windows, and a
    # repeated cutoff would count its checks twice
    (("verify", "gauge", "--basis", "[[1,0],[0,1]]", "--f-terms", "[[[1,0],0.2,0.1]]",
      "--cutoffs", "5,3"), "gauge check needs strictly increasing cutoffs"),
    (("verify", "gauge", "--basis", "[[1,0],[0,1]]", "--f-terms", "[[[1,0],0.2,0.1]]",
      "--cutoffs", "3,5,5"), "gauge check needs strictly increasing cutoffs"),
    (("verify", "torus-modes", "--n", "0"), "dimension must be positive, got 0"),
    (("verify", "torus-modes", "--n", "-2", "--samples", "5"), "dimension must be positive"),
    (("verify", "torus-modes", "--n", "13"), "dimension 13 exceeds the supported maximum 12"),
    # samples * N^2 entries past MAX_OPERATOR_DIM^2 = 4096^2: N = 64 at n = 12, 8 at n = 6
    (("verify", "torus-modes", "--n", "12", "--samples", "4097"),
     "torus-modes check of 4097 samples at n = 12 holds 16781312 matrix entries, past the cap"),
    (("verify", "torus-modes", "--n", "6", "--samples", "262145"),
     "torus-modes check of 262145 samples at n = 6 holds 16777280 matrix entries, past the cap"),
    # the last window, 2 * 81^2 rows, is past MAX_OPERATOR_DIM = 4096
    (("verify", "gauge", "--basis", "[[1,0],[0,1]]", "--f-terms", "[[[1,0],0.2,0.1]]",
      "--cutoffs", "4,8,12,40"), "operator dimension 13122 exceeds the cap 4096"),
    # A / 4 pi past 2**52: the mode centre has lost its fractional part
    (("torus", "--basis", "[[1]]", "--A", "1e17", "--cutoff", "7", "--csv"),
     "centre coordinate 7.95775e+15 is 2**52 or more"),
    (("torus", "--basis", "[[1,0],[0,1]]", "--A", "1e25,0", "--cutoff", "3"),
     "centre coordinate 7.95775e+23 is 2**52 or more"),
    (("collisions", "--k-max", "-3", "--json"), "level must be non-negative"),
    # malformed JSON of the right syntax: no traceback, no silent guess
    (("torus", "--basis", "{}", "--cutoff", "3"),
     "--basis must be a square JSON matrix of numbers, got '{}'"),
    (("torus", "--basis", "[[1,2],[3]]", "--cutoff", "3"), "--basis must be a square JSON"),
    (("bounds", "--model", "torus", "--basis", "[[true]]"), "--basis must be a square JSON"),
    (("verify", "gauge", "--basis", "[[1]]", "--f-terms", "[[1,1,1]]"),
     "each f-term must be [freq-list, re, im] in --f-terms, got [1, 1, 1]"),
    (("verify", "gauge", "--basis", "[[1]]", "--f-terms", "{}"), "--f-terms must be a JSON list"),
    (("verify", "gauge", "--basis", "[[1]]", "--f-terms", "[[[1],null,0]]"),
     "each f-term must be [freq-list, re, im] in --f-terms"),
    (("verify", "gauge", "--basis", "[[1,0],[0,1]]", "--f-terms", "[[[1],0.1,0]]"),
     "--f-terms frequency [1] must be a list of 2 integers"),
    (("verify", "gauge", "--basis", "[[1,0],[0,1]]", "--f-terms", "[[[1.9,0],0.1,0]]"),
     "--f-terms frequency [1.9, 0] must be a list of 2 integers"),
    (("verify", "gauge", "--basis", "[[1,0],[0,1]]", "--f-terms", "[[[true,0],0.1,0]]"),
     "--f-terms frequency [true, 0] must be a list of 2 integers"),
    (("torus", "--basis", "[[1e308]]", "--cutoff", "5"), "the Gram matrix overflows float64"),
    # every unreadable value is refused with the option that carries it
    (("torus", "--basis", "[[1]]", "--delta", "x", "--cutoff", "3"),
     "--delta must be a comma-separated list of integers less than 2**63 in size, got 'x'"),
    (("torus", "--basis", "[[1]]", "--delta", "100000000000000000000", "--cutoff", "3"),
     "--delta must be a comma-separated list of integers"),
    (("torus", "--basis", "[[1]]", "--theta", "0.1,y", "--cutoff", "3"),
     "--theta must be a comma-separated list of numbers, got '0.1,y'"),
    (("torus", "--basis", "[[1]]", "--A", "z", "--cutoff", "3"),
     "--A must be a comma-separated list of numbers, got 'z'"),
    (("bounds", "--model", "torus", "--flux", "1,z"),
     "--flux must be a comma-separated list of numbers, got '1,z'"),
    (("verify", "gauge", "--basis", "[[1]]", "--f-terms", "[[[1],1,0]]", "--cutoffs", "x"),
     "--cutoffs must be a comma-separated list of integers"),
    (("sphere-curve", "--t-range", "0:1:x"),
     "--t-range must be start:stop:steps with integer steps, got '0:1:x'"),
    (("sphere-curve", "--t-range", "1:2"), "--t-range must be start:stop:steps"),
    (("verify", "sphere-blocks", "--t-grid", "x:1:2"), "--t-grid must be start:stop:steps"),
    (("verify", "sphere-blocks", "--t-grid", "0:1:0"),
     "grid needs at least one step, got 0 in --t-grid"),
    (("torus", "--basis", "not-json", "--cutoff", "3"), "--basis is not valid JSON"),
    (("verify", "gauge", "--basis", "[[1]]", "--f-terms", "[[1"), "--f-terms is not valid JSON"),
    (("verify", "gauge", "--basis", "[[1]]", "--f-terms", "[[[100000000000000000000],1,0]]"),
     "--f-terms frequency [100000000000000000000] must be a list of 1 integers"),
    (("verify", "gauge", "--basis", "[[1]]", "--f-terms", "[[[1],1e400,0]]"),
     "--f-terms coefficient [Infinity, 0] is not finite"),
    (("verify", "gauge", "--basis", "[[1]]", "--f-terms", "[[[1],0,NaN]]"),
     "--f-terms coefficient [0, NaN] is not finite"),
    (("verify", "torus-modes", "--seed", "-1"), "torus-modes check needs --seed >= 0, got -1"),
    # a frequency past twice the largest cutoff couples no two modes of any
    # window: the request would check nothing, even at 2**63 - 1
    (("verify", "gauge", "--basis", "[[1,0],[0,1]]", "--f-terms", "[[[100,0],0.1,0]]",
      "--cutoffs", "2,3"), "gauge check: the f-term at frequency [100, 0] couples no two modes"),
    (("verify", "gauge", "--basis", "[[1,0],[0,1]]", "--f-terms",
      "[[[9223372036854775807,0],0.1,0]]", "--cutoffs", "2,3"),
     "gauge check: the f-term at frequency [9223372036854775807, 0] couples no two modes"),
    (("verify", "gauge", "--basis", "[[1,0],[0,1]]", "--f-terms",
      "[[[1,0],0.1,0],[[0,-7],0.1,0]]", "--cutoffs", "2,3"),
     "gauge check: the f-term at frequency [0, -7] couples no two modes of any window; "
     "it needs |nu| <= 2 * 3"),
    # 2 pi i c nu_hat overflows: refused with no numpy warning
    (("verify", "gauge", "--basis", "[[1,0],[0,1]]", "--f-terms", "[[[1,0],1e308,0]]"),
     "coefficient for (1, 0) is not finite"),
])
def test_refusals(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and err.startswith(f"error: {message}")


def test_bounds_refuses_every_other_model_option_in_one_message(capsys):
    # the options in declaration order, whatever order they are given in
    for argv, given in ((("torus", "--t", "0", "--basis", "[[1]]"), "--t"),
                        (("sphere", "--cutoff", "1", "--basis", "[[2]]"), "--basis, --cutoff")):
        assert run(capsys, "bounds", "--model", *argv) == (
            1, "", f"error: bounds --model {argv[0]} takes no {given}\n")


def test_gauge_refusal_comes_before_any_window(capsys, monkeypatch):
    from magdirac import oracle

    def refused(*args, **kwargs):
        raise AssertionError("assembled or solved a window")

    for name in ("_assemble", "hermitian_eigs"):
        monkeypatch.setattr(oracle, name, refused)
    code, out, err = run(capsys, "verify", "gauge", "--basis", "[[1,0],[0,1]]",
                         "--f-terms", "[[[1,0],0.2,0.1]]", "--cutoffs", "4,8,12,40")
    assert code == 1 and out == "" and "operator dimension 13122 exceeds the cap" in err
    monkeypatch.setattr(oracle, "_operator_window", refused)
    code, out, err = run(capsys, "verify", "gauge", "--basis", "[[1,0],[0,1]]",
                         "--f-terms", "[[[1,0],0.2,0.1],[[0,9],0.1,0]]", "--cutoffs", "2,4")
    assert code == 1 and out == "" and "frequency [0, 9] couples no two modes" in err


def test_oversized_requests_exit_one(capsys, monkeypatch):
    from magdirac import spectrum

    monkeypatch.setattr(spectrum, "MAX_SPECTRUM_SIZE", 10)
    code, out, err = run(capsys, "sphere", "--t", "0", "--cutoff", "3")
    assert code == 1 and out == "" and "cap 10" in err
    code, out, err = run(capsys, "torus", "--basis", "[[1,0],[0,1]]", "--cutoff", "30")
    assert code == 1 and out == "" and "cap 10" in err


def test_oversized_collisions_and_curves_exit_one(capsys, monkeypatch):
    from magdirac import spectrum

    # collisions --k-max 4: 10 curves, 45 pairs; sphere-curve and verify
    # sphere-blocks on 3 couplings x levels 0..2: 36 rows
    monkeypatch.setattr(spectrum, "MAX_SPECTRUM_SIZE", 44)
    code, out, err = run(capsys, "collisions", "--k-max", "4")
    assert code == 1 and out == "" and "cap 44" in err
    monkeypatch.setattr(spectrum, "MAX_SPECTRUM_SIZE", 35)
    for argv in (("sphere-curve", "--t-range", "0:1:3"),
                 ("verify", "sphere-blocks", "--t-grid", "0:1:3")):
        code, out, err = run(capsys, *argv, "--k-max", "2")
        assert code == 1 and out == "" and "cap 35" in err
    monkeypatch.setattr(spectrum, "MAX_SPECTRUM_SIZE", 45)
    assert run(capsys, "collisions", "--k-max", "4")[0] == 0
    assert run(capsys, "sphere-curve", "--t-range", "0:1:3", "--k-max", "2")[0] == 0
    assert run(capsys, "verify", "sphere-blocks", "--t-grid", "0:1:3", "--k-max", "2")[0] == 0
    for verb in ("collisions", "sphere-curve"):  # past any float: refused, not raised
        code, out, err = run(capsys, verb, "--k-max", "1" + "0" * 400)
        assert code == 1 and out == "" and err.startswith("error:")


def test_collisions_cap_admits_k_max_52_and_refuses_53(capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("built the curve pairs")

    monkeypatch.setattr(np, "tril_indices", no_work)
    code, out, err = run(capsys, "collisions", "--k-max", "53")  # 1,023,165 pairs
    assert code == 1 and out == "" and "cap 1000000" in err
    with pytest.raises(AssertionError, match="built the curve pairs"):
        run(capsys, "collisions", "--k-max", "52")  # 948,753 pairs: past the check


def test_torus_modes_refusals_come_before_any_draw(capsys, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew a sample")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    for argv in (("--n", "0"), ("--n", "13"), ("--n", "12", "--samples", "4097"),
                 ("--n", "1", "--samples", "1000001")):
        code, out, err = run(capsys, "verify", "torus-modes", *argv)
        assert code == 1 and out == "" and err.startswith("error:")
    for argv in (("--n", "12", "--samples", "4096"), ("--n", "1", "--samples", "1000000")):
        with pytest.raises(AssertionError, match="drew a sample"):  # at the caps
            run(capsys, "verify", "torus-modes", *argv)


@pytest.mark.parametrize("argv, hint", [
    (("torus", "--basis", "[[1,0],[0,1]]", "--cutoff", "100000"), "reduce --cutoff"),
    (("sphere", "--t", "0", "--cutoff", "1000"), "reduce --cutoff or |t|"),
    (("sphere", "--t", "500"), "reduce --cutoff or |t|"),  # default cutoff 5 + |t|
    (("sphere-curve", "--t-range", "0:1:100000000"), "reduce the --t-range steps"),
    (("verify", "sphere-blocks", "--t-grid", "0:1:100000000"), "reduce the --t-grid steps"),
    (("sphere-curve", "--t-range", "0:1:1000", "--k-max", "100"),
     "reduce --k-max or the coupling grid steps"),
    (("verify", "sphere-blocks", "--t-grid", "0:1:1000", "--k-max", "100"),
     "reduce --k-max or the coupling grid steps"),
    (("collisions", "--k-max", "53"), "reduce --k-max"),
    (("verify", "torus-modes", "--n", "1", "--samples", "1000001"), "reduce --samples"),
])
def test_size_refusals_name_the_option_to_reduce(capsys, argv, hint):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and "exceed the cap 1000000" in err
    assert err.rstrip().endswith(f"; {hint}")


def test_bounds_sphere_size_refusal_names_only_the_coupling(capsys):
    # bounds --model sphere takes no --cutoff (its cutoff is 2), so its
    # refusal names |t| alone; the sphere subcommand keeps both options
    for t in ("1000", "-1000", "1e300"):
        code, out, err = run(capsys, "bounds", "--model", "sphere", "--t", t)
        assert code == 1 and out == "" and "exceed the cap 1000000" in err
        assert err.rstrip().endswith("; reduce |t|") and "--cutoff" not in err
    code, out, err = run(capsys, "sphere", "--t", "0", "--cutoff", "1e4")
    assert code == 1 and out == "" and err.rstrip().endswith("; reduce --cutoff or |t|")


def test_bounds_sphere_lambda1_at_large_coupling(capsys):
    # lambda_1 = |3/2 - 500 + 499|, from the member k = 499 of the nearest family
    for t in ("500", "-500"):
        code, out, err = run(capsys, "bounds", "--model", "sphere", "--t", t)
        assert code == 0 and err == ""
        reference = {b["form"]: b["reference"] for b in json.loads(out)["bounds"]}
        assert reference["absolute"] == 0.5 and reference["squared"] == 0.25


def test_bounds_torus_empty_spectrum_names_the_cutoff(capsys):
    # lambda_1 = 100 pi on the circle of length 0.01 with the odd spin structure
    torus_args = ("bounds", "--model", "torus", "--basis", "[[0.01]]", "--delta", "1")
    for extra, cutoff in (((), "20.0"), (("--cutoff", "300"), "300.0")):
        code, out, err = run(capsys, *torus_args, *extra)
        assert code == 1 and out == ""
        assert err == f"error: no eigenvalue has |value| <= the cutoff {cutoff}; raise --cutoff\n"
    code, out, _ = run(capsys, *torus_args, "--cutoff", "400")
    assert code == 0 and json.loads(out)["model"] == "torus"


def test_oversized_grids_are_refused_before_allocation(capsys, monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("allocated the grid")

    monkeypatch.setattr(np, "linspace", no_grid)
    for argv in (("sphere-curve", "--t-range", "0:1:10000000000000", "--k-max", "2"),
                 ("verify", "sphere-blocks", "--t-grid", "0:1:10000000000000"),
                 ("sphere-curve", "--t-range", "0:1:100000000", "--k-max", "2"),
                 ("sphere-curve", "--t-range", "0:1:1000001", "--k-max", "0")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and "grid points exceed the cap" in err


def test_non_finite_grid_endpoints_are_refused_before_the_grid(capsys):
    for option, text in (("--t-grid", "0:inf:2"), ("--t-range", "0:inf:2"),
                         ("--t-grid", "-1e308:1e308:3"), ("--t-grid", "nan:1:2")):
        verb = ("verify", "sphere-blocks") if option == "--t-grid" else ("sphere-curve",)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *verb, option, text)
        assert code == 1 and out == "" and caught == []
        assert err == f"error: {option} needs finite start, stop and stop - start, got {text!r}\n"


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_the_root_parser_formats_the_help_and_usage_of_a_request(capsys, monkeypatch):
    # build_parser returns the root with every parser built; its help and
    # usage are the bytes a help request prints
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps at the terminal width
    code, out, _ = run(capsys, "-h")
    assert code == 0 and cli.build_parser().format_help() == out
    assert cli.build_parser().format_usage() == out[:out.index("\n") + 1]
    cli.build_parser().print_help()
    assert capsys.readouterr().out == out


# sha256 of repr((exit code, stdout, stderr)) of each help and usage-error
# request at a terminal width of 80 (Python 3.11 argparse), recorded while
# every request built the whole parser tree; a request that names a command
# builds that parser alone, the rest go to the whole tree, and no byte moves
PARSER_SHA256 = {
    "":
        "eeee51e59f858a34f8375a4996343e483f974868ed09085712dad1a3160016cf",
    "-h":
        "06968f8a28b6be9368c26b31ea808a6e44ec9fd2368ac79f3031db59221395b3",
    "-h sphere":
        "06968f8a28b6be9368c26b31ea808a6e44ec9fd2368ac79f3031db59221395b3",
    "bogus":
        "eabd74901931c65f06d13dfef03f290a98417e5cbd00508029b54576d3ad4658",
    "bounds --model nope":
        "c874b95045646715df61340afe994288f3858247a5efab8bf82156dc417d80d3",
    "bounds -h":
        "8054d233eb6df28cb9cb1bc86abf197efadaf29fb40662fe873bf26eaf454996",
    "collisions --k-max x":
        "c4530ba9b7910065cf8c714635c095b2e72496a6a630d38e92e20810f17cf78e",
    "collisions -h":
        "3cfd64101d78dd035e6263b8ae4016fb5da8d0479e5e0a2ffde491c8187b61ee",
    "sphere":
        "571492c5877fc35f935d830cd9cb36ac2b050dda62bca15b02556a8a8f063b14",
    "sphere --t 1 --bogus":
        "92c2c0de516c9c692669d84b38cf737afd819aa8c284dafeecf11e0a0c1e2726",
    "sphere --t 1 --json --csv":
        "95a611cace4344de2fb1b9efbfefbaad5d8ce66f3b7f6958b931d4ae91efcd8f",
    "sphere --t x":
        "183f69c86b15e5e7dd8105523e9baaf0626267b1853ca9433b4e8b7c8f6b381c",
    "sphere -h":
        "d7dd45b72dab2e36ab028753ba2a46aff2d6f9132607aba1ce7a0f0dcf4f73fc",
    "sphere-curve --k-max 1.5":
        "ab5cbca50205fb9582ddb5789007eff19abbf7db1523e173358f23d4dfbcd157",
    "sphere-curve -h":
        "22fe40aca1a8dfda7feb41b6d0711c375e1523e5da184febd15fbda64296dd08",
    "torus --cutoff 1":
        "230c097341e646ffcac35f2ae7bc1a785e64d9cc4f2e49267b03305cb4427d6f",
    "torus -h":
        "e994ddf9f6df3b834fa9171bf00926486a31bf0fdaaf3169e51c30fdb49b42a9",
    "verify":
        "2c9bead8482bc16972d1384796ab8c4e345f3039e2e847019511f20e23b19424",
    "verify -h":
        "c82dec33a7cf276f76ec9ce48f30f281060ac3cce1cb59121be0325b3fa0f77a",
    "verify bogus":
        "e190b1f0f79eb395b7ae46ff46ee0ddc66976880952561f8bc9100c4bcde7e63",
    "verify gauge --basis [[1]]":
        "5933b6af8670b8139446b9fa19d2c4fb1c9c2bb686433c8f750045d3937b0416",
    "verify gauge -h":
        "261ef7196bd0f0d77704e17884653c826383aea0140b7db0bb1469a7ea802051",
    "verify sphere-blocks -h":
        "c5044b817af89b1bcafa27a673f4e81f77a7730afc74377affe41abf7e017290",
    "verify torus-modes --n x":
        "8d7d3a593fd0e9fb45f8dac22512f80fd4aa32f8c444acb0e8c8aa10dfec5d80",
    "verify torus-modes -h":
        "6950a9fba55346bd1bc5a9c3fd0d8d7c6fae4ab8e053fb5f1f575249a02abd06",
}
# argv shapes that go to the whole tree (a first token that is no command
# name, extra tokens, "--"), recorded the same way while every request still
# built the root parser
PARSER_SHA256.update({
    "-- sphere --t 1 --cutoff 2":
        "afb2aad7fb868c448751317c5c141a50cb2b7f386bcabf0eb6405fd00fe8b3c9",
    "sphere --t 1 extra":
        "7850626c5ab33e1dc1b7b9ddc0b60bbf088cdad520544213fe7a9568898981fd",
    "sphere -- --t 1":
        "571492c5877fc35f935d830cd9cb36ac2b050dda62bca15b02556a8a8f063b14",
    "verify sphere-blocks --k-max 2 --t-grid 0:1:2 extra":
        "7850626c5ab33e1dc1b7b9ddc0b60bbf088cdad520544213fe7a9568898981fd",
    "verify -h sphere-blocks":
        "c82dec33a7cf276f76ec9ce48f30f281060ac3cce1cb59121be0325b3fa0f77a",
    "verify gauge --basis [[1]] --f-terms [[[1],1,0]] --cutoffs 1,2 x":
        "ed9ab10febf26dc34177fc89be7621f17def28521c4ab7ffa140906914aa0067",
})


@pytest.mark.parametrize("request_line", sorted(PARSER_SHA256))
def test_help_and_usage_errors_are_pinned(capsys, monkeypatch, request_line):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps at the terminal width
    record = repr(run(capsys, *shlex.split(request_line))).encode()
    assert hashlib.sha256(record).hexdigest() == PARSER_SHA256[request_line]


# one request of each command and each verify target
ONE_OF_EACH = [
    "sphere --t 1",
    "sphere-curve",
    "collisions --k-max 3",
    "torus --basis [[1]] --cutoff 3",
    "bounds --model sphere",
    *[f"verify {target}" for target in ("sphere-blocks", "torus-modes")],
    "verify gauge --basis [[1]] --f-terms [[[1],1,0]]",
]


def _own_prog(argv) -> str:
    return "magdirac " + " ".join(argv[:2 if argv[0] == "verify" else 1])


@contextlib.contextmanager
def _constructed(monkeypatch):
    """The prog of each ArgumentParser constructed in the block, in order."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(argparse.ArgumentParser, "__init__", counted)
        yield built


@pytest.mark.parametrize("request_line", ONE_OF_EACH)
def test_a_request_builds_only_the_parsers_it_dispatches_to(capsys, monkeypatch, request_line):
    # a plain request is read from its row: no parser object exists, not
    # even its own, so a new command costs other requests nothing
    argv = request_line.split()
    with _constructed(monkeypatch) as built:
        assert run(capsys, *argv)[0] == 0
    assert built == []


def _row(path) -> tuple:
    """The row of ``_COMMANDS`` at ``path``: a command, and for verify a target."""
    row = cli._COMMANDS[path[0]]
    return row[1][path[1]] if path[0] == "verify" else row


def _row_options(path) -> list:
    """The option names that the options function of the row at ``path``
    (command, and for verify the target) declares, in order."""
    options = cli._Options()
    _row(path)[1](options)
    return list(options.options)


@pytest.mark.parametrize("request_line", ONE_OF_EACH)
def test_a_request_builds_only_its_own_options(monkeypatch, request_line):
    # _parse records one command's options, once; no parser is constructed,
    # and the root, verify and the other commands' options are never declared
    argv = request_line.split()
    own, declared, add = _row_options(_own_prog(argv).split()[1:]), [], cli._Options.add_argument
    monkeypatch.setattr(cli._Options, "add_argument",
                        lambda self, name, **kw: declared.append(name) or add(self, name, **kw))
    with _constructed(monkeypatch) as built:
        cli._parse(argv)
    assert built == [] and declared == own


def test_a_command_is_one_row(capsys, monkeypatch):
    # a row of _COMMANDS, or of verify's targets, is all a command needs:
    # main runs it on the _parse path and build_parser() lists it
    def options(p):
        p.add_argument("--word", default="hi")

    def echo(ns):
        print(ns.word)
        return 3

    monkeypatch.setitem(cli._COMMANDS, "echo", ({"help": "print the word"}, options, echo))
    monkeypatch.setitem(cli._COMMANDS["verify"][1], "word", ({}, options, cli._checked(
        lambda oracle, ns: {"word": ns.word, "pass": ns.word == "hi"})))
    with _constructed(monkeypatch) as built:
        assert run(capsys, "echo", "--word", "yo") == (3, "yo\n", "")
        assert run(capsys, "verify", "word") == (0, '{\n  "word": "hi",\n  "pass": true\n}\n', "")
        assert run(capsys, "verify", "word", "--word", "no")[:2] == (
            2, '{\n  "word": "no",\n  "pass": false\n}\n')
    assert built == []
    code, out, _ = run(capsys, "-h")
    assert code == 0 and "echo" in out and "print the word" in out
    code, out, _ = run(capsys, "verify", "-h")
    assert code == 0 and "{sphere-blocks,torus-modes,gauge,word}" in out


# the progs build_parser() constructs: the root, each command, and verify's
# targets after verify
TREE = ["magdirac", "magdirac sphere", "magdirac sphere-curve", "magdirac collisions",
        "magdirac torus", "magdirac bounds", "magdirac verify", "magdirac verify sphere-blocks",
        "magdirac verify torus-modes", "magdirac verify gauge"]


@pytest.mark.parametrize("request_line, own", [
    ("-h", []),
    ("bogus", []),
    ("-- sphere --t 1", []),
    ("sphere --t 1 extra", []),
    ("verify", []),
    ("verify -h", []),
    ("verify bogus", []),
    ("verify sphere-blocks extra", []),
])
def test_help_and_usage_errors_build_the_root_once(capsys, monkeypatch, request_line, own):
    # the parsers built before the whole tree (own: none, since a command's
    # options are read from its row), then the tree once, which prints the
    # help or the error under the usage of the root, verify or the command
    with _constructed(monkeypatch) as built:
        assert run(capsys, *request_line.split())[0] in (0, 1)
    assert built == own + TREE


# each command and verify target with its required options only, so every
# default shows, and with every option given
EVERY_OPTION = [
    "sphere --t 0.5", "sphere --t 0.5 --cutoff 3 --json", "sphere --t 0.5 --csv",
    "sphere-curve", "sphere-curve --t-range 0:1:3 --k-max 2 --window none",
    "collisions --k-max 2", "collisions --k-max 2 --json",
    "torus --basis [[1]] --cutoff 2",
    "torus --basis [[1]] --delta 1 --theta 0.5 --A 0.1 --flux 0.2 --cutoff 2 --csv",
    "bounds --model sphere",
    "bounds --model torus --t 1 --which friedrich --basis [[1]] --delta 1 --theta 0.5 "
    "--A 0.1 --flux 0.2 --cutoff 3",
    "verify sphere-blocks", "verify sphere-blocks --k-max 2 --t-grid 0:1:2",
    "verify torus-modes", "verify torus-modes --n 2 --samples 3 --seed 4",
    "verify gauge --basis [[1]] --f-terms []",
    "verify gauge --basis [[1]] --delta 1 --f-terms [] --cutoffs 1,2",
]


def test_every_option_is_given_in_some_line():
    given = {}
    for line in EVERY_OPTION:
        argv = line.split()
        path = tuple(argv[:2 if argv[0] == "verify" else 1])
        given.setdefault(path, set()).update(a for a in argv if a.startswith("--"))
    assert len(given) == 8
    for path, options in given.items():
        # what _read records is what argparse declares, in the same order
        parser = cli._Parser()
        _row(path)[1](parser)
        declared = [o for a in parser._actions for o in a.option_strings]
        recorded = _row_options(path)
        assert options == set(recorded) and declared == ["-h", "--help", *recorded]


def test_options_that_only_argparse_reads_are_refused():
    # a row that needs more of argparse fails at once instead of being misread
    options = cli._Options()
    for name, kw in (("--n", {"nargs": 2}), ("--v", {"action": "count"}), ("-x", {}),
                     ("--c", {"action": "store_const", "const": 1})):
        with pytest.raises(TypeError, match=name):
            options.add_argument(name, **kw)
    assert options.options == {}


def _read_by_the_row_parser(argv) -> argparse.Namespace:
    """``argv`` read by a ``_Parser`` built from its row, into a namespace
    that already holds the command, func and target, in the order that
    ``_parse`` sets them."""
    ns, rows, depth = argparse.Namespace(), cli._COMMANDS, 2 if argv[0] == "verify" else 1
    for dest, name in zip(("command", "target"), argv[:depth]):
        setattr(ns, dest, name)
        _, rows, ns.func = rows[name]
    parser = cli._Parser()
    rows(parser)
    return parser.parse_args(argv[depth:], ns)


@pytest.mark.parametrize("request_line", EVERY_OPTION)
def test_a_command_parsed_directly_gives_the_namespace_of_argparse(request_line):
    # the whole tree dispatches through argparse subparsers; the row's parser
    # gives the attribute order too, which cmd_bounds reads the options in
    argv = request_line.split()
    expected = vars(cli.build_parser().parse_args(argv))
    assert vars(cli._parse(argv)) == expected
    assert list(vars(cli._parse(argv)).items()) == list(
        vars(_read_by_the_row_parser(argv)).items())
    assert expected["command"] == argv[0] and "func" in expected
    assert expected.get("target") == (argv[1] if argv[0] == "verify" else None)
    row = cli._COMMANDS[argv[0]]
    assert expected["func"] is (row[1][argv[1]] if argv[0] == "verify" else row)[2]


LEAVES = [(name,) for name, row in cli._COMMANDS.items() if row[2]] + [
    ("verify", target) for target in cli._COMMANDS["verify"][1]]
# values of each type that a plain reader takes (argparse takes "-" and a
# decimal digit for a value), and odd ones: option-like tokens, the empty
# string, spaces, unicode digits and values of the wrong type
PLAIN_VALUES = {
    float: ["0", "0.5", "-1", "-.5", "1e400", "nan", "1_0", " 3 ", "-\uff12"],
    int: ["0", "3", "-1", "1_0", "\uff12"],
    None: ["[[1]]", "[]", "0:1:2", "-4:4:3", "1,2", "-0.3,0.1", "none", "a b", "-1 2", ""]}
ODD_VALUES = ["-", "-x", "-\u00b2", "--t", "-h", "", "x", "1.5", "[[1]]", "sphere", "bogus"]


@st.composite
def _argv(draw) -> list:
    """A leaf and its options, required ones mostly and others at will, in
    any order, flags bare and the rest with a value of their type (for a
    choice, one or a prefix of one), or at most one with an odd value; then,
    two times in five, one or two odd changes: -h, --, an unknown name or
    extra token, a prefix of a name, name=value, a repeat, a dropped last
    token."""
    path = draw(st.sampled_from(LEAVES))
    declared = cli._Options()
    _row(path)[1](declared)
    names = draw(st.permutations([name for name, kw in declared.options.items()
                                  if draw(st.integers(0, 7 if kw.get("required") else 1))]))
    odd_at, groups = draw(st.integers(0, 3 * len(names))), []
    for i, name in enumerate(names):
        kw = declared.options[name]
        choices = [*kw["choices"], kw["choices"][0][:-1]] if "choices" in kw else None
        values = ODD_VALUES if i == odd_at else choices or PLAIN_VALUES[kw.get("type")]
        groups.append([name] if "action" in kw else [name, draw(st.sampled_from(values))])
    argv = [token for group in groups for token in group]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        name = draw(st.sampled_from(list(declared.options)))
        odd = draw(st.sampled_from(["-h", "--help", "--", "--bogus", "extra", "prefix", "=",
                                    "repeat", "drop"]))
        at = draw(st.integers(0, len(argv)))
        if odd == "drop":
            argv = argv[:-1]
            continue
        token = {"prefix": name[:draw(st.integers(2, len(name)))],
                 "=": f"{name}={draw(st.sampled_from(ODD_VALUES))}"}.get(odd, odd)
        argv[at:at] = [name, draw(st.sampled_from(ODD_VALUES))] if odd == "repeat" else [token]
    return [*path, *argv]


def _parsed(parse, argv) -> tuple:
    """(the namespace as text, exit code, stdout, stderr) of ``parse(argv)``."""
    out, err, code, ns = io.StringIO(), io.StringIO(), None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            ns = repr(sorted(vars(parse(argv)).items()))  # repr: nan equals nan
        except SystemExit as exc:
            code = exc.code
    return ns, code, out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_argv())
def test_a_request_read_from_its_row_is_the_request_argparse_reads(argv):
    # _parse reads plain argv itself and hands the rest to the tree: either
    # way the namespace, exit code and every byte printed are argparse's
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        assert _parsed(cli._parse, argv) == _parsed(cli.build_parser().parse_args, argv)


# sha256 of the stdout of each request, recorded before the sphere level
# bound was tightened and collisions moved to the closed form; the output
# must not change by a single byte
STDOUT_SHA256 = {
    "sphere --t 0 --cutoff 3":
        "a1020b7013a149be6e639720d8d263f72e6e8d73ecb71a87ac548ca84805e9b6",
    "sphere --t 0 --cutoff 3 --csv":
        "daa16946291e218014758f9d23098aef91ba2ccc103fbc88e5ce662c462f433f",
    "sphere --t 0 --cutoff 3 --json":
        "fade7c168eec3cd1ce8a29ab4dc44615d5dcf91bacf22ddb7b8fd0241cbc0e56",
    "sphere --t 0 --cutoff 12.5":
        "494e47732d0d1ea7059919b4df4f3611c0c154a83750737d3375fc883add93a7",
    "sphere --t 0 --cutoff 12.5 --csv":
        "80b6381ff708362b500b18aec98bef1d218c540b9406facef87e24d6092d5fb7",
    "sphere --t 0 --cutoff 12.5 --json":
        "2e83d435eecf8658465ad8d83572899d80f8cf3ec215ec8b9afc9fe9a27bbef0",
    "sphere --t 0 --cutoff 50":
        "624fc18ba159ccad535c662db6819f1520a7882f98efb4720adcd893bee882a7",
    "sphere --t 0 --cutoff 50 --csv":
        "9e4ebc0f5def6e4683f5a7c0a40d619281f75427d4878b31eb770d1ca7cb22dc",
    "sphere --t 0 --cutoff 50 --json":
        "c697afcf6059e121a71eac997cf359d2893d7f14d2c769572a9b71b4b65d601b",
    "sphere --t 1 --cutoff 3":
        "9c04268182e3b5e3858caac51291f1344135ed0cde121ed65f51004deadfac5c",
    "sphere --t 1 --cutoff 3 --csv":
        "9e77cf739f6ff0489e27567b869f078a8ddfaa264f23a6c36da07e132705c98c",
    "sphere --t 1 --cutoff 3 --json":
        "a55adf701622c60e3411a5358f69228e93dcfbec789914326a5679c8b66ece12",
    "sphere --t 1 --cutoff 12.5":
        "7e9c3241036f91dd1550c1a51190ad9bb7340f1a5dc6f1766cf215405ec5c855",
    "sphere --t 1 --cutoff 12.5 --csv":
        "6c48dcb2e592942f551c6d4a13ab5cccf768e90062b1ac9fa5135acb68cc4e19",
    "sphere --t 1 --cutoff 12.5 --json":
        "62d035d846d203579a6fb23abe19ffccb2985a9b3a6dc44cf201a65d685c505f",
    "sphere --t 1 --cutoff 50":
        "8c370a2835cc378afcc53873b881eda6fd498c3b78f27f623af937cb6ca0f65c",
    "sphere --t 1 --cutoff 50 --csv":
        "35c9ea6af271d1fb7b566633dfdf98d62190db6d4f31b0d75315cef871b9be50",
    "sphere --t 1 --cutoff 50 --json":
        "055d440587cca8b38cabd704af7ad0e3f7043419077c0e3b20971da100a9fd3c",
    "sphere --t 0.37 --cutoff 3":
        "c4fa5305d98cf6d0a2b198ff977a420759905be70fea04830ab964c629d680f8",
    "sphere --t 0.37 --cutoff 3 --csv":
        "eb6cafa32de0da5322875bb663163a268a06e265d2e9733c7a855bb12ea670af",
    "sphere --t 0.37 --cutoff 3 --json":
        "e3b95e0bd3514a30774e48ba0605c57bc69f77bf4f02ff87f2977e902d348f67",
    "sphere --t 0.37 --cutoff 12.5":
        "23469fd1b68c18d374de0fa08258ba88181937f2b1363ef897b37f60de6fa2e2",
    "sphere --t 0.37 --cutoff 12.5 --csv":
        "576c935c241daed6f9bc33006e83f6e492cc5bdc78d2197670d9e8c6ce777816",
    "sphere --t 0.37 --cutoff 12.5 --json":
        "3e106b3807e0695cbc8412e7358bc2f8908ac47a8073f6c957035e3264225e02",
    "sphere --t 0.37 --cutoff 50":
        "dc6aa2d282c00dc27f6d663a0ece3007a6d681cd990d47f5f07b5c43c2ed7f2c",
    "sphere --t 0.37 --cutoff 50 --csv":
        "696659f86f65c930d8c53d3c45222a96cbb4f8d09cafc06dff371acb6bece350",
    "sphere --t 0.37 --cutoff 50 --json":
        "0d664f125f4ad7599036f5b049d60bb5c41013dc3bbc7d43a7ab8887f75e30cc",
    "sphere --t -2.5 --cutoff 3":
        "e7183395fcdfa7ffbcf563143e8fe1468a12bdee4bbddee3bd81c17ed0bd4825",
    "sphere --t -2.5 --cutoff 3 --csv":
        "4bc54cb98d0d95d36188a0fa086e2458b871c23bd958ef74f0cf3dabd8dfe6eb",
    "sphere --t -2.5 --cutoff 3 --json":
        "b342844d19bfafa23aece388ac21aa1dd71ea120a494a236b9a5f77f6848c3f3",
    "sphere --t -2.5 --cutoff 12.5":
        "fa0095f0075a523adb78708231536edffb0531c99741af733f6b3c9371434a75",
    "sphere --t -2.5 --cutoff 12.5 --csv":
        "df92f187c6e29e4fa0ed07f7f9043cc9588ba09312a1e43011c196ff815b4a15",
    "sphere --t -2.5 --cutoff 12.5 --json":
        "2a164d64479fc5f23f1fda0578cef4267f1421a4c5262dacbc4e5c29753dd2a2",
    "sphere --t -2.5 --cutoff 50":
        "91fbd3741ad7192c6ad4c1f135cc16bad963913cc911ffc07fb9c371bd8dd989",
    "sphere --t -2.5 --cutoff 50 --csv":
        "bd49d2e85b02ca01a0475ed702b702d5c00a08768dafa4fdab254352a207d672",
    "sphere --t -2.5 --cutoff 50 --json":
        "fc2323a639360c15634ef1fd9f18fbb1a16d4c7ef0ddbb846c9817259f814603",
    "collisions --k-max 12":
        "f705b2fb91c3448afd50c13cfa7faf84c423dbfec4c5bcf5d8aeedfbd7ee6216",
    "collisions --k-max 12 --json":
        "b312c437bbe51f029abdf02c37b905336ca0c5de5d369396b3a88310ae20e203",
}


@pytest.mark.parametrize("request_line", sorted(STDOUT_SHA256))
def test_sphere_and_collisions_stdout_is_pinned(capsys, request_line):
    code, out, _ = run(capsys, *request_line.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[request_line]


# recorded from the per-row writer that cmd_sphere_curve replaced
CURVE_STDOUT_SHA256 = {
    "sphere-curve":
        "9b02255b338f30f68be9c641f4deb2af7d5c1b2c8eed20024c620ba2b879482d",
    "sphere-curve --t-range -2:2:9 --k-max 4 --window none":
        "d216d6c29aeaa09f4cc6776aaa79741c84ef56fa8eaaf9718266d5a03e66e396",
    "sphere-curve --t-range -3:3:13 --k-max 6 --window -2.5:4":
        "c53d94281992b1c8d7aec4cc8f5126ddfcb6b4aafdb34d06ee0c1682f62a0051",
    "sphere-curve --t-range -0.7:1.3:7 --k-max 8 --window none":
        "cbfa4d28ed861d8a96729d4c02163b74c1e4c8ac215ad4b624c7e2e30b43e80e",
    "sphere-curve --t-range 0.37:0.37:1 --k-max 12 --window -3:3":
        "054ae88ef4da3ab5270e2abe7ba482b20590aa4b7ae6e8d9ee17fb95570ff27e",
}


@pytest.mark.parametrize("request_line", sorted(CURVE_STDOUT_SHA256))
def test_sphere_curve_stdout_is_pinned(capsys, request_line):
    code, out, _ = run(capsys, *request_line.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CURVE_STDOUT_SHA256[request_line]


# edge tables, recorded from the per-member and per-row writers that the
# array writers replaced: empty spectra, an exact 0.0 with integer-t
# clusters, collisions with no or few pairs, and a curve window with no row
EDGE_STDOUT_SHA256 = {
    "sphere --t 0 --cutoff 0.1":
        "b493ef2d6047f72181d12751bd00e1c4ba046e7360049b4814cb6183fa8f7b8a",
    "sphere --t 0 --cutoff 0.1 --csv":
        "2d40faabdd54669b7fbed4686ac75a04112260af10ae0e892b49b84364e241ed",
    "sphere --t 0 --cutoff 0.1 --json":
        "76f6e3a26fb1250ea25cee927f10f21794c9fe301d9232a376eee68d92c14bde",
    "sphere --t -1.5 --cutoff 3 --json":
        "fc9c3a750a44b7b03dae1893852258c91c01b635b73f85e31a23e183efc4dc73",
    "collisions --k-max 0":
        "c1b65c3c27b50d77983df1ac4f3464b4e70a548f77a098e10872d9ccdf0a89d3",
    "collisions --k-max 2 --json":
        "2e6dcc3613614df6c849170c10ffaa147bd8176c7d92d4a2ab957b6a4980f4d6",
    "sphere-curve --k-max 3 --window 100:200":
        "587e8c41cbd99325eba6b09d0e4702cd916b0353f54d4737563efda569fe75f7",
}


@pytest.mark.parametrize("request_line", sorted(EDGE_STDOUT_SHA256))
def test_edge_tables_stdout_is_pinned(capsys, request_line):
    code, out, _ = run(capsys, *request_line.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EDGE_STDOUT_SHA256[request_line]


S3_STDOUT_SHA256 = {**STDOUT_SHA256, **CURVE_STDOUT_SHA256, **EDGE_STDOUT_SHA256}


def test_s3_writers_build_no_label_tuples(capsys, monkeypatch):
    # the S3 writers render from the integer label arrays: the named label
    # tuples are not built
    from magdirac import sphere

    def no_tuples(*args, **kwargs):
        raise AssertionError("built a label tuple")

    monkeypatch.setattr(sphere, "member_labels", no_tuples)
    for request_line, digest in S3_STDOUT_SHA256.items():
        code, out, _ = run(capsys, *request_line.split())
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest, request_line


# a torus whose potential cancels mode (1, -2): a zero mode, and the
# entries around it are pairs of modes
ZERO_MODE_TORUS = ("torus --basis [[1,0.3],[0,1.2]] --delta 1,0 --theta 0.2,0.7 "
                   "--A -25.289820861397835,17.27875959474386")

# request -> rows of its table (entries for sphere and torus); at BLOCK = 3
# a table of rows is written in 0, 1, 1 or 4 blocks, while sphere and torus
# entries fill a block up to 3 members, so a merged entry may end it early
BLOCK_EDGE_TABLES = {
    **{f"sphere --t 1 --cutoff {cutoff}{fmt}": rows
       for cutoff, rows in (("0.4", 0), ("0.5", 1), ("1.8", 3), ("3.5", 10))
       for fmt in ("", " --csv", " --json")},
    # clusters of up to 6 members, most of them past a whole block
    **{f"sphere --t 0 --cutoff 6{fmt}": 10 for fmt in ("", " --csv", " --json")},
    "torus --basis [[1,0.3],[0,1.2]] --delta 1,0 --theta 0.2,0.7 --cutoff 0.1": 0,
    "torus --basis [[1,0.3],[0,1.2]] --delta 1,0 --theta 0.2,0.7 --cutoff 0.1 --csv": 0,
    **{f"{ZERO_MODE_TORUS} --cutoff {cutoff}{fmt}": rows  # the zero mode makes them odd
       for cutoff, rows in (("1", 1), ("5.5", 3), ("11", 11)) for fmt in ("", " --csv")},
    **{f"sphere-curve --t-range 0.37:0.37:1 --k-max 12 --window {window}": rows
       for window, rows in (("-20:-13", 0), ("-13:-12.8", 1), ("-13:-12.7", 3),
                            ("-13:-12.3", 10))},
    "sphere-curve --t-range 0:1:5 --k-max 0 --window none": 10,  # two rows per coupling
    **{f"collisions --k-max {k_max}{fmt}": rows
       for k_max, rows in ((0, 0), (2, 3), (3, 14)) for fmt in ("", " --json")},
}


@pytest.mark.parametrize("request_line", sorted(BLOCK_EDGE_TABLES))
def test_block_edges_leave_the_output_unchanged(capsys, monkeypatch, request_line):
    code, whole, _ = run(capsys, *request_line.split())
    assert code == 0
    last_edges = []
    for name in ("_row_edges", "_entry_edges"):
        def recorded(arg, edges=getattr(cli, name)):
            last_edges.append(edges(arg))
            return last_edges[-1]
        monkeypatch.setattr(cli, name, recorded)
    monkeypatch.setattr(cli, "BLOCK", 3)
    code, blocked, _ = run(capsys, *request_line.split())
    assert code == 0 and blocked == whole
    assert last_edges[-1][-1] == BLOCK_EDGE_TABLES[request_line]


# each table here is past one block of the default size
LARGE_TABLES = [
    *[f"sphere --t 0.5 --cutoff 60{fmt}" for fmt in ("", " --csv", " --json")],
    "sphere --t 0 --cutoff 100 --json",  # entries of up to 100 members
    *[f"torus --basis [[1,0],[0,1]] --cutoff 150{fmt}" for fmt in ("", " --csv")],
    "sphere-curve --t-range -3:3:61 --k-max 8 --window none",
    *[f"collisions --k-max 14{fmt}" for fmt in ("", " --json")],
]


@pytest.mark.parametrize("request_line", LARGE_TABLES)
def test_no_call_renders_more_than_a_block(capsys, monkeypatch, request_line):
    # _join holds the one join that renders every block of every table
    rendered = []

    def recorded(vocab, index, join=cli._join):
        rendered.append(len(index))
        return join(vocab, index)

    monkeypatch.setattr(cli, "_join", recorded)
    assert run(capsys, *request_line.split())[0] == 0
    assert sum(rendered) > cli.BLOCK >= max(rendered)


@pytest.mark.parametrize("request_line", LARGE_TABLES)
def test_no_call_holds_the_cell_strings_of_more_than_a_block(capsys, monkeypatch, request_line):
    # the distinct cell strings are made block by block: with 64-row blocks
    # no vocabulary passes 316 strings, where those of a whole table reach
    # 518 (torus), 2,836 (collisions) and 4,033 (sphere)
    vocabularies = []

    def recorded(vocab, index, join=cli._join):
        vocabularies.append(len(vocab))
        return join(vocab, index)

    monkeypatch.setattr(cli, "_join", recorded)
    monkeypatch.setattr(cli, "BLOCK", 64)
    assert run(capsys, *request_line.split())[0] == 0
    assert len(vocabularies) > 1 and max(vocabularies) <= 8 * cli.BLOCK


@pytest.mark.parametrize("fmt, digest", [
    ("", "59714d2f8745b870bac79c1742f29a420ace322a18ab3606d2c50d0e0ee70e19"),
    (" --json", "b8ef34754d31a08c0f5b229d6092e1fedfa03545aaa793359de6fa109731698a")])
def test_collision_cells_are_made_once_per_distinct_value(capsys, monkeypatch, fmt, digest):
    # 5,257 rows in 6 blocks, but 1,135 t and 2,689 f0 strings: a float
    # cell string is made once per bit pattern in its block (digests
    # recorded while every cell was rendered by its own % conversion)
    made = []

    def recorded(column, kind, distinct=cli._distinct):
        cells, keys = distinct(column, kind)
        made.append((kind, len(cells)))
        return cells, keys

    monkeypatch.setattr(cli, "_distinct", recorded)
    code, out, _ = run(capsys, *f"collisions --k-max 14{fmt}".split())
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest
    floats = [n for kind, n in made if kind == "r"]  # t and f0 of each block
    assert len(floats) == 12 and [sum(floats[0::2]), sum(floats[1::2])] == [1135, 2689]


@st.composite
def cell_columns(draw):
    """(template, columns): 1-4 columns of str, int or float cells, each with
    its specifier, between separators free of NUL and %; 0-20 rows."""
    rows = draw(st.integers(0, 20))
    text = st.text(st.characters(exclude_characters="\0%"), max_size=4)
    ints = st.integers(-2**63, 2**63 - 1)
    cell = {"%s": text, "%24s": text, "%d": ints, "%+d": ints, "%5d": ints,
            "%r": st.floats(allow_nan=False)}
    specs = draw(st.lists(st.sampled_from(sorted(cell)), min_size=1, max_size=4))
    columns = [draw(st.lists(cell[c], min_size=rows, max_size=rows)) for c in specs]
    seps = draw(st.lists(text, min_size=len(specs) + 1, max_size=len(specs) + 1))
    return seps[0] + "".join(c + sep for c, sep in zip(specs, seps[1:])), columns


BIG = 2**63 - 1


@settings(derandomize=True, max_examples=200, deadline=None)
@given(request=cell_columns())
@example(request=("%s,%d", [[], []]))
@example(request=('"%s"', [[""]]))
@example(request=("%d %d", [[1, -2], [3, 4]]))
@example(request=("%d", [[]]))
@example(request=("%r;%r\n", [[-0.0, 0.0, 0.0, -0.0], [math.inf, -math.inf, 5e-324, -5e-324]]))
@example(request=("%d,%+d|%5d", [[BIG, 1, -BIG, 0], [3, -BIG, 2, BIG], [-BIG - 1, 7, BIG, 7]]))
@example(request=("[%24s]%+d %5d", [["a", "", "a"], [-1, 0, 1], [12345678, -2, -2]]))
def test_cells_equal_the_per_row_loop(request):
    # the sparse integer path, -0.0 beside 0.0 and the flags and widths of
    # the specifiers render as % renders each row
    template, columns = request
    expected = "".join(template % row for row in zip(*columns))
    rows = len(columns[0])
    assert cli._Cells([template], columns).text() == expected
    arrays = [np.array(c, dtype=object) for c in columns]  # array columns render alike
    assert cli._Cells([template], arrays).text() == expected
    if all(isinstance(x, int) for c in columns for x in c):  # integer columns as one array
        stacked = np.array(columns, dtype=np.int64).reshape(len(columns), -1)
        assert cli._Cells([template], stacked).text() == expected


# recorded before the sphere and torus branches of cmd_bounds became one loop;
# the torus lines again when the diamagnetic reason was corrected, the only
# line of their output that changed
BOUNDS_STDOUT_SHA256 = {
    "bounds --model sphere --t -2.5":
        "8cfa9c5360d7575a82df89e499fcf841f310590fed53a0b754cd2ee2d500e798",
    "bounds --model sphere --t -2.5 --which basic,friedrich":
        "1580a2f09370c30c39a74b8b45f0f07fe017f94ca98acd9f0d007bcfd69741a9",
    "bounds --model sphere --t 0":
        "d550367b055bb7db692122e35f8e4b92573d6a6816d5c5aa61a317d60a70f19c",
    "bounds --model sphere --t 0 --which basic,friedrich":
        "a456cedf28b1ddac30b5902acf3872c1adb3ed1c21a8bb2f0b61b9f2e416010e",
    "bounds --model sphere --t 0.7":
        "1f3b211141cbf168e7c5538d898daa45d4eb62ef119af94ec775d7d0a485d9e5",
    "bounds --model sphere --t 0.7 --which basic,friedrich":
        "07cb226bc770f37dea392e4f1831ca6eb99196e2517941ffd1b9940e90a8f48c",
    "bounds --model sphere --t 1.3":
        "abb1951e68b20769c3ccaed19600a9f449052b68af5a98d22026588ba7f235d0",
    "bounds --model sphere --t 1.3 --which basic,friedrich":
        "b83ab3c4c4450a80165d17c0ab65b3d138af1d1f1821a0e5e059a95534dc4681",
    "bounds --model sphere --t 4":
        "49daaeb6ca90f6565fa3ee95e4469fd2b498d54db91b631edcdfdbf44d6395f1",
    "bounds --model sphere --t 4 --which basic,friedrich":
        "4f1c94405e0a4cd81069491ae4737bc4fd9478f8f4a7a0c0ab7271c5682e1776",
    "bounds --model torus --basis [[1]]":
        "176c2b2b0663ed09ea120eb127a6f76112580fdff02f078216f9e6871278e565",
    "bounds --model torus --basis [[1,0],[0,1]] --delta 1,0 --A 0.1,0.2":
        "74ec34bfc53aa77752d326f413ee9d144ec2d4f36e984c5f4f917bc8013406e0",
    "bounds --model torus --basis [[1,0.3],[0,2]]":
        "cdf9e04dc161dadde5e8fa797e45a533eaf710f6cc65c2c707ce09c3a0effc13",
}


@pytest.mark.parametrize("request_line", sorted(BOUNDS_STDOUT_SHA256))
def test_bounds_stdout_is_pinned(capsys, request_line):
    code, out, _ = run(capsys, *request_line.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == BOUNDS_STDOUT_SHA256[request_line]


# recorded before the sphere levels were assembled from their nonzero
# entries and the torus modes solved in one batch; torus-modes n = 1 before
# the samples were drawn into arrays (its report does not depend on the
# draws), n = 2..6 when theta' came to be drawn directly, in place of bases,
# delta, theta, A and m, which changed only "max_residual"
VERIFY_STDOUT_SHA256 = {
    "verify sphere-blocks --k-max 0":
        "a4e396446b16f021e42641cb1debf65158d8adea88c68407d6257a2a4070af60",
    "verify sphere-blocks --k-max 1":
        "2e9be34899d5f24b994710d2b9da4100d484ed84c61c565db1698ce55fa50ade",
    "verify sphere-blocks --k-max 7":
        "fdd94d8290f5e8d144e86844c6a42664f063e3f99486680f7c1126dd812596c6",
    "verify sphere-blocks --k-max 30":
        "8765e22677a5f32a3789367a2a9524f30e9eb5b5338af4490aad52083bc597a4",
    "verify sphere-blocks --k-max 5 --t-grid 0.5:0.5:3":
        "ca69fa769980c5b43dd89d370fad5a42468b68d54d99ca4d51eb27c61a194a16",
    "verify sphere-blocks --k-max 400 --t-grid 0.7:0.7:1":
        "d713883219de4be4c1d70743ef935c1b4fc21450d23b6b6dddfb69c72f798b74",
    "verify torus-modes --n 1 --seed 7":
        "0b755654e16d23abfcf80380e3f52555a8e300080e626a8d644d8c18c402dc0b",
    "verify torus-modes --n 2 --seed 7":
        "865a4e3cfefe47a6348c3e122063e848ab63c1d1f974ef26b7f52a4827bd8ffe",
    "verify torus-modes --n 3 --seed 7":
        "4660cdac82f86b8902ae577df73d6c64431fbe93dcb54c2fc7d5f7cc8d0373c7",
    "verify torus-modes --n 4 --seed 7":
        "a63b7a5a481b76b51b2be1cc14909ab5078620f2df390a21d342638d6be4d147",
    "verify torus-modes --n 5 --seed 7":
        "470e051dec9ce17fe0f7690ea9548f2b96ef00fda61b21ce1616c7984f1f8a04",
    "verify torus-modes --n 6 --seed 7":
        "7750b36b0e7a81fb7797f6d5d4fa0721110db5ee0007c730259aea52304ebf6c",
    # gauge, recorded before the shifts were assembled in one pass: a 2D
    # operator of one component, a 2D one that splits into the cosets of
    # (1, 1), and a 3D one (no grading: eigvalsh) that splits.  Windows stay
    # small enough that LAPACK gives the same bits at 1 and 2 BLAS threads.
    # Re-recorded when "checks" came to count the pairs compared (30 -> 36),
    # the only line that changed.
    "verify gauge --basis [[1,0.2],[0,0.9]] --f-terms [[[1,0],0.02,0.01],[[0,1],0.01,-0.005]] "
    "--cutoffs 1,2,3":
        "cc1bb0f903e9b5ad9c383791cd00372e2ccc799abd84a04e526ab6db36fc829a",
    "verify gauge --basis [[1,0],[0,1]] --f-terms [[[1,1],0.2,0.1]] --cutoffs 4,8,12":
        "21927e4a4e47b7d19289d6aa282a08a3e0195fcebfedb5160751fbd1799edf2d",
    "verify gauge --basis [[1,0.2,0],[0,1,0.1],[0,0,1.1]] "
    "--f-terms [[[1,0,0],0.02,0.01],[[0,1,-1],0.01,0]] --cutoffs 1,2,3":
        "d337ac5cedf76adbeb38931b0600542b2fb4c3bf0366ccf462b2935e23caa863",
}


@pytest.mark.parametrize("request_line", sorted(VERIFY_STDOUT_SHA256))
def test_verify_stdout_is_pinned(capsys, request_line):
    code, out, _ = run(capsys, *request_line.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_STDOUT_SHA256[request_line]


# recorded before the eigenvalue writer rendered all mode cells in one %
# call and shared the string of mirrored values: n = 1 (signed), the square
# lattice (merged clusters of several modes), n = 3 with a constructed zero
# mode, a well-conditioned n = 4 torus and an empty list
TORUS_STDOUT_SHA256 = {
    "torus --basis [[1]] --theta 0.3 --A 0.7 --cutoff 60":
        "4189b4e63da41adba7e4dc9816870b6d3ecde8c4a59a032eec9035a1dc982940",
    "torus --basis [[1]] --theta 0.3 --A 0.7 --cutoff 60 --csv":
        "3191e818fc092e869fbbd8099b95d01f22d425140366f61a8b09b3135c919128",
    "torus --basis [[1,0],[0,1]] --cutoff 20":
        "e55378951dc3da918d6760377147ed09356963946c7e91ffc93c79d0dc8f984c",
    "torus --basis [[1,0],[0,1]] --cutoff 20 --csv":
        "599db8e029b00ed00896cdbf14a482a478ca28cdc85ab91ea5887c4b0b510502",
    "torus --basis [[1,0.2,0],[0,1.1,0.1],[0.3,0,0.9]] --delta 1,0,0 --theta 0.25,0.5,0.125 --flux -20.420352248333657,21.991148575128552,-0.7853981633974483 --cutoff 14":
        "a576d71cabe1c40d4d362798cbf747e6dde081af4e153716612ed18ae4aa8bf3",
    "torus --basis [[1,0.2,0],[0,1.1,0.1],[0.3,0,0.9]] --delta 1,0,0 --theta 0.25,0.5,0.125 --flux -20.420352248333657,21.991148575128552,-0.7853981633974483 --cutoff 14 --csv":
        "00fa6a2c950aa4a873423309b6cd587fba2921f7b9c916698f8b82ceece59ffe",
    "torus --basis [[1,0.1,0,0],[0,0.9,0.2,0],[0,0,1.2,-0.1],[0.1,0,0,1]] --delta 1,1,0,1 --theta 0.3,0.6,0.1,0.8 --A 0.4,-1.3,2.2,0.7 --cutoff 13":
        "dadad22cadea94872574177bdc5171b1cfe188e3536d1d77e5ab9b7d954e8fa4",
    "torus --basis [[1,0.1,0,0],[0,0.9,0.2,0],[0,0,1.2,-0.1],[0.1,0,0,1]] --delta 1,1,0,1 --theta 0.3,0.6,0.1,0.8 --A 0.4,-1.3,2.2,0.7 --cutoff 13 --csv":
        "3521e0addf4752f34ac1482bcdad150725f09de824e45fad8117fa815040fb56",
    "torus --basis [[1,0.3],[0,2]] --delta 1,0 --theta 0.2,0.7 --cutoff 2":
        "b4b4f51ea86b92c2bc756538070db0f5d7bef85d2447f17c87e3119ba67cb88b",
    "torus --basis [[1,0.3],[0,2]] --delta 1,0 --theta 0.2,0.7 --cutoff 2 --csv":
        "dda5772d2a6ebdc3e6d0a1b905e5db2add3fd828484ccfd059908952698bbc75",
    # recorded before the torus sorted its values ahead of the merge: merged
    # entries of several modes with exactly equal values, whose labels keep
    # enumeration order only if ties keep input order
    "torus --basis [[1,0],[0.5,0.8660254037844386]] --cutoff 30 --csv":
        "c58ee7f9b1fcb03ccb839c60bf2a999a204301c03853e536c93a81ec1284aade",
    "torus --basis [[1,0,0],[0,1,0],[0,0,1]] --cutoff 12":
        "e11fb1c133b191e1813e39a23ad29cf99686afca7b3553906875426c2dee9540",
    "torus --basis [[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]] --cutoff 14 --csv":
        "2d92a72f05bd415c187270839a44ec5fb351a6c6e7dc7eebbb9c18cddb9cb88d",
    # recorded before the merge kept sorted input as it is: circles whose
    # values arrive descending (a negative generator) and ascending (delta 1)
    "torus --basis [[-1.5]] --theta 0.3 --A 0.7 --cutoff 60":
        "f3c1292f4a414576eb14ce3d1dbd14b5a0bece20991a724e7be48e43f07458be",
    "torus --basis [[-1.5]] --theta 0.3 --A 0.7 --cutoff 60 --csv":
        "5272e316a8895841549041bc93590b9fcf2ed7b382e44831c7e4ffda35fc44c0",
    "torus --basis [[0.7]] --delta 1 --cutoff 200":
        "45df35c08c1aa52d7802bd4ef2b41b8fccb9e1ac935f0b78eab6075ba2ffaacc",
    "torus --basis [[0.7]] --delta 1 --cutoff 200 --csv":
        "ac7b7b99a7d42c69d45f72f1339257f315ee641736b8a4a70c9ae745710cf655",
}


@pytest.mark.parametrize("request_line", sorted(TORUS_STDOUT_SHA256))
def test_torus_stdout_is_pinned(capsys, request_line):
    code, out, _ = run(capsys, *request_line.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TORUS_STDOUT_SHA256[request_line]


def test_readme_command_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("magdirac ")]
    assert len(examples) == 10
    for argv in examples:
        # main parses with _parse; the whole tree gives the same namespace
        assert vars(cli._parse(argv)) == vars(cli.build_parser().parse_args(argv))


def _python_m_magdirac(*argv):
    """Command line and environment of ``python -m magdirac argv`` that
    import this package."""
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [package_root, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return [sys.executable, "-m", "magdirac", *argv], env


def test_python_m_magdirac_prints_what_cli_main_prints(capsys):
    argv = ["sphere", "--t", "0.5", "--cutoff", "3", "--json"]
    command, env = _python_m_magdirac(*argv)
    proc = subprocess.run(command, capture_output=True, env=env, check=False)
    code, out, _ = run(capsys, *argv)
    assert proc.returncode == code == 0
    assert proc.stdout == out.encode()


def test_closed_stdout_ends_quietly():
    # each writes far more than a pipe holds (~640 kB, ~3.8 MB and ~500 kB),
    # in many blocks, so a write must still be blocked when the reader
    # closes its end
    for argv, head in ((("sphere", "--t", "0.5", "--cutoff", "60", "--json"),
                        [b"{\n", b'  "t": 0.5,\n']),
                       (("collisions", "--k-max", "30"), [b"k,p,k2,p2,t,f0\n", b"1,0,2,0,"]),
                       (("torus", "--basis", "[[1,0],[0,1]]", "--cutoff", "600", "--csv"),
                        [b"value,multiplicity,modes\n", b"-599."])):
        command, env = _python_m_magdirac(*argv)
        with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env) as proc:
            lines = [proc.stdout.readline() for _ in range(2)]
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert [line[:len(h)] for line, h in zip(lines, head)] == head, argv
        assert err == b"" and code == 1, argv


@st.composite
def torus_requests(draw):
    """(rows, delta, theta, A, cutoff) of a random torus with up to ~300
    modes; a third get a constructed zero mode, a third a cutoff below the
    first eigenvalue (an empty list)."""
    n = draw(st.integers(1, 4))
    cells = draw(st.lists(st.floats(-0.2, 0.2), min_size=n * n, max_size=n * n))
    rows = (np.eye(n) + np.reshape(cells, (n, n))).tolist()
    delta = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    theta = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=n, max_size=n))
    A = draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n))
    kind = draw(st.sampled_from(["plain", "zero mode", "empty"]))
    data = SpinCData(Lattice.from_rows(rows), delta, theta, A)
    if kind == "zero mode":  # A = -4 pi theta_mode(m) cancels mode m
        m = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        A = (-4.0 * np.pi * data.theta_mode(m)).tolist()
    modes = draw(st.floats(1.0, 300.0))
    ball = math.pi ** (n / 2) / math.gamma(n / 2 + 1)
    cutoff = 2 * math.pi * (modes * abs(np.linalg.det(rows)) / ball) ** (1 / n)
    if kind == "empty":
        values = torus.spectrum(data, cutoff).values()
        assume(np.all(values != 0.0))  # a zero mode of its own and no list below it
        cutoff = 0.5 * np.abs(values).min(initial=cutoff)
    return rows, delta, theta, A, float(cutoff)


def _torus_stdout(rows, delta, theta, A, cutoff, *fmt):
    argv = ["torus", "--basis", json.dumps(rows), "--delta", ",".join(map(str, delta)),
            "--theta", ",".join(map(repr, theta)), "--A", ",".join(map(repr, A)),
            "--cutoff", repr(cutoff), *fmt]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(request=torus_requests())
@example(request=([[1.0]], [1], [0.0], [0.0], 3.0))  # n = 1, lambda_1 = pi: empty
@example(request=([[1.0, 0.0], [0.0, 1.0]], [0, 0], [0.0, 0.0], [0.0, 0.0], 7.0))
def test_torus_writer_equals_the_json_encoder_and_the_csv_loop(request):
    rows, delta, theta, A, cutoff = request
    data = SpinCData(Lattice.from_rows(rows), delta, theta, A)
    spec, zm = torus.spectrum(data, cutoff), torus.zero_mode(data)
    payload = {
        "eigenvalues": [{"value": value, "multiplicity": mult,
                         "modes": [list(m) for m in labels]}
                        for value, mult, labels in entries(spec)],
        "zero_mode": None if zm is None else [int(c) for c in zm],
    }
    assert _torus_stdout(*request) == json.dumps(payload, indent=2) + "\n"
    lines = ["value,multiplicity,modes"]
    for value, mult, labels in entries(spec):
        modes = ";".join(" ".join(str(c) for c in m) for m in labels)
        lines.append(f"{value!r},{mult},{modes}")
    assert _torus_stdout(*request, "--csv") == "".join(line + "\n" for line in lines)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(x=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
@example(x=5e-324)
@example(x=1.7976931348623157e308)
def test_repr_of_a_negated_float_is_a_minus_before_its_repr(x):
    assert repr(-x) == "-" + repr(x)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(xs=st.lists(st.floats(-1e3, 1e3), max_size=20), mirrored=st.integers(0, 20))
@example(xs=[0.5, 2.0, 1e3], mirrored=3)  # every negative mirrored: the one-slice path
@example(xs=[-0.0, 0.0, 0.5], mirrored=3)
@example(xs=[-1.5, 0.5], mirrored=1)
def test_value_strings_are_the_reprs_of_the_values(xs, mirrored):
    # some values with their exact mirrors, some without
    values = np.sort(np.concatenate([xs, -np.asarray(xs[:mirrored], dtype=np.float64)]))
    assert cli._value_strings(values) == list(map(repr, values.tolist()))


def test_a_merged_value_that_is_not_its_mirror_prints_its_own_repr():
    # the merged means of the two clusters differ in the last bit, so the
    # negative one is not the exact mirror of the positive one
    xs = [8.768610301298834, 8.768610301360322, 8.76861030141971]
    labels = [(s, i) for s in (-1, 1) for i in range(len(xs))]
    with tolerance(1e-9):
        spec = Spectrum.from_triples([s * xs[i] for s, i in labels], [1] * len(labels), labels)
    assert spec.values().tolist() == [-8.768610301359622, 8.76861030135962]
    edges, render = cli._entry_blocks(spec, "%s,%d,%s\n",
                                      lambda labels: cli._Cells(["%s"], [list("abcdef")]), ";")
    assert edges == [0, 2]
    assert render(0, 2) == "-8.768610301359622,3,a;b;c\n8.76861030135962,3,d;e;f\n"
