"""Command-line interface: output schemas and exit codes."""

import hashlib
import json

import numpy as np
import pytest

from magdirac import cli


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

    # the circle (default basis [[1]]): Friedrich needs n >= 2 too
    code, out, _ = run(capsys, "bounds", "--model", "torus")
    assert code == 0
    by_name = {b["name"]: b for b in json.loads(out)["bounds"]}
    assert list(by_name) == ["friedrich", "hijazi", "basic", "diamagnetic"]
    assert all(b["applicable"] is False and b["reason"] for b in by_name.values())
    assert by_name["friedrich"]["reason"] == "needs dimension >= 2, got n=1"


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
])
def test_refusals(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and err.startswith(f"error: {message}")


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


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0

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
