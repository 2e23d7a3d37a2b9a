"""Eigenvalue bound evaluators and soundness comparisons."""

import math
from dataclasses import replace

import numpy as np
import pytest

from magdirac import bounds, sphere


S3 = bounds.sphere3_data()


def test_friedrich_round_three_sphere():
    for t in np.linspace(-3, 3, 25):
        bv = bounds.friedrich(S3, t)
        assert bv.form == "squared" and not bv.vacuous
        assert bv.value == pytest.approx(0.75 * (3.0 - 4.0 * abs(t)), abs=1e-12)


def test_friedrich_uses_magnitude_of_coupling():
    assert bounds.friedrich(S3, -1.0).value == bounds.friedrich(S3, 1.0).value


def test_friedrich_vacuous_in_dimension_one():
    bv = bounds.friedrich(replace(S3, n=1, S=0.0, dEta_norm=0.0), 1.0)
    assert bv.vacuous and bv.value is None


def test_hijazi_round_three_sphere():
    for t in np.linspace(-2, 2, 17):
        bv = bounds.hijazi(S3, t)
        assert bv.form == "absolute"
        assert bv.value == pytest.approx(1.5 - abs(t), abs=1e-9)


def _round_sphere_data(n):
    """Round unit S^n at t = 0: S = n(n - 1), and by Obata the Yamabe
    invariant is that of the round metric, n(n - 1) vol^(2/n)."""
    vol = 2.0 * math.pi ** ((n + 1) / 2) / math.gamma((n + 1) / 2)
    return bounds.GeometricData(n=n, S=n * (n - 1.0), dEta_norm=0.0,
                                yamabe=n * (n - 1.0) * vol ** (2.0 / n), vol=vol,
                                eta_Ln=0.0, eta_Linf=0.0, oneill_b=0.0)


@pytest.mark.parametrize("n", range(2, 8))
def test_round_spheres_are_the_equality_cases(n):
    # lambda_1 = n/2 on round S^n (Baer 1996; Camporesi-Higuchi 1996):
    # Friedrich's lambda^2 >= n S / (4(n - 1)) is an equality for n >= 2,
    # and Hijazi's |lambda| >= sqrt(n Y / (4(n - 1))) vol^(-1/n) for n >= 3
    data, lam = _round_sphere_data(n), n / 2.0
    checks = [(bounds.friedrich(data, 0.0), lam * lam)]
    hijazi = bounds.hijazi(data, 0.0)
    assert hijazi.vacuous == (n < 3)
    checks += [(hijazi, lam)] if n >= 3 else []
    for bound, reference in checks:
        report = bounds.compare(bound, reference)
        assert report["satisfied"] and report["equality"], (n, report)
        assert abs(report["margin"]) <= 4e-15 * reference, (n, report)


def test_hijazi_vacuous_flags():
    low = replace(S3, n=2, yamabe=1.0, vol=1.0, eta_Ln=1.0)
    assert bounds.hijazi(low, 0.0).vacuous
    neg = replace(S3, yamabe=-1.0, vol=1.0, eta_Ln=1.0)
    assert bounds.hijazi(neg, 0.0).vacuous


def test_basic_three_sphere_closed_form():
    for t in np.linspace(0, 10, 21):
        bv = bounds.basic(S3, t)
        assert bv.form == "first_positive"
        assert bv.value == pytest.approx(0.5 + np.sqrt(t * t + 4.0), abs=1e-12)
        assert bv.value == pytest.approx(sphere.lambda1_basic(t), abs=1e-12)


def test_basic_vacuous_for_negative_curvature():
    assert bounds.basic(replace(S3, S=-1.0), 0.0).vacuous
    # only the n = 3 estimate is kept; other dimensions give no value
    for n, S in ((2, 0.0), (5, 20.0)):
        bv = bounds.basic(replace(S3, n=n, S=S), 1.0)
        assert bv.vacuous and bv.value is None and f"n={n}" in bv.reason


def test_diamagnetic_upper_sphere_values():
    lam, q = 1.5, 3.0  # the top sector of the round S^3 (test below)
    for t in np.linspace(-2, 2, 17):
        bv = bounds.diamagnetic_upper(lam, q, 1.0, t)
        assert bv.form == "upper_squared"
        assert bv.value == pytest.approx((1.5 - t) ** 2, abs=1e-12)
        bv = bounds.BOUNDS["diamagnetic"](S3, t)
        assert bv.form == "upper_squared"
        assert bv.value == pytest.approx((1.5 - abs(t)) ** 2, abs=1e-12)


def test_diamagnetic_sectors_agree_with_round_case(monkeypatch):
    # the (lambda, q) the evaluator hands diamagnetic_upper, at S = 6 and 2
    calls = []
    monkeypatch.setattr(bounds, "diamagnetic_upper", lambda *args: calls.append(args[:2]))
    for S in (6.0, 2.0):
        bounds.BOUNDS["diamagnetic"](replace(S3, S=S), 0.5)
    assert calls == [(1.5, 3.0), (1.0, 2.0)]


def test_sphere_diamagnetic_takes_the_sector_of_the_sign_of_t():
    # one call with |t| equals, bit for bit, the smaller of the two sectors (lam, +-q)
    lam, q = 1.5, 3.0
    couplings = np.linspace(-8.0, 8.0, 3001).tolist()
    couplings += np.random.default_rng(23).uniform(-8.0, 8.0, 200).tolist()
    for t in couplings + [0.0, -0.0, 1.5, -1.5, 1e300, -1e300]:
        got = bounds.BOUNDS["diamagnetic"](S3, t)
        want = min((bounds.diamagnetic_upper(lam, s, 1.0, t) for s in (q, -q)),
                   key=lambda b: b.value)
        assert got == want and got.value.hex() == want.value.hex(), t


def test_compare_forms_and_equality():
    bv = bounds.BoundValue("demo", 2.0, "squared")
    rep = bounds.compare(bv, 2.5)
    # the report `magdirac bounds` prints, its keys in print order
    assert list(rep) == ["name", "form", "bound", "reference", "satisfied", "equality", "margin"]
    assert rep["satisfied"] and not rep["equality"]
    assert rep["margin"] == pytest.approx(0.5)
    rep = bounds.compare(bv, 2.0 + 1e-12)
    assert rep["satisfied"] and rep["equality"]
    rep = bounds.compare(bv, 1.0)
    assert not rep["satisfied"]

    up = bounds.BoundValue("demo", 2.0, "upper_squared")
    assert bounds.compare(up, 1.5)["satisfied"]
    assert not bounds.compare(up, 2.5)["satisfied"]

    with pytest.raises(ValueError):
        bounds.compare(bounds.BoundValue("v", None, "squared", True, "no"), 1.0)
    with pytest.raises(ValueError):
        bounds.compare(bounds.BoundValue("w", 1.0, "sideways"), 1.0)


def test_torus_data_gives_trivial_friedrich():
    geo = bounds.torus_data(np.eye(2), np.array([0.5, 0.0]))
    assert geo.S == 0.0 and geo.dEta_norm == 0.0 and geo.oneill_b == 0.0
    bv = bounds.friedrich(geo, 1.0)
    assert bv.value == 0.0
    assert geo.eta_Linf == pytest.approx(0.5)
    assert geo.vol == pytest.approx(1.0)


def test_soundness_against_exact_sphere_spectrum():
    for t in np.linspace(-4, 4, 33):
        lam1 = sphere.lambda1(t)
        assert bounds.compare(bounds.friedrich(S3, t), lam1**2)["satisfied"]
        assert bounds.compare(bounds.hijazi(S3, t), lam1)["satisfied"]
        assert bounds.compare(
            bounds.basic(S3, t), sphere.lambda1_basic(t)
        )["satisfied"]
        top = bounds.diamagnetic_upper(1.5, 3.0, 1.0, t)
        bot = bounds.diamagnetic_upper(1.5, -3.0, 1.0, t)
        best = min(top.value, bot.value)
        assert lam1**2 <= best + 1e-9
