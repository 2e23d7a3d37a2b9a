"""Eigenvalue bound evaluators and soundness comparisons."""

import math
from dataclasses import replace

import numpy as np
import pytest
from helpers import odd_sphere_data

from magdirac import bounds, clifford, sphere


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


@pytest.mark.parametrize("m", range(1, 6))
def test_pure_killing_spinors_see_the_hopf_field_as_plus_minus_one(m):
    # The constant spinors of R^(2m+2), restricted to S^(2m+1), are Killing
    # spinors, eigenspinors of D with |lambda| = n/2 (Baer, CMP 154, 1993).
    # On the pure ones phi_+- the Hopf term S = i c(Jx) c(x) acts as +-1 at
    # every point x, so D + t S has the values n/2 +- t there, and the
    # smallest, |n/2 - |t||, is the end value the odd-sphere bounds meet.
    gens = clifford.build_rep(2 * m + 2)
    # phi_+- are the eigenvectors of Omega = sum_k g_(2k-1) g_(2k) at +-i(m+1), each simple
    values, vectors = np.linalg.eig(sum(gens[2 * k] @ gens[2 * k + 1] for k in range(m + 1)))
    at = [np.flatnonzero(np.abs(values - s * 1j * (m + 1)) < 1e-12) for s in (1, -1)]
    assert [len(a) for a in at] == [1, 1], values
    rng = np.random.default_rng(500 + m)
    x = rng.normal(size=(200, 2 * m + 2))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    jx = np.empty_like(x)
    jx[:, 0::2], jx[:, 1::2] = -x[:, 1::2], x[:, 0::2]
    S = 1j * clifford.vector_action(jx, gens) @ clifford.vector_action(x, gens)
    for sign, (a,) in zip((1, -1), at):
        phi = vectors[:, a]
        assert np.max(np.abs(S @ phi - sign * phi)) <= 1e-14


def test_odd_sphere_data_at_m_1_is_the_three_sphere():
    assert odd_sphere_data(1) == S3


@pytest.mark.parametrize("m", range(1, 6))
def test_friedrich_is_sharp_to_first_order_on_odd_spheres(m):
    # Friedrich reads n^2/4 - n|t| with floor(n/2) = m and |d eta| = 2 sqrt(m):
    # the end value squared (n/2 - |t|)^2 less t^2.  The factor
    # sqrt(floor(n/2)) is 1 at m = 1, so only m >= 2 pins it.
    data = odd_sphere_data(m)
    n = data.n
    for t in np.linspace(-4.0, 4.0, 161):
        bound, end = bounds.friedrich(data, t), (n / 2.0 - abs(t)) ** 2
        assert bounds.compare(bound, end)["satisfied"], (m, t)
        assert abs(bound.value + t * t - end) <= 1e-12 * (1.0 + n * n), (m, t)


@pytest.mark.parametrize("m", range(1, 6))
def test_hijazi_is_an_equality_on_odd_spheres(m):
    # |lambda_1| = n/2 - |t| for |t| <= n/2: equality cases with a field, n = 3..11
    data = odd_sphere_data(m)
    n = data.n
    for t in np.linspace(-n / 2.0, n / 2.0, 81):
        assert abs(bounds.hijazi(data, t).value - (n / 2.0 - abs(t))) <= 1e-12, (m, t)


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


def test_diamagnetic_is_vacuous_off_its_hypotheses():
    # flat data: the evaluation is missing (the bound itself would hold)
    bv = bounds.BOUNDS["diamagnetic"](bounds.torus_data(np.eye(2), [0.5, 0]), 1.0)
    assert bv.vacuous and bv.value is None and bv.form == "upper_squared"
    assert bv.reason == "its evaluation on flat tori is not implemented yet"
    # curved data outside n = 3, b > 0: the reason names both
    for data, named in ((replace(S3, n=4), "n=4, b=1.0"), (replace(S3, oneill_b=0.0),
                                                            "n=3, b=0.0")):
        bv = bounds.BOUNDS["diamagnetic"](data, 1.0)
        assert bv.vacuous and bv.value is None and named in bv.reason, bv.reason


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
