"""Clifford generator construction and module actions."""

import numpy as np
import pytest

from magdirac import clifford


EXACT_ENTRIES = np.array([0.0, 1.0, -1.0, 1.0j, -1.0j], dtype=np.complex128)


@pytest.mark.parametrize("n", range(1, 9))
def test_anticommutation(n):
    gens = clifford.build_rep(n)
    dim = 2 ** (n // 2)
    assert len(gens) == n
    eye = np.eye(dim)
    for i, gi in enumerate(gens):
        assert gi.shape == (dim, dim)
        for j, gj in enumerate(gens):
            acomm = gi @ gj + gj @ gi
            target = -2.0 * eye if i == j else np.zeros_like(eye)
            assert np.max(np.abs(acomm - target)) == 0.0, (n, i, j)


@pytest.mark.parametrize("n", range(1, 9))
def test_generators_are_skew_hermitian_with_exact_entries(n):
    for g in clifford.build_rep(n):
        assert np.max(np.abs(g + g.conj().T)) == 0.0
        flat = g.ravel()
        dist = np.min(np.abs(flat[:, None] - EXACT_ENTRIES[None, :]), axis=1)
        assert np.max(dist) == 0.0


def test_dimension_one_generator_is_minus_i():
    (g,) = clifford.build_rep(1)
    assert g.shape == (1, 1)
    assert g[0, 0] == -1.0j


@pytest.mark.parametrize("n", [1, 3, 5, 7])
def test_volume_element_odd_is_pinned_scalar(n):
    gens = clifford.build_rep(n)
    vol = clifford.volume_element(gens)
    target = -1.0 if n % 4 == 3 else -1.0j
    assert np.max(np.abs(vol - target * np.eye(vol.shape[0]))) == 0.0
    for g in gens:
        assert np.max(np.abs(g @ vol - vol @ g)) == 0.0


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_volume_element_even_anticommutes(n):
    gens = clifford.build_rep(n)
    vol = clifford.volume_element(gens)
    v2 = vol @ vol
    unit = v2[0, 0]
    assert abs(abs(unit) - 1.0) < 1e-14
    assert np.max(np.abs(v2 - unit * np.eye(vol.shape[0]))) < 1e-14
    for g in gens:
        assert np.max(np.abs(vol @ g + g @ vol)) == 0.0


def test_build_rep_rejects_out_of_range():
    with pytest.raises(ValueError):
        clifford.build_rep(0)
    with pytest.raises(ValueError):
        clifford.build_rep(clifford._MAX_DIM + 1)


def test_generators_are_read_only():
    gens = clifford.build_rep(3)
    with pytest.raises(ValueError):
        gens[0][0, 0] = 5.0


def test_build_rep_is_built_once_per_dimension():
    gens = clifford.build_rep(4)
    assert clifford.build_rep(4) is gens
    assert isinstance(gens, tuple) and len(gens) == 4
    assert not any(g.flags.writeable for g in gens)
    clifford.build_rep(2)
    with pytest.raises(ValueError):  # a float is refused, even with 2 cached
        clifford.build_rep(2.0)


def test_vector_action_squares_to_minus_norm():
    rng = np.random.default_rng(11)
    for n in range(1, 7):
        gens = clifford.build_rep(n)
        for _ in range(20):
            v = rng.normal(size=n)
            act = clifford.vector_action(v, gens)
            sq = act @ act
            target = -float(v @ v) * np.eye(sq.shape[0])
            assert np.max(np.abs(sq - target)) < 1e-12 * (1.0 + v @ v)


def test_vector_action_pairs_give_minus_two_inner_product():
    rng = np.random.default_rng(12)
    for n in range(2, 7):
        gens = clifford.build_rep(n)
        for _ in range(10):
            v, w = rng.normal(size=(2, n))
            av = clifford.vector_action(v, gens)
            aw = clifford.vector_action(w, gens)
            got = av @ aw + aw @ av
            target = -2.0 * float(v @ w) * np.eye(got.shape[0])
            assert np.max(np.abs(got - target)) < 1e-12 * (1.0 + abs(v @ w))


def test_vector_action_is_skew_for_real_and_rejects_bad_shape():
    gens = clifford.build_rep(4)
    act = clifford.vector_action(np.array([1.0, 2.0, -0.5, 0.25]), gens)
    assert np.max(np.abs(act + act.conj().T)) == 0.0
    with pytest.raises(ValueError):
        clifford.vector_action(np.ones(3), gens)
    with pytest.raises(ValueError):
        clifford.vector_action(np.ones((2, 3)), gens)


def test_vector_action_of_a_stack_is_the_stack_of_actions():
    rng = np.random.default_rng(14)
    for n in range(1, 7):
        gens = clifford.build_rep(n)
        stack = rng.normal(size=(5, n)) + 1j * rng.normal(size=(5, n))
        loop = [sum(vj * g for vj, g in zip(v, gens)) for v in stack]
        assert np.array_equal(clifford.vector_action(stack, gens), np.array(loop))


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_vector_action_equals_the_einsum_bit_for_bit(n, kind):
    # every real and imaginary part of the result sums at most one nonzero
    # product, so the BLAS product must equal the plain contraction in every
    # bit, signs of zero included, at scales near both ends of float64
    rng = np.random.default_rng(100 + n)
    gens = clifford.build_rep(n)
    shape = (3, 4, n)

    def part():
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
        return np.where(rng.random(shape) < 0.3, rng.choice([0.0, -0.0], size=shape), x)

    v = part() if kind == "real" else part() + 1j * part()
    for stack in (v, v[0, 0], v[:0]):
        want = np.einsum("...j,jab->...ab", stack, gens)
        got = clifford.vector_action(stack, gens)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_two_form_action_matches_generator_products():
    rng = np.random.default_rng(13)
    for n in (2, 3, 4, 5):
        gens = clifford.build_rep(n)
        om = rng.normal(size=(n, n))
        om = om - om.T
        act = clifford.two_form_action(om, gens)
        manual = sum(
            om[i, j] * gens[i] @ gens[j]
            for i in range(n)
            for j in range(i + 1, n)
        )
        assert np.max(np.abs(act - manual)) == 0.0


def test_two_form_action_accepts_complex_and_rejects_nonantisymmetric():
    gens = clifford.build_rep(3)
    om = np.zeros((3, 3), dtype=np.complex128)
    om[0, 1], om[1, 0] = 2.0j, -2.0j
    act = clifford.two_form_action(om, gens)
    # g1 g2 has eigenvalues +-i, so 2i g1 g2 has eigenvalues -+2
    eigs = np.sort(np.linalg.eigvals(act).real)
    assert np.max(np.abs(eigs - np.array([-2.0, 2.0]))) < 1e-12
    with pytest.raises(ValueError):
        clifford.two_form_action(np.eye(3), gens)


def test_two_form_antisymmetry_check_is_absolute():
    # off by 5e-6: within a relative 1e-5 of the entry, far past 1e-12
    om = np.zeros((3, 3))
    om[0, 1], om[1, 0] = 1.0, -1.0 + 5e-6
    with pytest.raises(ValueError, match="not antisymmetric"):
        clifford.two_form_action(om, clifford.build_rep(3))


def test_simple_two_form_eigenvalues():
    # action of e1^e2 squares to -1: eigenvalues are +-i
    for n in (2, 3, 4):
        gens = clifford.build_rep(n)
        om = np.zeros((n, n))
        om[0, 1], om[1, 0] = 1.0, -1.0
        act = clifford.two_form_action(om, gens)
        assert np.max(np.abs(act @ act + np.eye(act.shape[0]))) == 0.0


@pytest.mark.parametrize("call, message", [
    (lambda: clifford.two_form_action(np.zeros((2, 2)), clifford.build_rep(3)),
     "two-form has shape"),
])
def test_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()
