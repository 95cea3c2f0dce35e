import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kirchlab import ConfigurationError, Spectrum
from kirchlab.harness import _model_section
from kirchlab.spectral import as_modal, modal_sums, sigma_half

from helpers import sobolev_norm_sq


def test_norm_single_mode():
    assert sobolev_norm_sq(Spectrum([1.0]), [2.0], 0.5) == 4.0


def test_norm_direct_sum():
    assert sobolev_norm_sq(Spectrum([1.0, 4.0]), [1.0, 1.0], 1.0) == 17.0


def test_norm_kernel_mode_only():
    assert sobolev_norm_sq(Spectrum([0.0, 9.0]), [5.0, 0.0], 0.5) == 0.0


def test_norm_order_zero_counts_kernel():
    # 0^0 = 1 convention: kernel coefficients contribute at order 0.
    assert sobolev_norm_sq(Spectrum([0.0, 2.0]), [3.0, 1.0], 0.0) == 10.0


def test_modal_sums_rows_match_sobolev_norm():
    spec = Spectrum([0.0, 2.0])
    rows = np.array([[3.0, 1.0], [0.0, 2.0]])
    orders = [0.0, 0.5, 1.0]
    expected = [[sobolev_norm_sq(spec, row, s) for s in orders] for row in rows]
    np.testing.assert_array_equal(modal_sums(spec, rows, orders), expected)
    np.testing.assert_array_equal(expected, [[10.0, 2.0, 4.0], [4.0, 8.0, 16.0]])


def test_sigma_half_is_the_half_order_norm_bit_for_bit():
    rng = np.random.default_rng(11)
    spec = Spectrum(np.concatenate(([0.0], np.sort(rng.uniform(1e-3, 1e3, 63)))))
    for x in rng.normal(size=(20, 64)) * np.logspace(-150, 150, 20)[:, None]:
        assert sigma_half(spec.eigenvalues, x) == sobolev_norm_sq(spec, x, 0.5)


@pytest.mark.parametrize("n", [512, 10_000])
def test_sigma_half_matches_compensated_sum(n):
    # Nonnegative terms cannot cancel, so the plain pairwise sum stays
    # within a few epsilons of the correctly rounded one even when the
    # terms span 300 decades.
    rng = np.random.default_rng(n)
    lam = np.sort(rng.uniform(1e-3, 1e3, n))
    terms = rng.permutation(np.logspace(-300, 0, n))
    u = rng.choice([-1.0, 1.0], n) * np.sqrt(terms / lam)
    exact = math.fsum(lam * (u * u))
    assert abs(sigma_half(lam, u) - exact) <= 1e-13 * exact


def test_length_mismatch_rejected():
    with pytest.raises(ConfigurationError, match="length"):
        sobolev_norm_sq(Spectrum([1.0, 2.0]), [1.0], 0.5)


@pytest.mark.parametrize("x", [[[1.0], [0.5]], ["a", 1.0], [1.0, None], [1.0, [2.0]], 3.0])
def test_non_vector_rejected_as_flat_list(x):
    with pytest.raises(ConfigurationError, match="u0 must be a flat list of numbers"):
        as_modal(Spectrum([1.0, 2.0]), x, "u0")


def test_negative_order_rejected():
    with pytest.raises(ValueError):
        sobolev_norm_sq(Spectrum([1.0]), [1.0], -0.5)


def test_spectrum_validation():
    with pytest.raises(ConfigurationError):
        Spectrum([])
    with pytest.raises(ConfigurationError):
        Spectrum([-1.0, 2.0])
    with pytest.raises(ConfigurationError):
        Spectrum([2.0, 1.0])


@st.composite
def spectrum_and_vector(draw):
    n = draw(st.integers(1, 6))
    lam = sorted(
        draw(
            st.lists(
                st.floats(0.0, 50.0, allow_nan=False), min_size=n, max_size=n
            )
        )
    )
    x = draw(
        st.lists(st.floats(-10.0, 10.0, allow_nan=False), min_size=n, max_size=n)
    )
    return Spectrum(lam), np.array(x)


@given(spectrum_and_vector())
def test_interpolation_inequality(sv):
    spec, x = sv
    half = sobolev_norm_sq(spec, x, 0.5)
    lo = math.sqrt(sobolev_norm_sq(spec, x, 0.0))
    hi = math.sqrt(sobolev_norm_sq(spec, x, 1.0))
    assert half <= lo * hi * (1.0 + 1e-12) + 1e-12


@given(spectrum_and_vector())
def test_coercive_lower_bound(sv):
    spec, x = sv
    nu = spec.eigenvalues[0]
    if nu > 0.0:
        half = sobolev_norm_sq(spec, x, 0.5)
        full = sobolev_norm_sq(spec, x, 0.0)
        assert half >= nu * full * (1.0 - 1e-12)


def test_config_explicit():
    spec = _model_section("spectrum", {"kind": "explicit", "values": [1, 2, 3]}, lengths={})
    np.testing.assert_array_equal(spec.eigenvalues, [1.0, 2.0, 3.0])


def test_config_power_rule():
    spec = _model_section("spectrum", {"kind": "power", "a": 2.0, "q": 2.0, "n": 3}, lengths={})
    np.testing.assert_allclose(spec.eigenvalues, [2.0, 8.0, 18.0])


def test_config_power_rule_q_negative_ascending():
    spec = _model_section("spectrum", {"kind": "power", "a": 1, "q": -2, "n": 4}, lengths={})
    np.testing.assert_array_equal(spec.eigenvalues, [4**-2, 3**-2, 2**-2, 1])


@pytest.mark.parametrize("q", [0.0, 0.5, 2.0])
def test_config_power_rule_q_nonnegative_unchanged(q):
    spec = _model_section("spectrum", {"kind": "power", "a": 0.7, "q": q, "n": 50}, lengths={})
    np.testing.assert_array_equal(spec.eigenvalues, 0.7 * np.arange(1, 51, dtype=float) ** q)


def test_config_unknown_key_rejected():
    with pytest.raises(ConfigurationError, match="extra"):
        _model_section("spectrum", {"kind": "explicit", "values": [1], "extra": 1}, lengths={})


@pytest.mark.parametrize(
    "cfg, field",
    [
        ({"kind": "power", "a": 1.0, "q": 1.0, "n": 2.5}, "spectrum.n"),
        ({"kind": "power", "a": "1", "q": 1.0, "n": 2}, "spectrum.a"),
        ({"kind": "power", "a": 1.0, "n": 2}, "spectrum.q"),
        ({"kind": "explicit", "values": [1.0, "x"]}, r"spectrum.values\[1\]"),
        ({"kind": "explicit", "values": 4.0}, "spectrum.values"),
    ],
)
def test_config_bad_values_named(cfg, field):
    with pytest.raises(ConfigurationError, match=field):
        _model_section("spectrum", cfg, lengths={})
