import math

import numpy as np
import pytest
from scipy.integrate import quad

from kirchlab import (
    ConfigurationError,
    ConstantDissipation,
    LipschitzTable,
    PowerLawDissipation,
    PowerNonlinearity,
    Spectrum,
    classify_regime,
    compute_w0,
    dissipation_from_config,
    nonlinearity_from_config,
    p_gamma,
)


class TestNonlinearity:
    def test_power_linear(self):
        nl = PowerNonlinearity(1.0)
        assert (nl.value(4.0), nl.integral(4.0), nl.derivative(4.0)) == (4.0, 8.0, 1.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy warns, floats do not
    def test_power_overflow_saturates(self):
        nl = PowerNonlinearity(1e6)
        for method in (nl.value, nl.integral, nl.derivative):
            assert method(2.0) == math.inf
            np.testing.assert_array_equal(method(np.array([2.0, 3.0])), math.inf)

    def test_power_sqrt_kink_sentinel(self):
        nl = PowerNonlinearity(0.5)
        assert nl.value(0.0) == 0.0 and nl.integral(0.0) == 0.0
        assert nl.derivative(0.0) == math.inf

    def test_table_by_hand_integral(self):
        # m(s) = 1 + s on [0, 1]; integral over [0, 0.5] done by hand.
        nl = LipschitzTable(((0.0, 1.0), (1.0, 2.0)), mu=1.0)
        assert nl.value(0.5) == pytest.approx(1.5)
        assert nl.integral(0.5) == pytest.approx(0.625)
        assert nl.derivative(0.5) == pytest.approx(1.0)

    def test_table_constant_extension(self):
        nl = LipschitzTable(((0.0, 1.0), (1.0, 2.0)))
        assert nl.value(3.0) == 2.0
        assert nl.integral(3.0) == pytest.approx(1.5 + 2.0 * 2.0)
        assert nl.derivative(3.0) == 0.0

    def test_table_validation(self):
        with pytest.raises(ConfigurationError):
            LipschitzTable(((0.5, 1.0),))  # grid must start at 0
        with pytest.raises(ConfigurationError):
            LipschitzTable(((0.0, 1.0), (0.0, 2.0)))  # strictly increasing
        with pytest.raises(ConfigurationError):
            LipschitzTable(((0.0, -1.0),))

    @pytest.mark.parametrize(
        "nl",
        [
            PowerNonlinearity(0.5),
            PowerNonlinearity(1.0),
            PowerNonlinearity(3.0),
            LipschitzTable(((0.0, 0.0), (1.0, 2.0), (2.0, 1.0))),
        ],
    )
    def test_primitive_nondecreasing_from_zero(self, nl):
        grid = np.linspace(0.0, 5.0, 100)
        vals = [nl.integral(s) for s in grid]
        assert vals[0] == 0.0
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_primitive_matches_quadrature(self):
        nl = LipschitzTable(((0.0, 0.5), (0.7, 1.3), (2.0, 0.9)))
        kinks = [0.7, 2.0]
        for s in (0.3, 0.7, 1.5, 4.2):
            ref, _ = quad(
                nl.value,
                0.0,
                s,
                points=[k for k in kinks if k < s],
                epsabs=1e-13,
                epsrel=1e-13,
            )
            assert nl.integral(s) == pytest.approx(ref, rel=1e-10)


class TestDissipation:
    def test_log_case(self):
        dis = PowerLawDissipation(1.0)
        assert dis.b(math.e - 1.0) == pytest.approx(1.0 / math.e)
        assert dis.primitive(math.e - 1.0) == pytest.approx(1.0)

    def test_constant_case_p0(self):
        dis = PowerLawDissipation(0.0)
        assert (dis.b(3.0), dis.primitive(3.0)) == (1.0, 3.0)

    def test_integrable_tail(self):
        # total dissipation of (1+t)^-2 is 1
        assert PowerLawDissipation(2.0).primitive(1e12) == pytest.approx(1.0, abs=1e-11)

    def test_constant_delta(self):
        dis = ConstantDissipation(0.3)
        assert dis.b(10.0) == 0.3 and dis.primitive(10.0) == pytest.approx(3.0)

    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0, 1.7, 2.5])
    @pytest.mark.parametrize("t", [0.5, 2.0, 37.0])
    def test_primitive_matches_quadrature(self, p, t):
        dis = PowerLawDissipation(p)
        ref, _ = quad(dis.b, 0.0, t, epsabs=1e-13, epsrel=1e-13)
        assert dis.primitive(t) == pytest.approx(ref, rel=1e-10)

    def test_integrability_classification(self):
        # Integrable dissipation (p > 1) is exactly the hyperbolic regime.
        def hyperbolic(dis):
            return classify_regime(PowerNonlinearity(1.0), dis, True).tag == "hyperbolic"

        assert hyperbolic(PowerLawDissipation(2.0))
        assert not hyperbolic(PowerLawDissipation(1.0))
        assert not hyperbolic(ConstantDissipation(1.0))


# A 2x4 grid: zero, the breakpoints 1 and 2 of TABLE, points past its last
# breakpoint, and 1e3, where s^400 overflows.
SIGMAS = np.array([[0.0, 0.25, 1.0, 2.0], [2.5, 7.0, 40.0, 1e3]])
TABLE = LipschitzTable(((0.0, 0.5), (1.0, 2.0), (2.0, 1.5)))
TIMES = np.array([[0.0, 0.5, 1.0, 3.0], [10.0, 99.0, 1e4, 1e8]])


class TestArrayEvaluation:
    """Every coefficient method maps an array to the array of its scalar
    values; float and array powers may round differently in the last bit."""

    @staticmethod
    def check(method, xs):
        got = method(xs)
        assert isinstance(got, np.ndarray) and got.shape == xs.shape
        want = np.array([method(float(x)) for x in xs.ravel()]).reshape(xs.shape)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy warns, floats do not
    @pytest.mark.parametrize(
        "nl",
        [
            PowerNonlinearity(0.5),
            PowerNonlinearity(1.0),
            PowerNonlinearity(2.0),
            PowerNonlinearity(400.0),
            TABLE,
            LipschitzTable(((0.0, 3.0),)),
        ],
        ids=repr,
    )
    @pytest.mark.parametrize("method", ["value", "integral", "derivative"])
    def test_nonlinearity(self, nl, method):
        self.check(getattr(nl, method), SIGMAS)

    @pytest.mark.parametrize(
        "dis",
        [
            PowerLawDissipation(0.0),
            PowerLawDissipation(0.5),
            PowerLawDissipation(1.0),
            PowerLawDissipation(2.5),
            ConstantDissipation(0.7),
        ],
        ids=repr,
    )
    @pytest.mark.parametrize("method", ["b", "primitive"])
    def test_dissipation(self, dis, method):
        self.check(getattr(dis, method), TIMES)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # 0.0 ** -0.5
    @pytest.mark.parametrize("gamma,slope", [(0.5, math.inf), (1.0, 1.0), (2.0, 0.0)])
    def test_power_derivative_at_zero(self, gamma, slope):
        nl = PowerNonlinearity(gamma)
        assert nl.derivative(0.0) == slope
        np.testing.assert_array_equal(nl.derivative(np.zeros(3)), slope)

    def test_table_on_and_past_breakpoints(self):
        np.testing.assert_array_equal(TABLE.value(SIGMAS[0]), [0.5, 0.875, 2.0, 1.5])
        np.testing.assert_array_equal(TABLE.derivative(SIGMAS[0]), [1.5, 1.5, -0.5, 0.0])
        # 1.25 + 1.75 over the two segments, then m = 1.5 past the grid.
        np.testing.assert_allclose(
            TABLE.integral(np.array([1.0, 2.0, 7.0])), [1.25, 3.0, 3.0 + 1.5 * 5.0], rtol=1e-15
        )


class TestThreshold:
    def test_values(self):
        assert p_gamma(1.0) == 1.0
        assert p_gamma(2.0) == pytest.approx(5.0 / 7.0)
        assert p_gamma(0.5) == pytest.approx(0.2)

    def test_at_most_one_above_gamma_one(self):
        gammas = np.linspace(1.0, 50.0, 500)
        vals = [p_gamma(g) for g in gammas]
        assert all(v <= 1.0 for v in vals)
        assert sum(v == 1.0 for v in vals) == 1  # only gamma = 1

    def test_limit_at_infinity(self):
        assert p_gamma(1e8) == pytest.approx(1.0, abs=1e-7)

    def test_domain(self):
        with pytest.raises(ValueError):
            p_gamma(0.0)


class TestRegime:
    def test_gamma_one_all_parabolic(self):
        r = classify_regime(PowerNonlinearity(1.0), PowerLawDissipation(0.5), False)
        assert r.tag == "parabolic"

    def test_no_mans_land(self):
        r = classify_regime(PowerNonlinearity(2.0), PowerLawDissipation(0.8), False)
        assert r.tag == "no_mans_land"
        assert r.threshold == pytest.approx(5.0 / 7.0)

    def test_hyperbolic_above_one(self):
        for nl in (PowerNonlinearity(1.0), LipschitzTable(((0.0, 1.0),))):
            assert classify_regime(nl, PowerLawDissipation(1.5), True).tag == "hyperbolic"

    def test_nondegenerate_parabolic(self):
        nl = LipschitzTable(((0.0, 1.0),), mu=1.0)
        assert classify_regime(nl, PowerLawDissipation(1.0), False).tag == "parabolic"

    def test_degenerate_table_no_theory(self):
        nl = LipschitzTable(((0.0, 0.0), (1.0, 1.0)))
        assert classify_regime(nl, PowerLawDissipation(0.5), False).tag == "no_theory"
        assert classify_regime(nl, PowerLawDissipation(0.0), False).tag == "parabolic"
        assert classify_regime(nl, ConstantDissipation(2.0), False).tag == "parabolic"

    @pytest.mark.parametrize(
        "nl,coercive",
        [
            (PowerNonlinearity(0.5), False),
            (PowerNonlinearity(2.0), False),
            (PowerNonlinearity(2.0), True),
            (LipschitzTable(((0.0, 1.0),)), False),
            (LipschitzTable(((0.0, 0.0), (1.0, 1.0))), False),
        ],
    )
    def test_monotone_in_p(self, nl, coercive):
        # Raising p never moves the tag away from hyperbolic.
        order = {"parabolic": 0, "no_theory": 1, "no_mans_land": 1, "hyperbolic": 2}
        tags = [
            order[classify_regime(nl, PowerLawDissipation(p), coercive).tag]
            for p in np.linspace(0.0, 2.0, 41)
        ]
        assert all(b >= a for a, b in zip(tags, tags[1:]))


class TestCorrectorVelocity:
    def test_single_mode_by_hand(self):
        # sigma0 = 4, m = 4, A u0 = 2, b(0) = 1: w0 = 0 + 4*2
        w0 = compute_w0(
            Spectrum([1.0]), PowerNonlinearity(1.0), PowerLawDissipation(0.0), [2.0], [0.0]
        )
        np.testing.assert_allclose(w0, [8.0])

    def test_zero_position_passes_velocity(self):
        w0 = compute_w0(
            Spectrum([1.0, 2.0]),
            PowerNonlinearity(2.0),
            PowerLawDissipation(0.5),
            [0.0, 0.0],
            [3.0, -1.0],
        )
        np.testing.assert_array_equal(w0, [3.0, -1.0])

    def test_cancellation(self):
        w0 = compute_w0(
            Spectrum([1.0]),
            LipschitzTable(((0.0, 1.0),)),
            PowerLawDissipation(0.0),
            [1.0],
            [-1.0],
        )
        np.testing.assert_array_equal(w0, [0.0])


def test_config_parsers():
    nl = nonlinearity_from_config({"kind": "power", "gamma": 2.0})
    assert isinstance(nl, PowerNonlinearity) and nl.gamma == 2.0
    tab = nonlinearity_from_config(
        {"kind": "table", "points": [[0.0, 1.0], [1.0, 2.0]], "mu": 1.0}
    )
    assert isinstance(tab, LipschitzTable) and tab.mu == 1.0
    dis = dissipation_from_config({"kind": "power", "p": 0.5})
    assert isinstance(dis, PowerLawDissipation) and dis.p == 0.5
    con = dissipation_from_config({"kind": "constant", "delta": 2.0})
    assert isinstance(con, ConstantDissipation) and con.delta == 2.0
    with pytest.raises(ConfigurationError, match="gamma"):
        nonlinearity_from_config({"kind": "power"})
    with pytest.raises(ConfigurationError):
        dissipation_from_config({"kind": "power", "p": 0.5, "q": 1})


def test_table_mu_defaults_to_min_and_rejects_negative():
    assert LipschitzTable(((0.0, 2.0), (1.0, 3.0))).mu == 2.0
    for mu in (-1.0, -0.5, math.nan):
        with pytest.raises(ConfigurationError, match="mu"):
            LipschitzTable(((0.0, 2.0),), mu)


@pytest.mark.parametrize(
    "cfg, field",
    [
        ({"kind": "power", "gamma": "2"}, "m.gamma"),
        ({"kind": "power", "gamma": None}, "m.gamma"),
        ({"kind": "power", "gamma": True}, "m.gamma"),
        ({"kind": "table", "points": [[0.0, "a"]]}, r"m.points\[0\]\[1\]"),
        ({"kind": "table", "points": [[0.0, 1.0, 2.0]]}, r"m.points\[0\]"),
        ({"kind": "table", "points": 1.0}, "m.points"),
        ({"kind": "table", "points": [[0.0, 1.0]], "mu": "1"}, "m.mu"),
        ({"kind": "table", "points": [[0.0, 1.0]], "mu": -1}, "mu"),
    ],
)
def test_nonlinearity_config_bad_values_named(cfg, field):
    with pytest.raises(ConfigurationError, match=field):
        nonlinearity_from_config(cfg)


@pytest.mark.parametrize(
    "cfg, field",
    [({"kind": "power", "p": "0.5"}, "b.p"), ({"kind": "constant", "delta": [1.0]}, "b.delta")],
)
def test_dissipation_config_bad_values_named(cfg, field):
    with pytest.raises(ConfigurationError, match=field):
        dissipation_from_config(cfg)
