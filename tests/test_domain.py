import math
import re
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from etac.domain import (
    SAT_LIMIT,
    NoiseSpec,
    StochasticEnv,
    _sq_norm,
    make_sat_plant,
    make_scalar_plant,
    sat,
    validate_env,
)

REFERENCE_ENV = StochasticEnv(q=0.75, p=(0.2, 0.2, 0.2, 0.2, 0.2), capacity=4)

# Magnitudes up to 1e6, with signed zeros and the saturation limits drawn often.
COORD = st.one_of(
    st.sampled_from([0.0, -0.0, 10.0, -10.0, 1e6, -1e6]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


# The ndarray expressions the plant maps used before they moved to Python floats.
def reference_sat_dynamics(x, u):
    return np.array([x[1] + u[0], -sat(x[0] + x[1]) + u[1]])


def reference_sat_control(x):
    return np.array([-x[1], 0.505 * sat(x[0] + x[1])])


def reference_linear_dynamics(a, x, u):
    return a * x + u


def reference_linear_control(gain, x):
    return -gain * x


def assert_bitwise(out, ref):
    assert out.dtype == np.float64 and out.shape == ref.shape
    assert out.tobytes() == ref.tobytes()


#: Every float, with signed zeros, infinities and NaN drawn often.
SPECIAL = st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]), st.floats())


def float_bits(values):
    """The IEEE bits of a list of Python floats (NaN's sign included)."""
    assert all(type(v) is float for v in values)
    return struct.pack(f"{len(values)}d", *values)


class TestValidateEnv:
    def test_reference_values_ok(self):
        assert validate_env(REFERENCE_ENV) == []

    # An invalid environment cannot be built: construction raises what
    # validate_env finds.
    def test_q_out_of_range(self):
        with pytest.raises(ValueError, match=r"q=1\.2"):
            StochasticEnv(q=1.2, p=(1.0,), capacity=1)

    def test_pmf_not_normalized(self):
        with pytest.raises(ValueError, match=r"sums to 1\.1"):
            StochasticEnv(q=0.4, p=(0.5, 0.5, 0.1), capacity=2)

    def test_capacity_and_length(self):
        with pytest.raises(ValueError, match="capacity"):
            StochasticEnv(q=0.5, p=(1.0,), capacity=0)
        with pytest.raises(ValueError, match="entries"):
            StochasticEnv(q=0.5, p=(0.5, 0.5), capacity=2)

    def test_negative_entry(self):
        with pytest.raises(ValueError, match=r"p\[0\]"):
            StochasticEnv(q=0.5, p=(-0.1, 0.6, 0.5), capacity=2)

    @given(st.floats(min_value=-2.0, max_value=3.0, allow_nan=False))
    def test_q_range_property(self, q):
        if 0.0 <= q <= 1.0:
            assert validate_env(StochasticEnv(q=q, p=(0.5, 0.5), capacity=1)) == []
        else:
            with pytest.raises(ValueError, match=re.escape(f"q={q}")):
                StochasticEnv(q=q, p=(0.5, 0.5), capacity=1)


class TestSat:
    def test_values(self):
        assert sat(3.0) == 3.0
        assert sat(20.0) == 10.0
        assert sat(-20.0) == -10.0
        assert sat(10.0) == 10.0

    @given(st.floats(min_value=-1e9, max_value=1e9, allow_nan=False))
    def test_idempotent(self, mu):
        assert sat(sat(mu)) == sat(mu)


class TestSatPlant:
    def test_origin_fixed_point(self):
        plant = make_sat_plant()
        out = plant.dynamics(np.zeros(2), np.zeros(2))
        assert np.array_equal(out, np.zeros(2))

    def test_saturated_branch(self):
        plant = make_sat_plant()
        out = plant.dynamics(np.array([20.0, 0.0]), np.zeros(2))
        assert np.array_equal(out, np.array([0.0, -10.0]))

    def test_alpha_certified_against_singular_value(self):
        # independent oracle: the open-loop linear regime is x -> Ax, so the
        # true supremum of |f(x,0)|/|x| is the largest singular value of A
        sigma_max = np.linalg.svd(np.array([[0.0, 1.0], [-1.0, -1.0]]))[1][0]
        plant = make_sat_plant()
        assert abs(plant.alpha - sigma_max) < 1e-3
        assert plant.alpha > sigma_max  # certification margin points upward

    def test_alpha_covers_grid_sweep(self):
        # The grid sweep that certified alpha before the closed form: a fine
        # angular sweep of the unit circle, where saturation is inactive, and
        # a coarse square sweep over the saturated branch, padded by 1e-4.
        ang = np.linspace(0.0, 2.0 * np.pi, 8192, endpoint=False)
        x1, x2 = np.cos(ang), np.sin(ang)
        ratio_linear = np.sqrt(x2**2 + (x1 + x2) ** 2)
        g = np.linspace(-50.0, 50.0, 401)
        xx1, xx2 = np.meshgrid(g, g)
        norm = np.sqrt(xx1**2 + xx2**2)
        mask = norm > 0.0
        s = np.clip(xx1 + xx2, -SAT_LIMIT, SAT_LIMIT)
        ratio_sat = np.sqrt(xx2[mask] ** 2 + s[mask] ** 2) / norm[mask]
        swept = float(max(ratio_linear.max(), ratio_sat.max()) * (1.0 + 1e-4))
        alpha = make_sat_plant().alpha
        assert swept <= alpha
        assert abs(alpha - swept) <= 1e-7 * swept

    def test_lyapunov_and_envelopes(self):
        plant = make_sat_plant()
        x = np.array([3.0, -4.0])
        assert plant.lyapunov(x) == pytest.approx(10.0)
        assert plant.phi1(2.5) == plant.phi2(2.5) == 5.0
        assert plant.rho == 0.99

    def test_rejects_negative_d(self):
        with pytest.raises(ValueError):
            make_sat_plant(-1.0)
        # the plant checks its own radius, so a copy is refused like a new one
        for plant in (make_sat_plant(), make_scalar_plant(1.2, 0.9, 1.0)):
            for d in (-1.0, math.nan):
                with pytest.raises(ValueError, match="nonnegative"):
                    replace(plant, d=d)

    def test_rejects_nan_d(self):
        # a NaN radius would keep the sensor silent: |x|**2 >= nan is False
        with pytest.raises(ValueError, match="nonnegative"):
            make_sat_plant(math.nan)


class TestPlantMapsMatchReference:
    @given(x1=COORD, x2=COORD, u1=COORD, u2=COORD)
    @example(x1=20.0, x2=0.0, u1=0.0, u2=0.0)
    @example(x1=-6.0, x2=-4.5, u1=-0.0, u2=0.0)
    @example(x1=1e6, x2=-1e6, u1=-0.0, u2=-0.0)
    @example(x1=-0.0, x2=-0.0, u1=-0.0, u2=-0.0)
    @settings(max_examples=500)
    def test_saturated_plant(self, x1, x2, u1, u2):
        plant = make_sat_plant()
        x, u = np.array([x1, x2]), np.array([u1, u2])
        assert_bitwise(plant.dynamics(x, u), reference_sat_dynamics(x, u))
        assert_bitwise(plant.control_law(x), reference_sat_control(x))

    @given(
        a=st.floats(min_value=-3.0, max_value=3.0),
        offset=st.floats(min_value=-0.999, max_value=0.999),
        x1=COORD,
        u1=COORD,
    )
    @example(a=2.0, offset=0.5, x1=-0.0, u1=0.0)
    @example(a=-0.0, offset=0.0, x1=1e6, u1=-0.0)
    @settings(max_examples=500)
    def test_scalar_plant(self, a, offset, x1, u1):
        gain = a - offset
        plant = make_scalar_plant(a, gain, 0.0)
        x, u = np.array([x1]), np.array([u1])
        assert_bitwise(plant.dynamics(x, u), reference_linear_dynamics(float(a), x, u))
        assert_bitwise(plant.control_law(x), reference_linear_control(float(gain), x))

    @given(x1=SPECIAL, x2=SPECIAL, u1=SPECIAL, u2=SPECIAL)
    @example(x1=math.nan, x2=-0.0, u1=math.inf, u2=-math.inf)
    @example(x1=math.inf, x2=-math.inf, u1=-0.0, u2=math.nan)
    @settings(max_examples=300)
    def test_saturated_float_form_is_the_array_call(self, x1, x2, u1, u2):
        plant = make_sat_plant()
        x, u = np.array([x1, x2]), np.array([u1, u2])
        assert float_bits(plant.dynamics.floats(x.tolist(), u.tolist())) == float_bits(
            plant.dynamics(x, u).tolist()
        )
        assert float_bits(plant.control_law.floats(x.tolist())) == float_bits(
            plant.control_law(x).tolist()
        )

    @given(a=st.floats(min_value=-3.0, max_value=3.0), offset=st.floats(-0.999, 0.999),
           x1=SPECIAL, u1=SPECIAL)
    @example(a=-0.0, offset=0.5, x1=math.nan, u1=-0.0)
    @example(a=2.0, offset=0.0, x1=-math.inf, u1=math.inf)
    @settings(max_examples=300)
    def test_scalar_float_form_is_the_array_call(self, a, offset, x1, u1):
        plant = make_scalar_plant(a, a - offset, 0.0)
        x, u = np.array([x1]), np.array([u1])
        assert float_bits(plant.dynamics.floats(x.tolist(), u.tolist())) == float_bits(
            plant.dynamics(x, u).tolist()
        )
        assert float_bits(plant.control_law.floats(x.tolist())) == float_bits(
            plant.control_law(x).tolist()
        )


class TestScalarPlant:
    def test_certified_factors(self):
        plant = make_scalar_plant(2.0, 1.5, 0.0)
        assert plant.rho == pytest.approx(0.5)
        assert plant.alpha == pytest.approx(2.0)

    @pytest.mark.parametrize("a", [0.4, -0.3671875, 0.9])
    def test_pad_keeps_rho_at_most_alpha(self, a):
        # The analysis refuses alpha < rho.  The cancellation pad refuses no
        # plant with |a - gain| <= |a|, and gain = 0 plays the zero input.
        zero = make_scalar_plant(a, 0.0, 0.0)
        assert zero.rho == zero.alpha
        for gain in (a / 2, a, math.nextafter(a, 0.0), 1.5 * a, 2 * a):
            plant = make_scalar_plant(a, gain, 0.0)
            assert plant.rho <= plant.alpha

    def test_closed_loop_arithmetic(self):
        plant = make_scalar_plant(2.0, 1.5, 0.0)
        x = np.array([4.0])
        u = plant.control_law(x)
        assert u[0] == -6.0
        assert plant.dynamics(x, u)[0] == 2.0

    def test_rejects_expanding_loop(self):
        with pytest.raises(ValueError):
            make_scalar_plant(2.0, 3.5, 0.0)

    @pytest.mark.parametrize(
        "a, gain, d, match",
        [(math.nan, 0.5, 0.0, "< 1"), (1.0, math.nan, 0.0, "< 1"), (1.0, 0.5, math.nan, "nonnegative")],
        ids=["a", "gain", "d"],
    )
    def test_rejects_nan(self, a, gain, d, match):
        with pytest.raises(ValueError, match=match):
            make_scalar_plant(a, gain, d)

    def test_control_law_continuous_and_zero_at_zero(self):
        plant = make_scalar_plant(2.0, 1.5, 0.0)
        assert plant.control_law(np.zeros(1))[0] == 0.0
        grid = np.linspace(-5.0, 5.0, 1001)
        vals = np.array([plant.control_law(np.array([g]))[0] for g in grid])
        step = grid[1] - grid[0]
        assert np.all(np.abs(np.diff(vals)) <= 2.0 * step + 1e-12)


class TestCertifiedInequalities:
    """Certified contraction and growth bounds hold exactly on dense random grids."""

    N_SAMPLES = 100_000

    def _states(self, dim, seed):
        rng = np.random.default_rng(seed)
        return rng.uniform(-50.0, 50.0, size=(self.N_SAMPLES, dim))

    def test_sat_plant_bounds(self):
        plant = make_sat_plant(d=1.0)
        states = self._states(2, 915151)
        zero = np.zeros(2)
        for x in states:
            v = plant.lyapunov(x)
            if math.sqrt(_sq_norm(x.tolist())) >= plant.d:
                closed = plant.lyapunov(plant.dynamics(x, plant.control_law(x)))
                assert closed <= plant.rho * v
            grown = plant.lyapunov(plant.dynamics(x, zero))
            assert grown <= plant.alpha * v

    def test_sat_plant_tight_rho(self):
        # f(x, kappa(x)) = (0, -0.495 sat(x1 + x2)) and |x1 + x2| <= sqrt(2) |x|,
        # so V contracts by 0.495 sqrt(2) ~ 0.700 everywhere, below the declared rho
        plant = make_sat_plant(d=1.0)
        tight = 0.495 * math.sqrt(2.0)
        assert tight < plant.rho
        bound = tight * (1.0 + 4 * 2.0**-52)  # a few ulps of rounding in f, kappa and V
        for x in self._states(2, 915151):
            closed = plant.lyapunov(plant.dynamics(x, plant.control_law(x)))
            assert closed <= bound * plant.lyapunov(x)

    def test_scalar_plant_bounds(self):
        plant = make_scalar_plant(2.0, 1.5, 1.0)
        states = self._states(1, 424242)
        zero = np.zeros(1)
        for x in states:
            v = plant.lyapunov(x)
            if abs(x[0]) >= plant.d:
                closed = plant.lyapunov(plant.dynamics(x, plant.control_law(x)))
                assert closed <= plant.rho * v
            grown = plant.lyapunov(plant.dynamics(x, zero))
            assert grown <= plant.alpha * v

    @given(a=st.floats(-3.0, 3.0), ulps=st.integers(-4, 4), seed=st.integers(0, 2**32 - 1))
    # gain one ulp below a: a relative pad on |a - gain| = 5.55e-17 left half
    # of the states with |f(x, kappa(x))| up to 2.0 rho |x|
    @example(a=0.3671875, ulps=-1, seed=424242)
    @settings(max_examples=30, deadline=None)
    def test_scalar_plant_bounds_with_gain_ulps_from_a(self, a, ulps, seed):
        # rho must cover the absolute rounding of a x + (-gain x), which no
        # relative pad on |a - gain| does once gain is a few ulps from a.
        gain = a
        for _ in range(abs(ulps)):
            gain = math.nextafter(gain, math.copysign(math.inf, ulps))
        plant = make_scalar_plant(a, gain, 0.0)
        for x in np.random.default_rng(seed).uniform(-50.0, 50.0, size=(2000, 1)):
            closed = plant.lyapunov(plant.dynamics(x, plant.control_law(x)))
            assert closed <= plant.rho * plant.lyapunov(x)

    def test_phi_envelopes_class_kinf(self):
        for plant in (make_sat_plant(), make_scalar_plant(2.0, 1.5, 0.0)):
            grid = np.linspace(0.0, 100.0, 2001)
            lo = np.array([plant.phi1(s) for s in grid])
            hi = np.array([plant.phi2(s) for s in grid])
            assert lo[0] == hi[0] == 0.0
            assert np.all(np.diff(lo) > 0) and np.all(np.diff(hi) > 0)
            assert np.all(lo <= hi)
            # sandwich the Lyapunov function on random states
            rng = np.random.default_rng(77)
            for _ in range(200):
                x = rng.uniform(-50.0, 50.0, size=plant.state_dim)
                # |x| summed left to right as V sums it: the builtin sum's
                # float algorithm is version-dependent, a BLAS dot CPU-dependent
                sq = 0.0
                for v in x.tolist():
                    sq += v * v
                r = math.sqrt(sq)
                assert plant.phi1(r) <= plant.lyapunov(x) <= plant.phi2(r)


class TestNoiseSpec:
    def test_none_requires_zero_std(self):
        with pytest.raises(ValueError):
            NoiseSpec(kind="none", std=1.0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            NoiseSpec(kind="uniform", std=1.0)

    def test_rejects_nan_std(self):
        with pytest.raises(ValueError, match="nonnegative"):
            NoiseSpec(kind="gaussian-iid", std=math.nan)

    def test_gaussian(self):
        spec = NoiseSpec(kind="gaussian-iid", std=2.0)
        assert spec.std == 2.0
