import math

import pytest
from hypothesis import given, strategies as st

from flexrsa.physics import (
    FiberParams,
    gvd_differential_delay_ps,
    propagation_ps,
    slot_ghz_for_width_nm,
    slot_width_nm,
)


def params_04nm():
    """Grid tuned so one slot is exactly 0.4 nm wide at 193.1 THz."""
    return FiberParams(slot_width_ghz=slot_ghz_for_width_nm(0.4))


class TestSlotWidth:
    def test_50ghz_is_about_0p4nm(self):
        assert slot_width_nm(FiberParams()) == pytest.approx(0.402, abs=0.005)

    def test_zero_width(self):
        assert slot_width_nm(FiberParams(slot_width_ghz=0.0)) == 0.0

    def test_25ghz(self):
        # hand evaluation of c*df/fc^2: 2.99792458e8 * 25e9 / (1.931e14)^2 = 0.20100 nm
        assert slot_width_nm(FiberParams(slot_width_ghz=25.0)) == pytest.approx(0.201, abs=0.003)

    def test_inverse_conversion_round_trips(self):
        ghz = slot_ghz_for_width_nm(0.4)
        assert slot_width_nm(FiberParams(slot_width_ghz=ghz)) == pytest.approx(0.4, rel=1e-12)


class TestGvd:
    def test_ten_slot_band_over_10000km(self):
        # 17 ps/nm/km * 4 nm * 1e4 km
        assert gvd_differential_delay_ps(params_04nm(), 10, 1.0e4) == 680_000

    def test_zero_length(self):
        assert gvd_differential_delay_ps(FiberParams(), 5, 0.0) == 0

    def test_single_slot_1000km(self):
        # direct evaluation: 17 * 0.4 * 1000
        assert gvd_differential_delay_ps(params_04nm(), 1, 1000.0) == 6_800

    def test_rejects_empty_band(self):
        with pytest.raises(ValueError):
            gvd_differential_delay_ps(FiberParams(), 0, 100.0)

    def test_rejects_negative_length(self):
        with pytest.raises(ValueError, match="negative length: -1.0"):
            gvd_differential_delay_ps(FiberParams(), 2, -1.0)

    @given(
        slots=st.integers(min_value=1, max_value=64),
        length=st.floats(min_value=0.0, max_value=2.0e4, allow_nan=False),
    )
    def test_length_doubling_is_linear_up_to_rounding(self, slots, length):
        p = FiberParams()
        once = gvd_differential_delay_ps(p, slots, length)
        twice = gvd_differential_delay_ps(p, slots, 2 * length)
        assert twice in (2 * once - 1, 2 * once, 2 * once + 1)

    @given(
        slots=st.integers(min_value=1, max_value=32),
        length=st.floats(min_value=0.0, max_value=1.0e4, allow_nan=False),
    )
    def test_monotone_in_band_width(self, slots, length):
        p = FiberParams()
        assert gvd_differential_delay_ps(p, slots + 1, length) >= gvd_differential_delay_ps(
            p, slots, length
        )

    def test_gvd_negligible_against_path_diversity(self):
        p = FiberParams()
        gvd = gvd_differential_delay_ps(p, 10, 1.0e4)
        prop = propagation_ps(1.0e4, 2.0e5)
        assert gvd / prop < 1e-4


class TestPropagation:
    def test_10000km_is_50ms(self):
        assert propagation_ps(1.0e4, 2.0e5) == 5 * 10**10

    def test_zero(self):
        assert propagation_ps(0.0, 2.0e5) == 0

    def test_2000km_is_10ms(self):
        assert propagation_ps(2.0e3, 2.0e5) == 10**10

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            propagation_ps(-1.0, 2.0e5)

    @pytest.mark.parametrize(
        "length_km, speed_km_s",
        [(math.inf, 2.0e5), (math.nan, 2.0e5), (1.0e3, 1e-300), (1.0e300, 1e-20)],
        ids=["inf-length", "nan-length", "tiny-speed", "overflow"],
    )
    def test_non_finite_delay_rejected(self, length_km, speed_km_s):
        with pytest.raises(ValueError, match="is not finite"):
            propagation_ps(length_km, speed_km_s)


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        FiberParams(dispersion_ps_per_nm_km=0.0)
    with pytest.raises(ValueError):
        FiberParams(central_frequency_thz=-1.0)
    with pytest.raises(ValueError):
        FiberParams(slot_width_ghz=-5.0)


def test_rounding_is_half_up():
    # 0.5 ps boundary: 1 km at 2e12 km/s is exactly 0.5 ps
    assert propagation_ps(1.0, 2.0e12) == 1
