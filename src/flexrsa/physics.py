"""Fiber delay physics: propagation delay and dispersion-induced skew.

All delays are integer picoseconds (round-half-up), which holds both the
nanosecond-scale dispersion skew within a band and the millisecond-scale
propagation delay between diverse paths without fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Vacuum speed of light, m/s.
C_M_PER_S = 2.99792458e8


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def propagation_ps(length_km: float, speed_km_s: float) -> int:
    """Integer-picosecond propagation delay of ``length_km`` at ``speed_km_s``."""
    if length_km < 0:
        raise ValueError(f"negative length: {length_km}")
    delay = length_km / speed_km_s * 1e12
    if not math.isfinite(delay):
        raise ValueError(f"propagation delay of {length_km} km at {speed_km_s} km/s is not finite")
    return round_half_up(delay)


@dataclass(frozen=True)
class FiberParams:
    """Fiber and grid parameters for delay computations.

    Defaults are standard single-mode fiber on the fixed 50 GHz grid around
    193.1 THz with 17 ps/nm/km dispersion.  The signal speed belongs to the
    network (``Network.propagation_speed_km_s``), which fixes each arc's delay.
    """

    dispersion_ps_per_nm_km: float = 17.0
    central_frequency_thz: float = 193.1
    slot_width_ghz: float = 50.0

    def __post_init__(self):
        for name in ("dispersion_ps_per_nm_km", "central_frequency_thz"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.slot_width_ghz < 0:
            raise ValueError(f"slot_width_ghz must be non-negative, got {self.slot_width_ghz}")


def slot_width_nm(params: FiberParams) -> float:
    """Wavelength width of one frequency slot at the central frequency.

    Uses the small-bandwidth identity d_lambda = c * d_f / f_c^2, valid while
    the band is much narrower than the carrier (true for any in-grid band).
    """
    f_c_hz = params.central_frequency_thz * 1e12
    df_hz = params.slot_width_ghz * 1e9
    return C_M_PER_S * df_hz / (f_c_hz * f_c_hz) * 1e9


def slot_ghz_for_width_nm(width_nm: float, central_frequency_thz: float = 193.1) -> float:
    """Inverse of :func:`slot_width_nm`: slot size in GHz for a target nm width."""
    f_c_hz = central_frequency_thz * 1e12
    return width_nm * 1e-9 * (f_c_hz * f_c_hz) / C_M_PER_S / 1e9


def gvd_differential_delay_ps(params: FiberParams, band_slots: int, length_km: float) -> int:
    """Worst-case dispersion skew across a band of consecutive slots, in ps.

    The band edges differ by band_slots * slot width; at dispersion D the
    outermost sub-carriers drift apart by D * width_nm * length.
    """
    if band_slots < 1:
        raise ValueError(f"band_slots must be >= 1, got {band_slots}")
    if length_km < 0:
        raise ValueError(f"negative length: {length_km}")
    width_nm = band_slots * slot_width_nm(params)
    return round_half_up(params.dispersion_ps_per_nm_km * width_nm * length_km)
