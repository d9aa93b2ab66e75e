import numpy as np
import pytest

from dcspin import (Nucleus, SpinSystem, angular_from_khz, angular_from_mhz,
                    nucleus_from_isotope)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def carbon_system():
    """Weakly coupled 13C at 1 T with the shifted frequency at 2pi x 10.713 MHz."""
    a_x = angular_from_khz(13.42)
    a_z = angular_from_khz(17.09)
    gamma = angular_from_mhz(10.713) - 0.5 * a_z
    return SpinSystem(field_z=1.0, nuclei=(Nucleus(gamma, a_x, a_z, label="13C"),))


@pytest.fixture
def carbon_rabi():
    return angular_from_mhz(1.0)


@pytest.fixture
def proton_cluster():
    """Five 1H nuclei at 0.35 T (dimension 64), A_x and A_z drawn in
    [0.3, 5] kHz from seed 0: the benchmark's many-nuclei cluster."""
    khz = np.random.default_rng(0).uniform(0.3, 5.0, size=(5, 2))
    return SpinSystem(field_z=0.35, nuclei=tuple(
        nucleus_from_isotope("1H", angular_from_khz(ax), angular_from_khz(az))
        for ax, az in khz))
