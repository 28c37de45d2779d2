import pytest

from gaussmarkov import spectral


@pytest.fixture(scope="session")
def partial_witness():
    """Deep witness search, run once: it stops at n_7, past depth i = 2."""
    return spectral.weierstrass_indices(spectral.WeierstrassConfig(i_max=4))


@pytest.fixture(scope="session")
def partial_measure(partial_witness):
    """The measure assembled from the partial witness's windows."""
    return spectral.measure_from_windows(partial_witness.config, partial_witness.windows)
