import numpy as np
import pytest

from radoppler.linspec import Spectrogram


@pytest.fixture
def make_spec():
    """Factory wrapping a raw power matrix in a Spectrogram with standard axes."""

    def _make(power, prf=1000.0, hop_dt=0.01):
        power = np.asarray(power, dtype=np.float64)
        return Spectrogram(power=power, f_max=prf / 2.0, frame_dt=hop_dt)

    return _make


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)
