import dataclasses

import numpy as np
import pytest

from radoppler.ingest import write_radar_cube
from radoppler.linspec import Spectrogram
from radoppler.simulator import preset, synthesize


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


@pytest.fixture(scope="session")
def dwell(tmp_path_factory):
    """A walk_like cube file of 30 000 chirps: 29 full reads and a partial one, seven
    full filter groups and a partial one."""
    scenario = preset("walk_like")
    scenario = dataclasses.replace(
        scenario, params=dataclasses.replace(scenario.params, num_chirps=30_000))
    return write_radar_cube(synthesize(scenario), tmp_path_factory.mktemp("dwell") / "dwell.iq")
