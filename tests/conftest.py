"""Shared fixtures: environments, scenarios, and channel matrices."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel.batch import ChannelBatch
from repro.config import MacConfig, RadioConfig
from repro.topology.deployment import AntennaMode
from repro.topology.scenarios import office_b, single_ap_scenario


@pytest.fixture(scope="session")
def radio() -> RadioConfig:
    return RadioConfig()


@pytest.fixture(scope="session")
def mac() -> MacConfig:
    return MacConfig()


@pytest.fixture(scope="session")
def das_scenario():
    return single_ap_scenario(office_b(), AntennaMode.DAS, seeds=[11])


@pytest.fixture(scope="session")
def cas_scenario():
    return single_ap_scenario(office_b(), AntennaMode.CAS, seeds=[11])


@pytest.fixture(scope="session")
def das_channel(das_scenario):
    """A batch of one channel for ``das_scenario``."""
    return ChannelBatch(das_scenario.deployment, das_scenario.radio, seeds=[11])


@pytest.fixture(scope="session")
def h_das(das_channel) -> np.ndarray:
    return das_channel.channel_matrices()[0]


# Shared non-fixture helpers live in helpers.py; import them there
# (``from helpers import random_channel``), not from this conftest.
