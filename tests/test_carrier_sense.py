"""Physical carrier sensing tests, against a hand-built verdict table."""

import numpy as np
import pytest

from helpers.carrier_sense_table import BUSY, CROSS_DBM, DECODE, NAV
from repro.config import MacConfig
from repro.sim.batch import CarrierSenseBatch

N = len(CROSS_DBM)


def model(cross_dbm=CROSS_DBM, **mac_kwargs):
    """A batch of one carrier-sense model."""
    mac = MacConfig(**mac_kwargs) if mac_kwargs else MacConfig()
    return CarrierSenseBatch(np.asarray(cross_dbm, dtype=float)[None], mac)


def mask(antennas, n=N):
    out = np.zeros((1, n), dtype=bool)
    out[0, list(antennas)] = True
    return out


def is_busy(cs, listener, transmitters):
    sensed = cs.sensed_power_mw(mask(transmitters, cs.n_antennas), listeners=[listener])
    return bool(sensed[0, 0] >= MacConfig().cs_threshold_mw)


class TestVerdictTable:
    @pytest.mark.parametrize("listener,transmitters,busy", BUSY)
    def test_energy_detect(self, listener, transmitters, busy):
        assert is_busy(model(), listener, transmitters) == busy

    @pytest.mark.parametrize("listener,transmitter,interferers,decodes", DECODE)
    def test_preamble_decode_and_capture(self, listener, transmitter, interferers, decodes):
        # The transmitter's own column is read off a mask of the
        # interferers alone: the event engine's NAV query.
        verdicts = model().decode_mask(mask(interferers))
        assert bool(verdicts[0, listener, transmitter]) == decodes

    @pytest.mark.parametrize("listener,transmitter,interferers,decodes", DECODE)
    def test_decode_unchanged_with_transmitter_in_mask(
        self, listener, transmitter, interferers, decodes
    ):
        verdicts = model().decode_mask(mask([transmitter, *interferers]))
        assert bool(verdicts[0, listener, transmitter]) == decodes

    @pytest.mark.parametrize("transmitters,listeners", NAV)
    def test_nav_listeners(self, transmitters, listeners):
        blocked = model().nav_blocked_mask(mask(transmitters))[0]
        others = [a for a in range(N) if a not in transmitters]
        assert [a for a in others if blocked[a]] == listeners

    def test_stacked_items_are_independent(self):
        # Every table row at once, one item per row, must give the rows'
        # verdicts: nothing leaks across the batch axis.
        cross = np.repeat(np.asarray(CROSS_DBM)[None], len(BUSY), axis=0)
        cs = CarrierSenseBatch(cross, MacConfig())
        tx = np.zeros((len(BUSY), N), dtype=bool)
        for b, (__, transmitters, __) in enumerate(BUSY):
            tx[b, transmitters] = True
        sensed = cs.sensed_power_mw(tx)
        for b, (listener, __, busy) in enumerate(BUSY):
            assert bool(sensed[b, listener] >= MacConfig().cs_threshold_mw) == busy


class TestBusyMask:
    def test_busy_mask_marks_transmitters(self):
        cross = [[np.inf, -95.0], [-95.0, np.inf]]
        busy = model(cross).busy_mask(mask([0], 2))[0]
        assert busy[0]
        assert not busy[1]

    def test_empty_transmitters(self):
        cross = [[np.inf, -60.0], [-60.0, np.inf]]
        assert not model(cross).busy_mask(mask([], 2)).any()

    def test_own_transmission_ignored_in_sensing(self):
        cross = [[np.inf, -95.0], [-95.0, np.inf]]
        assert model(cross).sensed_power_mw(mask([0], 2), listeners=[0])[0, 0] == 0.0

    def test_threshold_follows_mac_config(self):
        # -79 dBm is idle at the default -77 dBm threshold, busy at -80.
        assert not is_busy(model(), 0, [2])
        cs = model(cs_threshold_dbm=-80.0)
        sensed = cs.sensed_power_mw(mask([2]), listeners=[0])
        assert sensed[0, 0] >= MacConfig(cs_threshold_dbm=-80.0).cs_threshold_mw
        assert cs.busy_mask(mask([2]))[0, 0]


class TestDecodable:
    def test_clean_medium_verdicts(self):
        decodable = model().decodable_mask()[0]
        assert decodable[0, 1] and decodable[0, 2] and not decodable[0, 3]
        assert np.all(np.diag(decodable))  # an antenna decodes itself

    def test_single_transmitter_busy(self):
        busy = model().single_tx_busy()[0]
        assert busy[0, 1] and not busy[0, 2]

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            CarrierSenseBatch(np.zeros((1, 2, 3)), MacConfig())

    def test_rejects_wrong_mask_shape(self):
        with pytest.raises(ValueError, match="tx_mask"):
            model().busy_mask(np.zeros((2, N), dtype=bool))
