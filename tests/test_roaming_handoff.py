"""`roaming_handoff` experiment tests: campus-grid roaming per policy.

The experiment sweeps association policies against client speed on a
small campus AP grid (MIDAS stack only).  Key contracts:

* one seed per call (``batch_size=1``) and stacked runs produce
  ``array_equal`` series (the batch association layer consumes literally
  the scalar decisions),
* ``nearest_anchor`` never hands off (the paper's implicit baseline),
* the spec-level ``association`` axis restricts the sweep to one policy
  and ``coordination`` is threaded through to every evaluator.
"""

import numpy as np
import pytest

from repro.api import Runner, RunSpec

FAST = {
    "rounds_per_topology": 8,
    "speeds_mps": [2.0, 6.0],
    "clients_per_ap": 2,
}


class TestRoamingHandoffExperiment:
    SPEC = RunSpec("roaming_handoff", n_topologies=2, seed=3, params=FAST)

    def test_backends_bit_identical(self):
        single = Runner(batch_size=1).run(self.SPEC)
        vec = Runner().run(self.SPEC)
        assert set(single.series) == {
            f"{policy}_{metric}"
            for policy in (
                "nearest_anchor", "strongest_rssi", "hysteresis_handoff"
            )
            for metric in ("capacity_bps_hz", "handoffs", "outage_fraction")
        }
        for key in single.series:
            np.testing.assert_array_equal(single.series[key], vec.series[key])
        assert single.series["nearest_anchor_capacity_bps_hz"].shape == (2, 2)

    def test_nearest_anchor_never_hands_off(self):
        result = Runner().run(self.SPEC)
        np.testing.assert_array_equal(
            result.series["nearest_anchor_handoffs"], 0.0
        )
        np.testing.assert_array_equal(
            result.series["nearest_anchor_outage_fraction"], 0.0
        )

    def test_outage_fraction_bounded(self):
        result = Runner().run(self.SPEC)
        for policy in ("strongest_rssi", "hysteresis_handoff"):
            fractions = result.series[f"{policy}_outage_fraction"]
            assert np.all(fractions >= 0)
            assert np.all(fractions <= 1)

    def test_association_axis_restricts_sweep(self):
        spec = self.SPEC.replace(association="hysteresis_handoff")
        result = Runner().run(spec)
        assert set(result.series) == {
            "hysteresis_handoff_capacity_bps_hz",
            "hysteresis_handoff_handoffs",
            "hysteresis_handoff_outage_fraction",
        }
        assert result.params["policies"] == ("hysteresis_handoff",)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="association"):
            Runner().run(self.SPEC.replace(association="tarot_cards"))

    def test_static_mobility_rejected(self):
        with pytest.raises(
            ValueError, match="roaming_handoff sweeps client speed; pick a moving"
        ):
            Runner().run(self.SPEC.replace(mobility="static"))

    @pytest.mark.parametrize("axis", ["speeds_mps", "policies"])
    def test_empty_sweep_axis_rejected(self, axis):
        spec = self.SPEC.replace(params={**FAST, axis: []})
        with pytest.raises(ValueError, match=f"{axis} is empty"):
            Runner().run(spec)

    def test_coordination_threaded_through(self):
        spec = self.SPEC.replace(
            association="strongest_rssi",
            coordination="coordinated_scheduling",
        )
        single = Runner(batch_size=1).run(spec)
        vec = Runner().run(spec)
        assert single.params["coordination"] == "coordinated_scheduling"
        for key in single.series:
            np.testing.assert_array_equal(single.series[key], vec.series[key])

    def test_coordination_only_removes_double_scheduling(self):
        independent = Runner().run(self.SPEC.replace(association="nearest_anchor"))
        coordinated = Runner().run(
            self.SPEC.replace(
                association="nearest_anchor",
                coordination="coordinated_scheduling",
            )
        )
        # Coordinated scheduling can only withhold clients, never add them,
        # so it is a different (usually lower-capacity) schedule -- but it
        # must stay a valid one: positive capacity everywhere.
        assert np.all(
            coordinated.series["nearest_anchor_capacity_bps_hz"] > 0
        )
        assert independent.series["nearest_anchor_capacity_bps_hz"].shape == (
            coordinated.series["nearest_anchor_capacity_bps_hz"].shape
        )
