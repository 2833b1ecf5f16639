"""MIDAS: Multiple-Input Distributed Antenna Systems for 802.11ac.

A full reproduction of Xiong et al., "MIDAS: Empowering 802.11ac Networks
with Multiple-Input Distributed Antenna Systems" (ACM CoNEXT 2014), as a
pure-Python library: the power-balanced MU-MIMO precoder, the DAS-aware MAC
(per-antenna carrier sensing, opportunistic antenna selection, virtual
packet tagging, deficit-round-robin client selection), and the simulation
substrates (indoor channel model, topology generators, discrete-event
802.11 MAC) needed to regenerate every figure of the paper's evaluation.

Quickstart
----------
Every workload is a declarative :class:`RunSpec` executed by a
:class:`Runner` -- environments, precoders, and experiments are looked up by
name in pluggable registries:

>>> from repro import RunSpec, Runner
>>> result = Runner().run(RunSpec("fig03", n_topologies=2, seed=1))
>>> sorted(result.series)
['cas_drop', 'das_drop']
>>> result.spec.experiment
'fig03'

Every run evaluates whole topology batches as stacked array math; scale
out over worker processes with ``jobs`` (bit-identical to ``jobs=1``), and
cache results on disk keyed by a hash of the fully resolved parameters::

    runner = Runner(jobs=4, cache_dir="results/cache")
    result = runner.run(RunSpec("fig09", n_topologies=60, precoder="wmmse"))
    result.save("results/fig09.npz")          # or .json; round-trips losslessly

New algorithms plug in by registration, no runner changes needed::

    from repro import register_precoder

    @register_precoder("my_precoder")
    def my_precoder(h, per_antenna_power_mw, noise_mw): ...  # stacked h -> stacked v

The low-level library surface (channel models, precoders, topology
factories) remains importable directly for custom studies.  Every kernel is
batched, and a single topology is a batch of one:

>>> from repro import AntennaMode, ChannelBatch, office_b, single_ap_scenario
>>> from repro import power_balanced_precoder
>>> scenario = single_ap_scenario(office_b(), AntennaMode.DAS, seeds=[7])
>>> channel = ChannelBatch(scenario.deployment, scenario.radio, seeds=[7])
>>> h = channel.channel_matrices()  # (1, n_clients, n_antennas)
>>> radio = scenario.radio
>>> result = power_balanced_precoder(h, radio.per_antenna_power_mw, radio.noise_mw)
>>> bool(result.converged[0])
True

See ``examples/quickstart.py`` for a longer tour.
"""

# Defined before the subpackage imports below: repro.api.runner folds the
# version into its cache keys at import time.
__version__ = "15.0.0"

from .analysis import (
    EmpiricalCdf,
    QuantileSketch,
    RunningStats,
    StreamingSummary,
    median_gain,
)
from .api import (
    ExperimentDef,
    ExperimentResult,
    RunResult,
    Runner,
    RunSpec,
    UnknownNameError,
    experiment_names,
    register_association,
    register_environment,
    register_experiment,
    register_mobility,
    register_precoder,
    register_traffic,
)
from .assoc import (
    AssociationPolicy,
    CoordinationMode,
    association_names,
    resolve_association,
    resolve_coordination,
)
from .campaign import CampaignResult, CampaignRunner, CampaignSpec
from .channel import ChannelBatch, coverage_range_m, cs_range_m
from .config import MacConfig, MidasConfig, RadioConfig, SimConfig
from .mobility import MobilityModel, mobility_names, resolve_mobility
from .core import (
    naive_scaled_precoder,
    optimal_power_allocation,
    power_balanced_precoder,
    reverse_waterfill,
    tag_mask,
    zfbf_directions,
    zfbf_equal_power,
)
from .phy import stream_sinrs, sum_capacity_bps_hz
from .xp import (
    ArrayNamespace,
    BackendUnavailableError,
    array_namespace,
    get_namespace,
    namespace_names,
)
from .traffic import AmpduConfig, TrafficModel, resolve_traffic, traffic_names
from .topology import (
    AntennaMode,
    Deployment,
    Scenario,
    eight_ap_scenario,
    hidden_terminal_scenario,
    office_a,
    office_b,
    single_ap_scenario,
    three_ap_scenario,
)

__all__ = [
    "EmpiricalCdf",
    "QuantileSketch",
    "RunningStats",
    "StreamingSummary",
    "median_gain",
    "CampaignResult",
    "CampaignRunner",
    "CampaignSpec",
    "ExperimentDef",
    "ExperimentResult",
    "RunResult",
    "Runner",
    "RunSpec",
    "UnknownNameError",
    "experiment_names",
    "register_association",
    "register_environment",
    "register_experiment",
    "register_mobility",
    "register_precoder",
    "register_traffic",
    "AssociationPolicy",
    "CoordinationMode",
    "association_names",
    "resolve_association",
    "resolve_coordination",
    "AmpduConfig",
    "TrafficModel",
    "resolve_traffic",
    "traffic_names",
    "MobilityModel",
    "mobility_names",
    "resolve_mobility",
    "ChannelBatch",
    "coverage_range_m",
    "cs_range_m",
    "MacConfig",
    "MidasConfig",
    "RadioConfig",
    "SimConfig",
    "naive_scaled_precoder",
    "optimal_power_allocation",
    "power_balanced_precoder",
    "reverse_waterfill",
    "tag_mask",
    "zfbf_directions",
    "zfbf_equal_power",
    "stream_sinrs",
    "sum_capacity_bps_hz",
    "ArrayNamespace",
    "BackendUnavailableError",
    "array_namespace",
    "get_namespace",
    "namespace_names",
    "AntennaMode",
    "Deployment",
    "Scenario",
    "eight_ap_scenario",
    "hidden_terminal_scenario",
    "office_a",
    "office_b",
    "single_ap_scenario",
    "three_ap_scenario",
    "__version__",
]
