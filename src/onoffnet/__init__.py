"""ON/OFF node activity, battery discharge and energy-aware routing toolkit.

Exports are lazy (PEP 562): ``import onoffnet`` loads no submodule, and so no
numpy; the first use of a name imports the submodule that defines it.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULE_NAMES = {
    "activity": (
        "GENERATOR_ID", "NodeState", "OnOffParams", "Segment", "Trajectory",
        "monte_carlo_on_times", "sample_trajectory", "total_on_time",
    ),
    "battery": (
        "BatteryState", "SodModel", "active_time_at", "advance",
        "discharge_current", "predict_lifetime", "sod_continuous", "sod_modulated",
    ),
    "occupancy": (
        "OccupancySpec", "OccupationLaw", "closed_form_gap", "density_curve",
        "exact_occupation_distribution", "mean_on_time", "on_time_cdf", "on_time_density",
    ),
    "routing": (
        "EnergyTable", "HelloCodec", "NetworkGraph", "RouteResult", "TableEntry",
        "collision_probability", "decode_energy", "encode_delay", "encode_slot",
        "select_route", "update_energy_table",
    ),
    "scenario": (
        "ConfigError", "NodeSetup", "ScenarioConfig", "ScenarioResult", "aggregate_metrics",
        "load_scenario_config", "run_scenario",
    ),
}

# Exported name -> defining submodule.
_SUBMODULE_OF = {name: module for module, names in _SUBMODULE_NAMES.items() for name in names}

__all__ = list(_SUBMODULE_OF)


def __getattr__(name: str):
    module = _SUBMODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value
