"""Federated embedded systems layer: vehicles, phones, fleets.

The scenario-composition front door lives in :mod:`repro.api`; this
package holds the vehicle assembly substrate plus the paper's concrete
demonstrator (example platform, fleets) built on top of it.

Exports resolve lazily (PEP 562): :mod:`repro.api` imports the
substrate modules (:mod:`repro.fes.vehicle`, :mod:`repro.fes.phone`)
while :mod:`repro.fes.example_platform` imports :mod:`repro.api`, and
the lazy indirection keeps that layering cycle-free.
"""

from importlib import import_module

_EXPORTS = {
    "build_example_platform": "repro.fes.example_platform",
    "declare_example_vehicle": "repro.fes.example_platform",
    "declare_remote_control_app": "repro.fes.example_platform",
    "make_example_vehicle_spec": "repro.fes.example_platform",
    "make_remote_control_app": "repro.fes.example_platform",
    "build_fleet": "repro.fes.fleet",
    "canary_campaign": "repro.fes.fleet",
    "ReceivedValue": "repro.fes.phone",
    "Smartphone": "repro.fes.phone",
    "StatisticalModel": "repro.fes.statistical",
    "StatisticalVehicle": "repro.fes.statistical",
    "calibrate_model": "repro.fes.statistical",
    "LegacyComponent": "repro.fes.vehicle",
    "PluginSwcPlacement": "repro.fes.vehicle",
    "Vehicle": "repro.fes.vehicle",
    "VehicleSpec": "repro.fes.vehicle",
    "build_vehicle": "repro.fes.vehicle",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    return getattr(import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
