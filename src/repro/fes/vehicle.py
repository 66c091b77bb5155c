"""Vehicle assembly: ECUs + plug-in SW-Cs + ECM, ready to federate.

A :class:`VehicleSpec` declares the OEM-provided platform: ECUs, the
plug-in SW-Cs with their virtual-port APIs, the ECM placement, and any
legacy components.  :func:`build_vehicle` turns it into a running
AUTOSAR system wired to the wide-area network, and
:meth:`VehicleSpec.describe_for_server` produces exactly the HW conf and
SystemSW conf the OEM would upload to the trusted server — keeping the
vehicle and its server-side description consistent by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.autosar.swc import ComponentType
from repro.autosar.system import SystemDescription
from repro.autosar.rte.generator import BuiltSystem, build_system
from repro.core.ecm import EcmPirte, EcmSpec, SwcRoute, make_ecm_swc_type
from repro.core.pirte import Pirte
from repro.core.plugin_swc import (
    PluginSwcSpec,
    RelayLink,
    build_virtual_port_specs,
    get_pirte,
    make_plugin_swc_type,
)
from repro.core.virtual_ports import VirtualPortKind
from repro.errors import ConfigurationError
from repro.network.sockets import NetworkFabric
from repro.server.models import (
    EcuHw,
    HwConf,
    PluginSwcDesc,
    SystemSwConf,
    VirtualPortDesc,
)
from repro.sim.kernel import Simulator
from repro.telemetry import TelemetryBus


@dataclass
class PluginSwcPlacement:
    """One plug-in SW-C on one ECU."""

    instance_name: str
    ecu_name: str
    spec: PluginSwcSpec


@dataclass
class LegacyComponent:
    """A built-in (non-plug-in) component placed on an ECU."""

    instance_name: str
    ctype: ComponentType
    ecu_name: str
    priority: int = 6


@dataclass
class VehicleSpec:
    """Static description of one vehicle platform."""

    vin: str
    model: str
    ecus: list[str]
    ecm: PluginSwcPlacement
    plugin_swcs: list[PluginSwcPlacement] = field(default_factory=list)
    legacy: list[LegacyComponent] = field(default_factory=list)
    connectors: list[tuple[str, str, str, str]] = field(default_factory=list)
    server_address: str = "trusted-server.oem.example:7000"
    ecm_priority: int = 4
    plugin_priority: int = 2
    can_bitrate: int = 500_000
    #: Deployment region the OEM registers the vehicle under (empty =
    #: undeclared); a FleetSelector/wave-scheduling sharding attribute.
    region: str = ""
    #: Simulation fidelity: ``"full"`` builds the complete ECU/VM
    #: substrate, ``"statistical"`` a calibrated response model (see
    #: :mod:`repro.fes.statistical`).  The server-side description is
    #: identical either way — fidelity is a simulation choice, not a
    #: vehicle property.
    fidelity: str = "full"

    def all_placements(self) -> list[PluginSwcPlacement]:
        return [self.ecm] + list(self.plugin_swcs)

    def validate(self) -> "VehicleSpec":
        """Check placements, relays and SW-C roles; returns ``self``.

        Every SW-C and legacy component sits on a declared ECU, every
        relay names a declared peer that relays back, the ECM has no
        type I management ports and every other plug-in SW-C has them.
        :meth:`~repro.api.builder.VehicleBuilder.to_spec` and
        :func:`build_vehicle` both call this.
        """
        if not self.ecus:
            raise ConfigurationError(f"vehicle {self.vin} declares no ECUs")
        if self.ecm.spec.has_mgmt:
            raise ConfigurationError(
                f"vehicle {self.vin}: ECM {self.ecm.instance_name!r} "
                f"base spec must have has_mgmt=False"
            )
        for placement in self.plugin_swcs:
            if not placement.spec.has_mgmt:
                raise ConfigurationError(
                    f"vehicle {self.vin}: plug-in SW-C "
                    f"{placement.instance_name!r} needs has_mgmt=True"
                )
        by_name = {p.instance_name: p for p in self.all_placements()}
        for placement in self.all_placements():
            if placement.ecu_name not in self.ecus:
                raise ConfigurationError(
                    f"vehicle {self.vin}: SW-C "
                    f"{placement.instance_name!r} placed on unknown ECU "
                    f"{placement.ecu_name!r}"
                )
            for relay in placement.spec.relays:
                peer = by_name.get(relay.peer)
                if peer is None:
                    raise ConfigurationError(
                        f"vehicle {self.vin}: SW-C "
                        f"{placement.instance_name!r} relays to "
                        f"undeclared peer {relay.peer!r}"
                    )
                if _back_relay(peer, placement.instance_name) is None:
                    raise ConfigurationError(
                        f"vehicle {self.vin}: SW-C {relay.peer!r} lacks "
                        f"the back-relay toward {placement.instance_name!r}"
                    )
        for legacy in self.legacy:
            if legacy.ecu_name not in self.ecus:
                raise ConfigurationError(
                    f"vehicle {self.vin}: legacy component "
                    f"{legacy.instance_name!r} placed on unknown ECU "
                    f"{legacy.ecu_name!r}"
                )
        return self

    def describe_for_server(self) -> tuple[HwConf, SystemSwConf]:
        """The HW conf + SystemSW conf the OEM uploads for this model."""
        hw = HwConf(self.model, tuple(EcuHw(name) for name in self.ecus))
        swcs = []
        for placement in self.all_placements():
            specs = build_virtual_port_specs(placement.spec)
            ports = []
            for vp in specs:
                peer = ""
                if vp.kind in (VirtualPortKind.RELAY_OUT, VirtualPortKind.RELAY_IN):
                    peer = _relay_peer(placement.spec, vp.name)
                ports.append(VirtualPortDesc(vp.name, vp.kind, peer))
            swcs.append(
                PluginSwcDesc(
                    swc_name=placement.instance_name,
                    ecu_name=placement.ecu_name,
                    virtual_ports=tuple(ports),
                    vm_memory_bytes=(
                        placement.spec.vm_memory_blocks
                        * placement.spec.vm_block_size
                    ),
                )
            )
        return hw, SystemSwConf(tuple(swcs))


def _back_relay(
    peer: PluginSwcPlacement, toward: str
) -> Optional[RelayLink]:
    """``peer``'s relay pointing back at SW-C ``toward``, if any."""
    return next((r for r in peer.spec.relays if r.peer == toward), None)


def _relay_peer(spec: PluginSwcSpec, virtual_name: str) -> str:
    for relay in spec.relays:
        if virtual_name in (relay.out_virtual, relay.in_virtual):
            return relay.peer
    return ""


class Vehicle:
    """A built, running vehicle."""

    def __init__(self, spec: VehicleSpec, system: BuiltSystem) -> None:
        self.spec = spec
        self.system = system

    @property
    def vin(self) -> str:
        return self.spec.vin

    @property
    def sim(self) -> Simulator:
        return self.system.sim

    def pirte_of(self, swc_instance: str) -> Pirte:
        """The PIRTE inside a plug-in SW-C (ECU must have booted)."""
        return get_pirte(self.system.instance(swc_instance))

    @property
    def ecm_pirte(self) -> EcmPirte:
        pirte = self.pirte_of(self.spec.ecm.instance_name)
        assert isinstance(pirte, EcmPirte)
        return pirte

    def boot(self) -> None:
        self.system.boot_all()

    def run(self, duration_us: int) -> None:
        self.system.run(duration_us)


def build_vehicle(
    spec: VehicleSpec,
    fabric: NetworkFabric,
    sim: Optional[Simulator] = None,
    tracer: Optional[TelemetryBus] = None,
) -> Vehicle:
    """Assemble and build one vehicle connected to ``fabric``.

    The vehicle's trace points go to ``tracer``; the default builds an
    untraced vehicle.  Raises :class:`ConfigurationError` for a spec
    :meth:`VehicleSpec.validate` rejects.
    """
    spec.validate()
    desc = SystemDescription(f"vehicle-{spec.vin}")
    desc.can_bitrate = spec.can_bitrate
    for ecu_name in spec.ecus:
        desc.add_ecu(ecu_name)

    # ECM routes: one type I port pair per other plug-in SW-C.
    routes = [
        SwcRoute(
            target_ecu=p.ecu_name,
            target_swc=p.instance_name,
            out_port=f"mgmt_{p.instance_name}_out",
            in_port=f"mgmt_{p.instance_name}_in",
        )
        for p in spec.plugin_swcs
    ]
    ecm_spec = EcmSpec(
        base=spec.ecm.spec, server_address=spec.server_address, routes=routes
    )
    ecm_type = make_ecm_swc_type(ecm_spec, fabric, client_name=spec.vin)
    desc.add_component(
        spec.ecm.instance_name, ecm_type, spec.ecm.ecu_name,
        priority=spec.ecm_priority,
    )

    # Plug-in SW-Cs.
    for placement in spec.plugin_swcs:
        ctype = make_plugin_swc_type(placement.spec)
        desc.add_component(
            placement.instance_name, ctype, placement.ecu_name,
            priority=spec.plugin_priority,
        )
        # Type I pair ECM <-> SW-C.
        desc.connect(
            spec.ecm.instance_name,
            f"mgmt_{placement.instance_name}_out",
            placement.instance_name,
            "mgmt_in",
        )
        desc.connect(
            placement.instance_name,
            "mgmt_out",
            spec.ecm.instance_name,
            f"mgmt_{placement.instance_name}_in",
        )

    # Type II pairs between plug-in SW-Cs (including the ECM), derived
    # from the relay declarations: for each relay on SW-C a peering b,
    # connect a's out port to b's matching in port.
    by_name = {p.instance_name: p for p in spec.all_placements()}
    for placement in spec.all_placements():
        for relay in placement.spec.relays:
            peer = by_name[relay.peer]
            peer_relay = _back_relay(peer, placement.instance_name)
            desc.connect(
                placement.instance_name,
                relay.resolved_out_port(),
                peer.instance_name,
                peer_relay.resolved_in_port(),
            )

    # Legacy components and their connectors.
    for legacy in spec.legacy:
        desc.add_component(
            legacy.instance_name, legacy.ctype, legacy.ecu_name,
            priority=legacy.priority,
        )
    for from_i, from_p, to_i, to_p in spec.connectors:
        desc.connect(from_i, from_p, to_i, to_p)

    system = build_system(desc, sim=sim, tracer=tracer)
    return Vehicle(spec, system)


__all__ = [
    "PluginSwcPlacement",
    "LegacyComponent",
    "VehicleSpec",
    "Vehicle",
    "build_vehicle",
]
