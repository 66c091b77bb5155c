"""Context generation: deployment descriptors -> PIC/PLC/ECC.

The paper's server "creates a PIC context by assigning SW-C-scope
unique ids to the plug-in ports, using the knowledge about the already
installed plug-ins", then translates the port connection information of
the SW conf into a PLC, taking "special care with the plug-in ports
that will be connected to plug-ins located in other SW-Cs" (the
recipient's port ids are embedded into the sender's context), and
finally prepares an ECC package for externally communicating plug-ins.

The packages depend only on the APP, the SwConf, the vehicle's
SystemSwConf and the port ids its installed plug-ins already hold, so
every vehicle of one model with the same installs gets byte-identical
packages.  Given a :class:`PackageCache`, :func:`generate_packages`
builds and encodes them once per distinct (App, SwConf, SystemSwConf,
used ports) key and hands the same package set to every such vehicle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.context import (
    Ecc,
    EccEntry,
    LinkKind,
    Pic,
    Plc,
    PlcLink,
    PortInit,
)
from repro.core.messages import InstallMessage
from repro.errors import CompatibilityError
from repro.server.models import App, ConnectionKind, SwConf, Vehicle


#: Package sets a :class:`PackageCache` keeps per APP; the oldest key
#: goes first.
PACKAGE_CACHE_SIZE = 64


@dataclass(frozen=True)
class GeneratedPackage:
    """One install message, its wire bytes and allocation bookkeeping."""

    message: InstallMessage
    port_ids: tuple[int, ...]
    raw: bytes


def _used_ports(vehicle: Vehicle) -> frozenset[tuple[str, int]]:
    """(SW-C, port id) pairs held by the vehicle's installed plug-ins."""
    return frozenset(
        (record.swc_name, port_id)
        for installed in vehicle.conf.installed.values()
        for record in installed.plugins
        for port_id in record.port_ids
    )


class PortIdAllocator:
    """Allocates SW-C-scope unique plug-in port ids per SW-C."""

    def __init__(self, vehicle: Vehicle) -> None:
        self._used: dict[str, set[int]] = {}
        for swc_name, port_id in _used_ports(vehicle):
            self._used.setdefault(swc_name, set()).add(port_id)
        self._cursor: dict[str, int] = {}

    def allocate(self, swc_name: str) -> int:
        used = self._used.setdefault(swc_name, set())
        cursor = self._cursor.get(swc_name, 0)
        while cursor in used:
            cursor += 1
        used.add(cursor)
        self._cursor[swc_name] = cursor + 1
        return cursor


class PackageCache:
    """Generated package sets, content-addressed by what generation reads.

    The key is the APP (by identity), the SwConf, the vehicle's
    SystemSwConf and the (SW-C, port id) pairs its installed plug-ins
    hold.  Each APP name keeps only the last APP object it was asked
    for, so uploading new versions replaces entries instead of adding
    them, and at most :data:`PACKAGE_CACHE_SIZE` keys per APP.
    """

    def __init__(self) -> None:
        self._apps: dict[
            str, tuple[App, dict[tuple, tuple[GeneratedPackage, ...]]]
        ] = {}
        #: Package sets built on a miss (one per distinct key).
        self.generated = 0

    def apps(self) -> list[App]:
        """The APP objects whose package sets are held."""
        return [app for app, __ in self._apps.values()]

    def packages(
        self, app: App, conf: SwConf, vehicle: Vehicle
    ) -> tuple[GeneratedPackage, ...]:
        slot = self._apps.get(app.name)
        if slot is None or slot[0] is not app:
            slot = self._apps[app.name] = (app, {})
        entries = slot[1]
        key = (conf, vehicle.conf.system_sw, _used_ports(vehicle))
        packages = entries.get(key)
        if packages is None:
            packages = tuple(_generate(app, conf, vehicle))
            self.generated += 1
            if len(entries) >= PACKAGE_CACHE_SIZE:
                del entries[next(iter(entries))]
            entries[key] = packages
        return packages


def generate_packages(
    app: App,
    conf: SwConf,
    vehicle: Vehicle,
    cache: Optional[PackageCache] = None,
) -> list[GeneratedPackage]:
    """Produce one installation package per plug-in of ``app``.

    With ``cache``, a vehicle whose key (see :class:`PackageCache`)
    was seen before gets the package set built for that key; the
    generation below runs once per distinct (App, SwConf, SystemSwConf,
    used ports) key.

    Assumes :func:`~repro.server.compatibility.check_compatibility`
    passed; inconsistencies at this stage raise
    :class:`CompatibilityError` (server bug or racing configuration).
    """
    if cache is not None:
        return list(cache.packages(app, conf, vehicle))
    return _generate(app, conf, vehicle)


def _generate(
    app: App, conf: SwConf, vehicle: Vehicle
) -> list[GeneratedPackage]:
    allocator = PortIdAllocator(vehicle)
    # First pass: allocate ids for every plug-in port (receivers must be
    # known before senders' VIRTUAL_REMOTE links are emitted).
    ids: dict[tuple[str, str], int] = {}
    pics: dict[str, Pic] = {}
    for plugin_name, descriptor in app.plugins.items():
        swc_name = conf.swc_for(plugin_name)
        if swc_name is None:
            raise CompatibilityError(
                f"plug-in {plugin_name} has no placement"
            )
        entries = []
        for port_name in descriptor.port_names:
            port_id = allocator.allocate(swc_name)
            ids[(plugin_name, port_name)] = port_id
            entries.append(PortInit(port_name, port_id))
        pics[plugin_name] = Pic(tuple(entries))

    # Second pass: translate connections into PLC links.
    links: dict[str, list[PlcLink]] = {name: [] for name in app.plugins}
    for spec in conf.connections:
        source_id = ids[(spec.plugin, spec.port)]
        source_swc = conf.swc_for(spec.plugin)
        assert source_swc is not None
        if spec.kind is ConnectionKind.UNCONNECTED:
            links[spec.plugin].append(PlcLink(source_id, LinkKind.UNCONNECTED))
        elif spec.kind is ConnectionKind.VIRTUAL:
            links[spec.plugin].append(
                PlcLink(source_id, LinkKind.VIRTUAL, spec.target_virtual)
            )
        elif spec.kind is ConnectionKind.PLUGIN:
            target_id = ids[(spec.target_plugin, spec.target_port)]
            target_swc = conf.swc_for(spec.target_plugin)
            if target_swc == source_swc:
                links[spec.plugin].append(
                    PlcLink(
                        source_id, LinkKind.PLUGIN_PORT, target_port_id=target_id
                    )
                )
            else:
                swc_desc = vehicle.conf.system_sw.swc(source_swc)
                assert swc_desc is not None and target_swc is not None
                relay = swc_desc.relay_toward(target_swc)
                if relay is None:
                    raise CompatibilityError(
                        f"no relay from {source_swc} to {target_swc}"
                    )
                links[spec.plugin].append(
                    PlcLink(
                        source_id,
                        LinkKind.VIRTUAL_REMOTE,
                        relay.name,
                        target_id,
                    )
                )

    # Third pass: ECC entries for external routes, grouped per plug-in.
    eccs: dict[str, list[EccEntry]] = {name: [] for name in app.plugins}
    for ext in conf.externals:
        swc_name = conf.swc_for(ext.plugin)
        assert swc_name is not None
        swc_desc = vehicle.conf.system_sw.swc(swc_name)
        assert swc_desc is not None
        eccs[ext.plugin].append(
            EccEntry(
                endpoint=ext.endpoint,
                recipient_ecu=swc_desc.ecu_name,
                message_name=ext.message_name,
                port_id=ids[(ext.plugin, ext.port)],
            )
        )

    # Assemble installation packages.
    packages = []
    for plugin_name, descriptor in app.plugins.items():
        swc_name = conf.swc_for(plugin_name)
        assert swc_name is not None
        swc_desc = vehicle.conf.system_sw.swc(swc_name)
        assert swc_desc is not None
        message = InstallMessage(
            plugin_name=plugin_name,
            version=app.version,
            target_ecu=swc_desc.ecu_name,
            target_swc=swc_name,
            pic=pics[plugin_name],
            plc=Plc(tuple(links[plugin_name])),
            ecc=Ecc(tuple(eccs[plugin_name])),
            binary=descriptor.binary,
        )
        packages.append(
            GeneratedPackage(
                message,
                tuple(
                    ids[(plugin_name, port)]
                    for port in descriptor.port_names
                ),
                message.encode(),
            )
        )
    return packages


__all__ = [
    "GeneratedPackage",
    "PACKAGE_CACHE_SIZE",
    "PackageCache",
    "PortIdAllocator",
    "generate_packages",
]
