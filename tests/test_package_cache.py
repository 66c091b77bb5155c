"""Per-model install-package reuse in ``DeploymentService.deploy``.

Every vehicle whose (App, SwConf, SystemSwConf, used ports) key matches
one seen before gets the package set built for that key.  The bytes a
vehicle is sent must still equal a fresh ``generate_packages`` for that
vehicle, whatever it already has installed and whichever APP version is
stored.
"""

from repro.network.sockets import NetworkFabric
from repro.server import (
    App,
    ConnectionKind,
    ConnectionSpec,
    Database,
    InstalledApp,
    InstalledPlugin,
    InstallStatus,
    PluginDescriptor,
    SwConf,
    User,
    generate_packages,
)
from repro.server.contextgen import PACKAGE_CACHE_SIZE, PackageCache
from repro.server.pusher import Pusher
from repro.server.services.fleetapi import FleetAPI
from repro.sim import Simulator
from tests.helpers import make_binary
from tests.test_server_models import make_test_vehicle

MODELS = ("m1", "m2")


def make_app(name, version="1.0", mem_hint=16):
    """Two plug-ins; m1 splits them over both SW-Cs, m2 packs them on
    swc2, so the two models get different packages."""
    binary = make_binary(mem_hint=mem_hint)
    pa = PluginDescriptor(f"{name}_a", binary, ("in", "out"))
    pb = PluginDescriptor(f"{name}_b", binary, ("in", "svc"))
    connections = (
        ConnectionSpec(ConnectionKind.UNCONNECTED, pa.name, "in"),
        ConnectionSpec(
            ConnectionKind.PLUGIN, pa.name, "out",
            target_plugin=pb.name, target_port="in",
        ),
        ConnectionSpec(
            ConnectionKind.VIRTUAL, pb.name, "svc", target_virtual="V4"
        ),
    )
    confs = [
        SwConf("m1", ((pa.name, "swc1"), (pb.name, "swc2")), connections),
        SwConf("m2", ((pa.name, "swc2"), (pb.name, "swc2")), connections),
    ]
    return App(name, version, {pa.name: pa, pb.name: pb}, confs)


class Portal:
    """A server over unconnected vehicles that records what it pushes."""

    def __init__(self, vins_per_model=4):
        self.db = Database()
        self.api = FleetAPI(self.db, Pusher(NetworkFabric(Simulator()), "srv"))
        self.db.add_user(User("ops", "Ops"))
        self.vins = []
        for model in MODELS:
            for index in range(vins_per_model):
                vin = f"{model}-{index}"
                self.db.add_vehicle(make_test_vehicle(vin, model))
                self.db.bind_vehicle("ops", vin)
                self.vins.append(vin)
        self.pushed: dict[str, list[bytes]] = {}
        self.api.pusher.push_many = self._record

    def _record(self, vin, raws, campaign=""):
        self.pushed.setdefault(vin, []).extend(raws)

    def expected(self, app_name, vin):
        """Fresh, uncached package bytes for ``vin`` as it is now."""
        app = self.db.app(app_name)
        vehicle = self.db.vehicle(vin)
        conf = app.conf_for_model(vehicle.model)
        return [
            package.message.encode()
            for package in generate_packages(app, conf, vehicle)
        ]

    def deploy(self, vin, app_name):
        expected = self.expected(app_name, vin)
        self.pushed.pop(vin, None)
        self.api.deployments.deploy("ops", vin, app_name).unwrap()
        assert self.pushed[vin] == expected
        return expected

    @property
    def cache(self):
        return self.api.deployments.packages


class TestPackageCache:
    def test_mixed_fleet_gets_fresh_generation_bytes(self):
        portal = Portal()
        store = portal.api.store
        store.upload(make_app("base", mem_hint=8)).unwrap()
        store.upload(make_app("nav")).unwrap()
        # Half of each model already holds another APP.
        holders = portal.vins[::2]
        for vin in holders:
            portal.deploy(vin, "base")
        sent = {vin: portal.deploy(vin, "nav") for vin in portal.vins}
        # One package set per (model, prior installs) pair, not per VIN.
        assert len(set(map(tuple, sent.values()))) == 4
        assert portal.cache.generated == 2 + 4
        for model in MODELS:
            fresh = [v for v in portal.vins if v.startswith(model)
                     and v not in holders]
            assert len({tuple(sent[v]) for v in fresh}) == 1

    def test_prior_installs_get_non_colliding_port_ids(self):
        portal = Portal(vins_per_model=2)
        portal.api.store.upload(make_app("base")).unwrap()
        portal.api.store.upload(make_app("nav")).unwrap()
        portal.deploy(portal.vins[0], "nav")  # cached on a fresh vehicle
        for vin in portal.vins[1:]:
            portal.deploy(vin, "base")
            portal.deploy(vin, "nav")
            installed = portal.db.vehicle(vin).conf.installed
            used: dict[str, list[int]] = {}
            for app in installed.values():
                for record in app.plugins:
                    used.setdefault(record.swc_name, []).extend(
                        record.port_ids
                    )
            for ids in used.values():
                assert len(ids) == len(set(ids)), (vin, used)

    def test_new_version_bytes_are_pushed(self):
        portal = Portal(vins_per_model=2)
        store = portal.api.store
        store.upload(make_app("nav")).unwrap()
        old = portal.deploy(portal.vins[0], "nav")
        store.upload_version(
            make_app("nav", version="2.0", mem_hint=32)
        ).unwrap()
        new = portal.deploy(portal.vins[1], "nav")
        assert new != old
        assert all(b"2.0" in raw for raw in new)

    def test_version_uploads_do_not_grow_the_cache(self):
        portal = Portal(vins_per_model=1)
        store = portal.api.store
        store.upload(make_app("base")).unwrap()
        store.upload(make_app("nav")).unwrap()
        portal.deploy(portal.vins[0], "base")
        for version in range(2, 32):
            store.upload_version(
                make_app("nav", version=f"{version}.0")
            ).unwrap()
            for vin in portal.vins:
                portal.api.deployments.abandon("ops", vin, "nav")
                portal.deploy(vin, "nav")
            held = portal.cache.apps()
            assert sorted(app.name for app in held) == ["base", "nav"]
            assert all(app is store.db.app(app.name) for app in held)

    def test_generation_runs_once_per_model(self):
        portal = Portal(vins_per_model=3)
        portal.api.store.upload(make_app("nav")).unwrap()
        for vin in portal.vins:
            portal.deploy(vin, "nav")
        assert portal.cache.generated == len(MODELS)

    def test_entries_per_app_are_bounded(self):
        cache = PackageCache()
        app = make_app("nav")
        conf = app.conf_for_model("m1")

        def lookup(held_port):
            vehicle = make_test_vehicle("V", "m1")
            installed = InstalledApp("held", "1.0", InstallStatus.ACTIVE)
            installed.plugins.append(
                InstalledPlugin("p", "swc2", "ECU2", (held_port,))
            )
            vehicle.conf.installed["held"] = installed
            return cache.packages(app, conf, vehicle)

        # Each held port id is a distinct key; the first ones are evicted.
        for port in range(PACKAGE_CACHE_SIZE + 5):
            lookup(port)
        assert cache.generated == PACKAGE_CACHE_SIZE + 5
        lookup(PACKAGE_CACHE_SIZE + 4)
        assert cache.generated == PACKAGE_CACHE_SIZE + 5
        lookup(0)
        assert cache.generated == PACKAGE_CACHE_SIZE + 6
