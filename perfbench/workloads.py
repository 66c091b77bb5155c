"""The four benchmark workloads: one set-up and one measured phase each.

Every workload is a :class:`Workload` with two steps:

* ``setup(seed)`` builds the scenario, uploads the APP through the
  static verifier gate and boots it; the caller times it as ``setup_s``.
* ``run(state)`` does the measured work and checks its outputs,
  returning an :class:`Outcome`.

The seed drives only input generation: the scenario's root seed (which
feeds the simulated network and statistical vehicles), the command
values the phone sends, and the gateway clients' request mix.  Nothing
here edits the program; it is driven through public functions only.
"""

from __future__ import annotations

import hashlib
import json
import random
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import catalog
from repro import FixedWaves, PercentageWaves
from repro.api.builder import ScenarioBuilder
from repro.api.platform import Platform
from repro.autosar.events import DataReceivedEvent
from repro.autosar.ports import provided_port, required_port
from repro.autosar.runnable import Runnable
from repro.autosar.swc import ComponentType
from repro.autosar.types import INT16
from repro.campaign.report import SUCCEEDED
from repro.core.plugin_swc import RelayLink, ServicePort
from repro.fes import canary_campaign
from repro.fes.example_platform import (
    MODEL,
    MOTION_IF,
    PHONE_ADDRESS,
    declare_remote_control_app,
    make_remote_control_app,
)
from repro.fes.fleet import build_fleet
from repro.fes.statistical import StatisticalModel
from repro.gateway import FleetClient, FleetGateway
from repro.network.channel import WIFI
from repro.server.services.selector import FleetSelector
from repro.sim import MS, SECOND

APP = "remote-control"

#: rollout_full: the flagship full-fidelity fixed-10 staged rollout.
ROLLOUT_VEHICLES = 50
ROLLOUT_WAVE = 10

#: rollout_fleet2k: a full-fidelity canary ahead of a statistical tail.
#: 2,000 rather than 10,000 vehicles so a run holds enough repetitions
#: for a steady median on a shared host; the work per vehicle is the same.
FLEET_SIZE = 2_000
FLEET_FULL = 10

#: plugin_traffic: one phone streaming commands to every car.
TRAFFIC_CARS = 20
TRAFFIC_COMMANDS = 400
TRAFFIC_INTERVAL_US = 10 * MS
#: Simulated slack after the last send for the last command to land.
TRAFFIC_DRAIN_US = 1 * SECOND

#: gateway_mixed: a mostly statistical fleet behind the HTTP gateway.
GATEWAY_VEHICLES = 1_000
GATEWAY_FULL = 2
GATEWAY_REGIONS = tuple(f"region-{index}" for index in range(8))
GATEWAY_CLIENTS = 2
GATEWAY_REQUESTS_PER_CLIENT = 300
#: VINs deployed during set-up, the targets of deployment-status reads.
GATEWAY_PREDEPLOYED = 20
GATEWAY_DEPLOY_BATCH = 2
#: Request mix as (kind, weight); deploys and uploads are the writes.
#: The weights are an assumption, not a recording: the repository holds
#: no portal traffic to take them from (the remote-campaign example sends
#: one request of each kind between event polls, the gateway load test
#: one kind at a time).  They were picked so that reads are nine in ten
#: requests, as a portal mostly looks at the fleet; the selector query,
#: the read that loads the selector, is the largest share; and the ten
#: per cent of writes still give about 60 samples per repetition for the
#: write percentiles.  The deploy batch of two VINs is an assumed size
#: too.
GATEWAY_MIX = (
    ("query", 40),
    ("vehicle", 30),
    ("status", 20),
    ("deploy", 5),
    ("upload", 5),
)
WRITE_KINDS = frozenset({"deploy", "upload"})


@dataclass
class Outcome:
    """What one measured phase did, checked against what it should do.

    ``units`` are the completed user-level operations (vehicles
    updated, commands actuated, HTTP requests answered correctly);
    ``latencies_ms`` holds one latency per attempted operation in the
    workload's own clock; ``digest`` summarises everything that must
    replay exactly at a fixed seed.
    """

    attempted: int
    failed: int
    units: int
    latencies_ms: list[float]
    digest: str
    details: dict = field(default_factory=dict)


def _no_teardown(state) -> None:
    pass


@dataclass(frozen=True)
class Workload:
    """``teardown(state)`` runs after the measured phase, untimed, and
    also when that phase raises."""

    name: str
    setup: Callable[[int], object]
    run: Callable[[object], Outcome]
    teardown: Callable[[object], None] = _no_teardown


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# -- rollouts -----------------------------------------------------------------


@dataclass
class RolloutState:
    platform: Platform
    spec: object
    size: int


def _setup_rollout(size: int, seed: int, full: int | None) -> RolloutState:
    fleet = build_fleet(
        size,
        seed=seed,
        full_vehicles=full,
        statistical_model=StatisticalModel() if full is not None else None,
    )
    fleet.api.store.upload(make_remote_control_app(PHONE_ADDRESS)).unwrap()
    fleet.boot()
    if full is None:
        waves = FixedWaves(ROLLOUT_WAVE)
    else:
        waves = PercentageWaves((full / size, 1.0))
    return RolloutState(fleet, replace(canary_campaign(APP), waves=waves), size)


def setup_rollout_full(seed: int) -> RolloutState:
    return _setup_rollout(ROLLOUT_VEHICLES, seed, None)


def setup_rollout_fleet(seed: int) -> RolloutState:
    return _setup_rollout(FLEET_SIZE, seed, FLEET_FULL)


def run_rollout(state: RolloutState) -> Outcome:
    report = state.platform.run_campaign(state.spec)
    updated = report.updated if report.status == SUCCEEDED else 0
    # Time to update per vehicle: campaign start to that VIN's ack.
    latencies = [
        (event.time_us - report.started_us) / MS
        for event in report.events
        if event.kind == "updated"
    ]
    return Outcome(
        attempted=state.size,
        failed=state.size - updated,
        units=updated,
        latencies_ms=latencies,
        digest=_digest(report.to_dict()),
        details={
            "status": report.status,
            "rollout_sim_s": (report.finished_us - report.started_us) / SECOND,
            "waves": len(report.waves),
            "campaign_events": len(report.events),
        },
    )


# -- plugin_traffic -----------------------------------------------------------


def make_timestamping_actuators() -> ComponentType:
    """The Fig. 3 car's actuators, stamping each value's arrival time."""

    def consumer(port: str, key: str):
        def consume(instance):
            while instance.pending(port, "value"):
                instance.state.setdefault(key, []).append(
                    (instance.rte.sim.now, instance.receive(port, "value"))
                )
        return consume

    return ComponentType(
        "StampingActuators",
        ports=[
            required_port("wheels_in", MOTION_IF),
            required_port("speed_in", MOTION_IF),
            provided_port("speed_out", MOTION_IF),
        ],
        runnables=[
            Runnable("on_wheels", consumer("wheels_in", "Wheels"),
                     execution_time_us=15),
            Runnable("on_speed", consumer("speed_in", "Speed"),
                     execution_time_us=15),
        ],
        events=[
            DataReceivedEvent("on_wheels", port="wheels_in", element="value"),
            DataReceivedEvent("on_speed", port="speed_in", element="value"),
        ],
    )


def _declare_car(builder) -> None:
    """The Fig. 3 car with the timestamping actuators in place."""
    builder.ecus("ECU1", "ECU2")
    builder.ecm(
        "swc1", on="ECU1", type_name="EcmSwc",
        relays=[RelayLink(peer="swc2", out_virtual="V0", in_virtual="V1")],
    )
    builder.plugin_swc(
        "swc2", on="ECU2", type_name="PluginSwc2",
        relays=[RelayLink(peer="swc1", out_virtual="V2", in_virtual="V3")],
        services=[
            ServicePort("V4", "wheels_req", "out", INT16),
            ServicePort("V5", "speed_req", "out", INT16),
            ServicePort("V6", "speed_prov", "in", INT16),
        ],
    )
    builder.legacy("actuators", make_timestamping_actuators(), on="ECU2")
    builder.connect("swc2", "wheels_req", "actuators", "wheels_in")
    builder.connect("swc2", "speed_req", "actuators", "speed_in")
    builder.connect("actuators", "speed_out", "swc2", "speed_prov")


@dataclass
class TrafficState:
    platform: Platform
    commands: list[tuple[int, str, int]]  # (gap us, name, value)


def setup_plugin_traffic(seed: int) -> TrafficState:
    scenario = ScenarioBuilder(seed=seed, trace=False)
    scenario.user("user-1", "Bench User")
    scenario.phone(PHONE_ADDRESS, WIFI)
    for index in range(TRAFFIC_CARS):
        _declare_car(scenario.vehicle(f"VIN-{index:04d}", MODEL))
    declare_remote_control_app(scenario.app(APP, MODEL), PHONE_ADDRESS)
    platform = scenario.build()
    deployment = platform.deploy(APP)
    deployment.wait(60 * SECOND)
    phone = platform.phone()
    deadline = platform.sim.now + 10 * SECOND
    while (len(phone.connected_peers) < TRAFFIC_CARS
           and platform.sim.now < deadline):
        platform.run(10 * MS)
    if not deployment.all_active or len(phone.connected_peers) < TRAFFIC_CARS:
        raise RuntimeError("plugin_traffic set-up did not reach active")
    rng = random.Random(seed)
    # Gaps vary around the mean so sends land at every phase of the
    # ECUs' dispatch periods, as a person's taps would.
    commands = [
        (
            rng.randint(TRAFFIC_INTERVAL_US // 2, 3 * TRAFFIC_INTERVAL_US // 2),
            rng.choice(("Wheels", "Speed")),
            rng.randint(-100, 100),
        )
        for __ in range(TRAFFIC_COMMANDS)
    ]
    return TrafficState(platform, commands)


def run_plugin_traffic(state: TrafficState) -> Outcome:
    platform = state.platform
    sim = platform.sim
    phone = platform.phone()
    start = sim.now
    sent: dict[str, list[tuple[int, int]]] = {"Wheels": [], "Speed": []}

    def send(name: str, value: int) -> Callable[[], None]:
        def fire() -> None:
            sent[name].append((sim.now, value))
            phone.send(name, value)
        return fire

    at = start
    for gap, name, value in state.commands:
        at += gap
        sim.schedule_at(at, send(name, value))
    platform.run(at - start + TRAFFIC_DRAIN_US)

    attempted = failed = 0
    latencies: list[float] = []
    arrivals = {}
    for vehicle in platform.vehicles:
        state_dict = vehicle.system.instance("actuators").state
        for name, log in sent.items():
            got = state_dict.get(name, [])
            attempted += len(log)
            # In order: the k-th value received is the k-th value sent.
            matched = 0
            for (sent_at, value), (arrived_at, received) in zip(log, got):
                if received != value:
                    break
                matched += 1
                latencies.append((arrived_at - sent_at) / MS)
            # A value beyond those sent is an operation that failed.
            extra = max(0, len(got) - len(log))
            attempted += extra
            failed += len(log) - matched + extra
            arrivals[f"{vehicle.vin}:{name}"] = got
    return Outcome(
        attempted=attempted,
        failed=failed,
        units=attempted - failed,
        latencies_ms=latencies,
        digest=_digest(arrivals),
        details={"sends": phone.sent},
    )


# -- gateway_mixed ------------------------------------------------------------


@dataclass
class GatewayState:
    platform: Platform
    gateway: FleetGateway
    plans: list[list[tuple]]


def _gateway_plans(seed: int, vins: list[str]) -> list[list[tuple]]:
    """One seeded request list per client, with disjoint deploy pools."""
    rng = random.Random(seed)
    kinds = [kind for kind, __ in GATEWAY_MIX]
    weights = [weight for __, weight in GATEWAY_MIX]
    predeployed = vins[GATEWAY_FULL:GATEWAY_FULL + GATEWAY_PREDEPLOYED]
    pool = vins[GATEWAY_FULL + GATEWAY_PREDEPLOYED:]
    rng.shuffle(pool)
    plans = []
    for client in range(GATEWAY_CLIENTS):
        mine = pool[client::GATEWAY_CLIENTS]
        plan = []
        uploads = 0
        for __ in range(GATEWAY_REQUESTS_PER_CLIENT):
            kind = rng.choices(kinds, weights)[0]
            if kind == "deploy" and len(mine) < GATEWAY_DEPLOY_BATCH:
                kind = "query"
            if kind == "query":
                plan.append(("query", rng.choice(GATEWAY_REGIONS)))
            elif kind == "vehicle":
                plan.append(("vehicle", rng.choice(vins)))
            elif kind == "status":
                plan.append(("status", rng.choice(predeployed)))
            elif kind == "deploy":
                batch, mine = mine[:GATEWAY_DEPLOY_BATCH], mine[GATEWAY_DEPLOY_BATCH:]
                plan.append(("deploy", tuple(batch)))
            else:
                uploads += 1
                app = make_remote_control_app(
                    PHONE_ADDRESS, version=f"2.{client}.{uploads}"
                )
                plan.append(("upload", app.to_dict()))
        plans.append(plan)
    return plans


def setup_gateway_mixed(seed: int) -> GatewayState:
    fleet = build_fleet(
        GATEWAY_VEHICLES,
        seed=seed,
        regions=GATEWAY_REGIONS,
        full_vehicles=GATEWAY_FULL,
        statistical_model=StatisticalModel(),
    )
    fleet.api.store.upload(make_remote_control_app(PHONE_ADDRESS)).unwrap()
    vins = list(fleet.vins)
    predeployed = vins[GATEWAY_FULL:GATEWAY_FULL + GATEWAY_PREDEPLOYED]
    deployment = fleet.deploy_to(APP, predeployed)
    deployment.wait(60 * SECOND)
    if not deployment.all_active:
        raise RuntimeError("gateway_mixed set-up deploys did not activate")
    gateway = FleetGateway(fleet).start(drive=True)
    return GatewayState(fleet, gateway, _gateway_plans(seed, vins))


def _expected_rows() -> int:
    return GATEWAY_VEHICLES // len(GATEWAY_REGIONS)


def _gateway_request(client: FleetClient, request: tuple) -> bool:
    """Send one request; True when status and payload are as expected."""
    kind, arg = request
    if kind == "query":
        response = client.request(
            "POST", "/v1/vehicles/query",
            body={"selector": FleetSelector.region(arg).to_dict()},
        )
        return response.ok and len(response.value) == _expected_rows()
    if kind == "vehicle":
        response = client.request("GET", f"/v1/vehicles/{arg}")
        return response.ok and response.value["vin"] == arg
    if kind == "status":
        response = client.request("GET", f"/v1/deployments/{arg}/{APP}")
        return response.ok and response.value["status"] == "active"
    if kind == "deploy":
        response = client.request(
            "POST", "/v1/deployments", body={"app": APP, "vins": list(arg)},
        )
        return response.ok and response.value["accepted"] == len(arg)
    response = client.request(
        "POST", "/v1/apps", body={"app": arg, "version_upload": True},
    )
    return response.ok


def run_gateway_mixed(state: GatewayState) -> Outcome:
    results: list[list[tuple[str, float, bool]]] = [
        [] for __ in state.plans
    ]
    errors: list[str] = []

    def client_loop(index: int) -> None:
        client = FleetClient(state.gateway.base_url)
        out = results[index]
        for request in state.plans[index]:
            began = time.perf_counter()
            try:
                ok = _gateway_request(client, request)
            except Exception as error:  # noqa: BLE001 - counted as failed
                ok = False
                errors.append(repr(error))
            out.append((request[0], (time.perf_counter() - began) * 1000, ok))

    threads = [
        threading.Thread(target=client_loop, args=(index,), daemon=True)
        for index in range(len(state.plans))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=150.0)
    attempted = sum(len(plan) for plan in state.plans)
    done = [row for rows in results for row in rows]
    ok = sum(1 for __, __, good in done if good)
    reads = sorted(ms for kind, ms, __ in done if kind not in WRITE_KINDS)
    writes = sorted(ms for kind, ms, __ in done if kind in WRITE_KINDS)
    return Outcome(
        attempted=attempted,
        failed=attempted - ok,
        units=ok,
        latencies_ms=[ms for __, ms, __ in done],
        digest=_digest([[row[0] for row in rows] for rows in results]),
        details={
            "reads": len(reads),
            "writes": len(writes),
            "read_p50_ms": catalog.quantile(reads, 0.50),
            "read_p99_ms": catalog.quantile(reads, 0.99),
            "write_p50_ms": catalog.quantile(writes, 0.50),
            "write_p90_ms": catalog.quantile(writes, 0.90),
            "errors": errors[:3],
        },
    )


def teardown_gateway_mixed(state: GatewayState) -> None:
    state.gateway.stop()


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("rollout_full", setup_rollout_full, run_rollout),
        Workload("rollout_fleet2k", setup_rollout_fleet, run_rollout),
        Workload("plugin_traffic", setup_plugin_traffic, run_plugin_traffic),
        Workload("gateway_mixed", setup_gateway_mixed, run_gateway_mixed,
                 teardown_gateway_mixed),
    )
}
