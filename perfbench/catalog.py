"""Which end-to-end number each per-layer metric should move.

``BENCHMARK.json`` lists every metric with its unit and better
direction; ``TARGETS`` maps each per-layer metric to the end-to-end
metrics it should move and on which workloads: a change that claims a
gain in one layer predicts movement there and no movement elsewhere.

The end-to-end names are shared by every workload, each reading them
in its own unit of work:

=================  ==========================  ==============================
workload           ``ops_per_s`` counts        ``latency_*_ms`` measures
=================  ==========================  ==============================
rollout_full       vehicles updated            simulated ms, campaign start
rollout_fleet2k    vehicles updated            to each vehicle's update ack
plugin_traffic     phone commands actuated     simulated ms, phone send to
                                               actuator receive
gateway_mixed      HTTP requests answered      host ms per HTTP request
                   as expected
=================  ==========================  ==============================

Failed operations are the result line's ``failed`` out of
``attempted``: vehicles not updated, commands not actuated in order,
HTTP responses with an unexpected status or row count.
"""

from __future__ import annotations

ROLLOUTS = ("rollout_full", "rollout_fleet2k")
SIM_WORKLOADS = ROLLOUTS + ("plugin_traffic",)
ALL = SIM_WORKLOADS + ("gateway_mixed",)
#: Workloads whose latencies are host time, scaled to the nominal host
#: like every other host timing (see calibrate.py); the other workloads'
#: latencies are simulated time, which never scales.
HOST_LATENCY = ("gateway_mixed",)

_FULL_PATH = (("ops_per_s", ("rollout_full", "plugin_traffic")),)
_FLEET = (("ops_per_s", ("rollout_fleet2k",)),
          ("peak_rss_mb", ("rollout_fleet2k",)))
_GATEWAY = (("ops_per_s", ("gateway_mixed",)),
            ("latency_p50_ms", ("gateway_mixed",)),
            ("latency_p90_ms", ("gateway_mixed",)))
_ROLLOUT_RATE = (("ops_per_s", ROLLOUTS),)
_TRAFFIC = (("ops_per_s", ("plugin_traffic",)),)
_SETUP = (("setup_s", ALL),)

#: per-layer metric -> ((end-to-end metric, workloads), ...)
TARGETS = {
    "sim.events": _FULL_PATH,
    "sim.events_per_s": _FULL_PATH,
    "sim.self_s": _FULL_PATH,
    "autosar.os.dispatches": _FULL_PATH,
    "autosar.os.activations": _FULL_PATH,
    "autosar.os.alarm_expirations": _FULL_PATH,
    "autosar.os.self_s": _FULL_PATH,
    "autosar.rte.writes": _FULL_PATH,
    "autosar.rte.com_transmissions": _FULL_PATH,
    "autosar.rte.self_s": _FULL_PATH,
    "autosar.bsw.self_s": _FULL_PATH,
    "can.frames": _FULL_PATH,
    "can.bits": _FULL_PATH,
    "can.self_s": _FULL_PATH,
    "core.pirte.installs": (("ops_per_s", ("rollout_full",)),),
    "core.pirte.messages_routed": _TRAFFIC,
    "core.pirte.activations_run": _TRAFFIC,
    "core.pirte.self_s": _FULL_PATH,
    "core.ecm.packages_forwarded": _FULL_PATH,
    "core.ecm.external_in": _TRAFFIC,
    "core.ecm.self_s": _FULL_PATH,
    "core.wire.frames_encoded": _FLEET,
    "core.wire.bytes_encoded": _FLEET,
    "core.wire.frames_decoded": _FLEET,
    "core.wire.bytes_decoded": _FLEET,
    "core.wire.self_s": _FLEET,
    "core.context.self_s": _FLEET,
    "vm.activations": _TRAFFIC,
    "vm.fuel": _TRAFFIC,
    "vm.traps": _TRAFFIC,
    "vm.self_s": _TRAFFIC,
    "vm.verify.calls": _GATEWAY + _SETUP,
    "vm.verify.instructions": _GATEWAY + _SETUP,
    "vm.verify.self_s": _GATEWAY + _SETUP,
    "network.sent": _FLEET,
    "network.delivered": _FLEET,
    "network.delivered_frac": _FLEET,
    "network.self_s": _FLEET,
    "sim.random.draws": _FLEET,
    "sim.random.self_s": _FLEET,
    "server.contextgen.calls": _FLEET,
    "server.contextgen.distinct_frac": _FLEET,
    "server.contextgen.self_s": _FLEET,
    "server.pusher.pushed": _FLEET,
    "server.pusher.dropped_messages": _FLEET,
    "server.pusher.self_s": _FLEET,
    "server.deployments.deploys": _FLEET,
    "server.deployments.acks_processed": _FLEET,
    "server.deployments.self_s": _FLEET,
    "server.selector.queries": _GATEWAY,
    "server.selector.self_s": _GATEWAY,
    "server.appstore.self_s": _GATEWAY + _SETUP,
    "server.other.self_s": _FLEET + _GATEWAY,
    "gateway.pump.executed": _GATEWAY,
    "gateway.pump.wait_ms_p50": _GATEWAY,
    "gateway.pump.wait_ms_p99": _GATEWAY,
    "gateway.pump.exec_ms_p50": _GATEWAY,
    "gateway.http.read_p50_ms": _GATEWAY,
    "gateway.http.read_p99_ms": _GATEWAY,
    "gateway.http.write_p50_ms": _GATEWAY,
    "gateway.http.write_p90_ms": _GATEWAY,
    "gateway.http.self_s": _GATEWAY,
    "gateway.client.self_s": _GATEWAY,
    "campaign.waves": _ROLLOUT_RATE,
    "campaign.events": _ROLLOUT_RATE,
    "campaign.sim_s": (("latency_p90_ms", ROLLOUTS),),
    "campaign.self_s": _ROLLOUT_RATE,
    "fes.statistical.messages_received": _FLEET,
    "fes.statistical.acks_sent": _FLEET,
    "fes.statistical.self_s": _FLEET,
    "api.self_s": _SETUP,
    "telemetry.published": _FLEET,
    "telemetry.dropped": _FLEET,
    "telemetry.self_s": _FLEET,
    "trace.unattributed_s": (),
    "trace.overhead_ratio": (),
}


def quantile(ascending: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list (0.0 when empty)."""
    if not ascending:
        return 0.0
    return ascending[min(len(ascending) - 1, round(q * (len(ascending) - 1)))]
