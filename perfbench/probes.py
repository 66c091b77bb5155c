"""Measuring from outside: exact work counters and per-layer self time.

Nothing here edits the program.  Counters come from two places:

* public counter attributes, summed over every object of a layer after
  the run (:func:`read_counters`); reading them costs nothing while the
  workload runs, so the untraced run reports them too;
* public functions wrapped in the benchmark process
  (:class:`CallCounters`).  The wrappers add a Python call per
  operation, so only the traced run installs them.

Self time per layer comes from :class:`LayerProfiler`: one cProfile
profiler per thread, clocked by that thread's CPU time so time spent
blocked (sockets, locks, sleeps) is not counted as busy, merged, with
each function's self time charged to the layer that owns its module.  A function outside every layer (a
builtin, the standard library) is charged to the layers of its callers
in proportion to the time each caller spent in it; what still belongs
to no layer is reported as unattributed.
"""

from __future__ import annotations

import cProfile
import hashlib
import pstats
import threading
import time
from collections import defaultdict

from repro.core.plugin_swc import PIRTE_KEY
from repro.core.wire import Reader, Writer
from repro.network.channel import Channel
from repro.server.gateway.pump import CommandPump
from repro.server.services import appstore, deployments
from repro.sim.random import SeededStream

#: Module path (relative to the ``repro`` package) -> layer, longest
#: prefix first.  Standard-library modules that only one layer uses are
#: charged to it directly.
LAYER_PREFIXES = (
    ("sim/random.py", "sim.random"),
    ("sim/", "sim"),
    ("autosar/os/", "autosar.os"),
    ("autosar/bsw/", "autosar.bsw"),
    ("autosar/", "autosar.rte"),
    ("can/", "can"),
    ("core/ecm.py", "core.ecm"),
    ("core/wire.py", "core.wire"),
    ("core/messages.py", "core.wire"),
    ("core/context.py", "core.context"),
    ("core/", "core.pirte"),
    ("vm/verify/", "vm.verify"),
    ("vm/", "vm"),
    ("network/", "network"),
    ("server/contextgen.py", "server.contextgen"),
    ("server/pusher.py", "server.pusher"),
    ("server/services/deployments.py", "server.deployments"),
    ("server/services/selector.py", "server.selector"),
    ("server/services/vehicles.py", "server.selector"),
    ("server/services/appstore.py", "server.appstore"),
    ("server/gateway/", "gateway.http"),
    ("server/", "server.other"),
    ("gateway/", "gateway.client"),
    ("campaign/", "campaign"),
    ("fes/statistical.py", "fes.statistical"),
    ("fes/", "api"),
    ("api/", "api"),
    ("telemetry/", "telemetry"),
)
STDLIB_LAYERS = (
    ("/random.py", "sim.random"),
    ("/http/server.py", "gateway.http"),
    ("/socketserver.py", "gateway.http"),
    ("/http/client.py", "gateway.client"),
    ("/urllib/", "gateway.client"),
)

#: How far up the call graph an unowned function's time is followed.
ATTRIBUTION_DEPTH = 4


def layer_of(filename: str) -> str | None:
    path = filename.replace("\\", "/")
    marker = path.rfind("/repro/")
    if marker >= 0:
        rel = path[marker + len("/repro/"):]
        for prefix, layer in LAYER_PREFIXES:
            if rel.startswith(prefix):
                return layer
        return None
    if "/site-packages/" in path or "/perfbench/" in path:
        return None
    for suffix, layer in STDLIB_LAYERS:
        if suffix in path:
            return layer
    return None


class LayerProfiler:
    """cProfile on every thread of the process, grouped by layer."""

    def __init__(self) -> None:
        self._profilers: list[cProfile.Profile] = []
        self._lock = threading.Lock()
        self._main: cProfile.Profile | None = None

    def _thread_hook(self, frame, event, arg) -> None:
        # Runs once as the first profile event of each new thread; the
        # C profiler then replaces this hook for the thread's lifetime.
        profiler = cProfile.Profile(time.thread_time)
        with self._lock:
            self._profilers.append(profiler)
        profiler.enable()

    def start(self) -> None:
        threading.setprofile(self._thread_hook)
        self._main = cProfile.Profile(time.thread_time)
        self._profilers.append(self._main)
        self._main.enable()

    def stop(self) -> None:
        threading.setprofile(None)
        if self._main is not None:
            self._main.disable()

    def self_times(self) -> tuple[dict[str, float], float]:
        """(self seconds per layer, seconds charged to no layer)."""
        stats = pstats.Stats(self._profilers[0])
        for profiler in self._profilers[1:]:
            stats.add(profiler)
        table = stats.stats  # type: ignore[attr-defined]
        owners = {func: layer_of(func[0]) for func in table}
        per_layer: dict[str, float] = defaultdict(float)
        unattributed = 0.0

        def charge(func, seconds: float, depth: int) -> None:
            nonlocal unattributed
            layer = owners.get(func)
            if layer is not None:
                per_layer[layer] += seconds
                return
            callers = table[func][4] if func in table else {}
            spent = sum(entry[2] for entry in callers.values())
            if depth >= ATTRIBUTION_DEPTH or spent <= 0:
                unattributed += seconds
                return
            for caller, entry in callers.items():
                charge(caller, seconds * entry[2] / spent, depth + 1)

        for func, (__, __, tottime, __, __) in table.items():
            charge(func, tottime, 0)
        return dict(per_layer), unattributed


class _Wrapping:
    """Replaces public attributes with wrappers; ``uninstall`` restores."""

    def __init__(self) -> None:
        self._restore: list[tuple[object, str, object]] = []

    def _patch(self, owner, name: str, wrapper_for) -> None:
        original = getattr(owner, name)
        self._restore.append((owner, name, original))
        setattr(owner, name, wrapper_for(original))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)


class CallCounters(_Wrapping):
    """Counts calls into public functions by wrapping them in place."""

    def __init__(self) -> None:
        super().__init__()
        self.counts: dict[str, int] = defaultdict(int)
        self.packages: set[bytes] = set()

    def install(self) -> "CallCounters":
        counts = self.counts

        def count_encode(original):
            def getvalue(writer):
                raw = original(writer)
                counts["core.wire.frames_encoded"] += 1
                counts["core.wire.bytes_encoded"] += len(raw)
                return raw
            return getvalue

        def count_decode(original):
            def __init__(reader, data):
                counts["core.wire.frames_decoded"] += 1
                counts["core.wire.bytes_decoded"] += len(data)
                original(reader, data)
            return __init__

        def count_contextgen(original):
            def generate_packages(*args, **kwargs):
                packages = original(*args, **kwargs)
                counts["server.contextgen.calls"] += 1
                self.packages.add(
                    hashlib.sha256(repr(packages).encode()).digest()
                )
                return packages
            return generate_packages

        def count_verify(original):
            def verify_binary(*args, **kwargs):
                report = original(*args, **kwargs)
                counts["vm.verify.calls"] += 1
                counts["vm.verify.instructions"] += report.instruction_count
                return report
            return verify_binary

        def count_draw(original):
            def draw(stream, *args, **kwargs):
                counts["sim.random.draws"] += 1
                return original(stream, *args, **kwargs)
            return draw

        self._patch(Writer, "getvalue", count_encode)
        self._patch(Reader, "__init__", count_decode)
        self._patch(deployments, "generate_packages", count_contextgen)
        self._patch(appstore, "verify_binary", count_verify)
        for method in ("jitter", "chance", "randint", "uniform",
                       "expovariate_us", "choice", "sample", "shuffle",
                       "bytes"):
            self._patch(SeededStream, method, count_draw)
        return self

    def snapshot(self) -> dict[str, float]:
        out = {key: float(value) for key, value in sorted(self.counts.items())}
        calls = self.counts.get("server.contextgen.calls", 0)
        out["server.contextgen.distinct_frac"] = (
            len(self.packages) / calls if calls else 0.0
        )
        return out


class Registry(_Wrapping):
    """Objects created during a run that the platform does not list.

    Wraps :class:`Channel` construction (once per connection, not per
    message) and times :meth:`CommandPump.submit` (once per HTTP
    request): the wait from submit to the closure starting on the
    simulator thread, and the closure's execution.
    """

    def __init__(self) -> None:
        super().__init__()
        self.channels: list[Channel] = []
        self.pump_wait_ms: list[float] = []
        self.pump_exec_ms: list[float] = []

    def install(self) -> "Registry":
        channels = self.channels
        waits, execs = self.pump_wait_ms, self.pump_exec_ms

        def record_channel(original):
            def __init__(channel, *args, **kwargs):
                original(channel, *args, **kwargs)
                channels.append(channel)
            return __init__

        def time_submit(original):
            def submit(pump, fn, *args, **kwargs):
                submitted = time.perf_counter()

                def timed():
                    began = time.perf_counter()
                    try:
                        return fn()
                    finally:
                        waits.append((began - submitted) * 1000)
                        execs.append((time.perf_counter() - began) * 1000)

                return original(pump, timed, *args, **kwargs)
            return submit

        self._patch(Channel, "__init__", record_channel)
        self._patch(CommandPump, "submit", time_submit)
        return self


def read_counters(platform, registry: Registry, gateway=None) -> dict[str, float]:
    """Exact per-layer work counts, read from public attributes."""
    c: dict[str, float] = defaultdict(float)
    c["sim.events"] = platform.sim.events_executed
    for vehicle in platform.vehicles:
        system = getattr(vehicle, "system", None)
        if system is None:  # a StatisticalVehicle
            c["fes.statistical.messages_received"] += vehicle.messages_received
            c["fes.statistical.acks_sent"] += vehicle.acks_sent
            continue
        if system.bus is not None:
            c["can.frames"] += system.bus.frames_transferred
            c["can.bits"] += system.bus.bits_transferred
        for ecu in system.ecus.values():
            c["autosar.os.dispatches"] += ecu.cpu.dispatches
            c["autosar.os.activations"] += sum(
                task.activation_count for task in ecu.tasks.values()
            )
            c["autosar.os.alarm_expirations"] += sum(
                alarm.expirations for alarm in ecu.alarms.alarms.values()
            )
            c["autosar.rte.writes"] += ecu.rte.writes
            c["autosar.rte.com_transmissions"] += ecu.rte.com_transmissions
            for instance in ecu.instances.values():
                pirte = instance.state.get(PIRTE_KEY)
                if pirte is None:
                    continue
                c["core.pirte.installs"] += pirte.installs
                c["core.pirte.messages_routed"] += pirte.messages_routed
                c["core.pirte.activations_run"] += pirte.activations_run
                if hasattr(pirte, "packages_forwarded"):
                    c["core.ecm.packages_forwarded"] += pirte.packages_forwarded
                    c["core.ecm.external_in"] += pirte.external_in
                for plugin in pirte.plugins.values():
                    c["vm.activations"] += plugin.vm.activations
                    c["vm.fuel"] += plugin.vm.total_fuel_used
                    c["vm.traps"] += plugin.vm.traps
    for channel in registry.channels:
        c["network.sent"] += channel.sent
        c["network.delivered"] += channel.delivered
    c["network.delivered_frac"] = (
        c["network.delivered"] / c["network.sent"] if c["network.sent"] else 0.0
    )
    api = platform.api
    c["server.pusher.pushed"] = platform.server.pusher.pushed
    c["server.pusher.dropped_messages"] = platform.server.pusher.dropped_messages
    c["server.deployments.deploys"] = api.deployments.deploys
    c["server.deployments.acks_processed"] = api.deployments.acks_processed
    c["server.selector.queries"] = api.vehicles.queries
    c["telemetry.published"] = api.telemetry.published()
    c["telemetry.dropped"] = api.telemetry.dropped()
    if gateway is not None:
        c["gateway.pump.executed"] = gateway.commands.executed
    return {key: float(value) for key, value in sorted(c.items())}
