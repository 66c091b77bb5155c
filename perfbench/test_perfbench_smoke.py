"""Fast smoke of every benchmark workload, at reduced sizes.

Runs each workload in-process (untraced twice, traced once) and feeds
the repetitions through the same aggregation ``run.py`` uses, asserting
the correctness checks, exact replay, tracing leaving the simulation
unperturbed, and the metric names ``BENCHMARK.json`` declares.  Writes
no files.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import calibrate
import catalog
import probes
import rep
import run
import workloads

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)

SMALL = {
    "ROLLOUT_VEHICLES": 20,
    "FLEET_SIZE": 200,
    "FLEET_FULL": 2,
    "TRAFFIC_CARS": 2,
    "TRAFFIC_COMMANDS": 30,
    "GATEWAY_VEHICLES": 80,
    "GATEWAY_PREDEPLOYED": 4,
    "GATEWAY_REQUESTS_PER_CLIENT": 40,
}


@pytest.fixture
def small(monkeypatch):
    for name, value in SMALL.items():
        monkeypatch.setattr(workloads, name, value)


def _reps(name: str, seed: int = 7):
    plain = [rep.main(name, seed, traced=False) for __ in range(2)]
    traced = [rep.main(name, seed, traced=True)]
    for record in plain + traced:
        record["reference_s"] = calibrate.NOMINAL_S
        record["scale"] = 1.0
    return plain, traced


def test_layer_map_names_declared_metrics():
    per_layer = [m["name"] for m in BENCHMARK["per_layer"]]
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(catalog.ALL)
    assert sorted(workloads.WORKLOADS) == sorted(catalog.ALL)
    assert sorted(catalog.TARGETS) == sorted(per_layer)
    for targets in catalog.TARGETS.values():
        for metric, names in targets:
            assert metric in end_to_end and set(names) <= set(catalog.ALL)
    layers = {layer for __, layer in probes.LAYER_PREFIXES + probes.STDLIB_LAYERS}
    assert {f"{layer}.self_s" for layer in layers} <= set(per_layer)


@pytest.mark.parametrize("name", catalog.ALL)
def test_workload_smoke(small, name):
    plain, traced = _reps(name)
    for record in plain + traced:
        assert record["attempted"] > 0
        assert record["failed"] == 0, record["details"]
        assert record["units"] == record["attempted"]
    assert sum(traced[0]["self_s"].values()) > 0

    __, e2e = run.summarize(name, 7, plain, [], trace=False)
    assert e2e["correct"], e2e
    assert list(e2e["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(m["value"] > 0 for m in e2e["metrics"].values()), e2e

    info, layers = run.summarize(name, 7, plain, traced, trace=True)
    # On the simulation workloads this includes traced == untraced.
    assert layers["correct"], info["problems"]
    assert list(layers["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    value = {key: m["value"] for key, m in layers["metrics"].items()}
    assert (value["vm.activations"] > 0) == (name == "plugin_traffic")
    if name == "rollout_fleet2k":
        assert value["server.contextgen.calls"] == SMALL["FLEET_SIZE"]


def test_determinism_check_flags_divergence():
    def record(events):
        return {"digest": "d", "counters": {"sim.events": events},
                "calls": {"core.wire.frames_decoded": 1.0}}

    agreeing = [record(5), record(5)]
    assert run.check_determinism("rollout_full", agreeing, [record(5)]) == []
    assert run.check_determinism("rollout_full", agreeing, [record(6)])
    assert run.check_determinism("gateway_mixed", agreeing, [record(6)]) == []
