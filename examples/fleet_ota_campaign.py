#!/usr/bin/env python3
"""Fleet OTA campaign: a staged rollout with a canary wave and faults.

Demonstrates the campaign engine at fleet scale: a trusted server rolls
the remote-control APP out to a 12-vehicle fleet in waves (25% canary,
then the rest), with seeded fault injection dooming one vehicle's
installation.  The canary gate passes, the single failure stays below
the health threshold, the doomed vehicle exhausts its retry budget and
is flagged for the workshop — and the whole run is deterministic.

Flip ``max_failure_rate`` down to 0.05 to watch the same failure breach
the gate and roll the wave back instead.

The campaign runs through the server's fleet control plane: it is
persisted as a ``cmp-NNNN`` database entity, and the closing portal
queries show the record and a FleetSelector sweep over the fleet.

Run:  python examples/fleet_ota_campaign.py
"""

from repro import Disposition, FaultPlan, FleetSelector, build_fleet
from repro.baselines import ReflashParameters, ota_reflash_time_us
from repro.fes import canary_campaign
from repro.fes.example_platform import PHONE_ADDRESS, make_remote_control_app
from repro.sim import format_time


def main() -> None:
    fleet_size = 12
    print(f"== building a fleet of {fleet_size} vehicles on one server ==")
    fleet = build_fleet(fleet_size, seed=3, regions=("eu-north", "na-east"))
    fleet.server.api.store.upload(
        make_remote_control_app(PHONE_ADDRESS)
    ).unwrap()

    print("== declaring the campaign: 25% canary wave, then the rest ==")
    spec = canary_campaign(
        "remote-control",
        fractions=(0.25, 1.0),
        max_failure_rate=0.2,   # one casualty out of nine is tolerable
        retry_budget=1,
    )
    faults = FaultPlan(seed=7, doomed_vins={"VIN-0005"})
    print("   injected fault: VIN-0005 always NACKs its installation")

    print("== running the staged rollout (event-driven, one sim) ==")
    report = fleet.run_campaign(spec, faults=faults)
    print(report.timeline())

    # The report is the contract: assert the outcome the scenario scripts.
    assert report.status == "succeeded", report.summary()
    assert report.updated == fleet_size - 1
    assert report.dispositions["VIN-0005"] is Disposition.NEEDS_WORKSHOP
    assert report.waves[0].canary and not report.waves[0].breaches
    assert report.waves[1].retries == 1  # the doomed VIN got its retry
    print("   report assertions hold: 11 updated, VIN-0005 -> workshop")

    print("== portal view: the persisted campaign + a selector query ==")
    record = fleet.api.campaigns.list().unwrap()[0]
    print(f"   campaign {record.campaign_id}: status={record.status}, "
          f"persisted report waves={len(record.report['waves'])}")
    selector = FleetSelector.region("eu-north") & FleetSelector.installed(
        "remote-control"
    )
    updated_eu = fleet.api.vehicles.query(selector).unwrap()
    print(f"   eu-north vehicles running remote-control: "
          f"{[view.vin for view in updated_eu]}")
    assert all(view.region == "eu-north" for view in updated_eu)

    print("== comparison: classical full-image reflash baseline ==")
    elapsed = report.finished_us - report.started_us
    reflash = ota_reflash_time_us(ReflashParameters()) * fleet_size
    print(f"   staged dynamic campaign (measured): {format_time(elapsed)}")
    print(f"   sequential OTA reflash of the fleet (model): "
          f"{format_time(reflash)}")
    print(f"   speedup: {reflash / max(1, elapsed):.0f}x")
    print("done.")


if __name__ == "__main__":
    main()
