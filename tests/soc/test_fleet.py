"""Fleet supervisor: admission, DRR, chaos recovery, conservation.

Inline workers keep these tests in-process (deterministic and fast);
the process-worker path is exercised by the ``python -m repro fleet``
CI gate itself.
"""

from repro.accel.common import CMD_ENCRYPT
from repro.soc.chaos import ChaosSchedule
from repro.soc.fleet import (
    AcceleratorFleet,
    FleetConfig,
    SEATS,
    run_fleet_gate,
)
from repro.soc.requests import TERMINAL_STATUSES
from repro.soc.traffic import default_tenants, generate_trace


def _fleet(shards=2, tenants=4, seed=1, **kw):
    cfg = FleetConfig(shards=shards, workers="inline", **kw)
    specs = default_tenants(tenants, seed=seed)
    return AcceleratorFleet(cfg, specs, seed=seed)


class TestAdmissionControl:
    def test_sheds_lowest_priority_first(self):
        fleet = _fleet(queue_bound=2)
        # t2 is bronze (lowest class); t0 is gold
        for i in range(2):
            fleet._admit(0, "t2", CMD_ENCRYPT, i)
        for i in range(2):
            fleet._admit(0, "t0", CMD_ENCRYPT, 16 + i)
        fleet._admit(0, "t0", CMD_ENCRYPT, 99)  # gold over its bound
        assert fleet.shed == 1
        rejected = [r for r in fleet.requests if r.status == "rejected"]
        assert [r.tenant for r in rejected] == ["t2"]
        assert len(fleet.queues["t0"]) == 3
        assert len(fleet.queues["t2"]) == 1

    def test_lowest_priority_incomer_sheds_itself(self):
        fleet = _fleet(queue_bound=1)
        fleet._admit(0, "t2", CMD_ENCRYPT, 1)
        fleet._admit(0, "t2", CMD_ENCRYPT, 2)  # bronze over bound: itself
        assert fleet.shed == 1
        assert len(fleet.queues["t2"]) == 1
        assert fleet.requests[-1].status == "rejected"

    def test_nothing_is_silently_dropped(self):
        fleet = _fleet(queue_bound=1)
        for i in range(8):
            fleet._admit(0, "t2", CMD_ENCRYPT, i)
        statuses = {r.status for r in fleet.requests}
        assert statuses <= {"queued", "rejected"}
        assert len(fleet.requests) == 8


class TestFleetServing:
    def test_calm_run_delivers_everything(self):
        report = run_fleet_gate(seed=21, shards=2, horizon=384, tenants=4,
                                workers="inline", kills=0, wedges=0,
                                check_ifc=False)
        d = report.to_dict()
        assert d["conservation_ok"]
        assert d["totals"]["by_status"] == {
            "delivered": d["totals"]["requests"]}
        assert d["security"]["cross_user_deliveries"] == 0
        assert d["security"]["unverified_deliveries"] == 0
        assert report.ok()

    def test_more_tenants_than_seats_on_one_shard(self):
        """Six tenants multiplex over one shard's three key slots."""
        report = run_fleet_gate(seed=23, shards=1, horizon=384, tenants=6,
                                workers="inline", kills=0, wedges=0,
                                check_ifc=False)
        d = report.to_dict()
        assert len(d["per_tenant"]) == 6 > len(SEATS)
        assert d["conservation_ok"]
        # every tenant is served; a single shard under bursts may shed,
        # but only from the lowest service class, and nothing vanishes
        for t in d["per_tenant"].values():
            assert t["delivered"] + t["rejected"] + t["timed_out"] \
                == t["submitted"]
            assert t["delivered"] > 0
            if t["rejected"]:
                assert t["slo_class"] in ("bronze", "adversarial")

    def test_kill_recovery_conserves_requests(self):
        report = run_fleet_gate(seed=31, shards=2, horizon=512, tenants=4,
                                workers="inline", kills=1, wedges=0,
                                check_ifc=False)
        d = report.to_dict()
        sup = d["supervisor"]
        assert sup["kills_detected"] >= 1
        assert sup["respawns"] >= 1
        assert sup["rebalances"] >= 1
        assert d["conservation_ok"]
        assert sup["forced_terminal"] == 0

    def test_wedge_is_quarantined_and_drained(self):
        report = run_fleet_gate(seed=37, shards=2, horizon=512, tenants=4,
                                workers="inline", kills=0, wedges=1,
                                check_ifc=False)
        sup = report.to_dict()["supervisor"]
        assert sup["wedges_detected"] >= 1
        assert sup["quarantines"] >= 1
        assert report.to_dict()["conservation_ok"]

    def test_terminal_status_invariant_under_chaos(self):
        cfg = FleetConfig(shards=2, workers="inline")
        specs = default_tenants(4, seed=41)
        trace = generate_trace(specs, 512, seed=41)
        chaos = ChaosSchedule.seeded(41, rounds=8, shards=2,
                                     kills=1, wedges=1)
        fleet = AcceleratorFleet(cfg, specs, seed=41)
        fleet.run(trace, chaos)
        assert fleet.requests
        for req in fleet.requests:
            assert req.status in TERMINAL_STATUSES, (
                f"{req} left non-terminal")

    def test_gate_verdict_fails_on_missed_kill(self):
        """chaos_ok demands every injected kill be detected."""
        report = run_fleet_gate(seed=21, shards=2, horizon=384, tenants=4,
                                workers="inline", kills=0, wedges=0,
                                check_ifc=False)
        assert report.chaos_ok
        report.kills_injected = 5  # pretend more chaos was scheduled
        recomputed = (report.supervisor["kills_detected"] >= 5)
        assert not recomputed


class TestWedgedProvisioning:
    def test_wedged_shard_waits_once_per_round(self, monkeypatch):
        """After a seat-provisioning attempt times out on a wedged
        pipeline, the shard defers the round's other seatings without
        stepping while ``in_ready`` reads 0, instead of running out the
        driver's full wait once per submission."""
        from repro.accel.driver import AcceleratorDriver
        from repro.soc.fleet import ShardServer, run_fleet_gate

        where = [None]
        timeouts = []
        run_round = ShardServer.run_round

        def counted_round(self, *args, **kwargs):
            where[0] = (id(self), self.core.driver.sim.cycle)
            return run_round(self, *args, **kwargs)

        def counted(orig):
            def call(self, *args, **kwargs):
                try:
                    return orig(self, *args, **kwargs)
                except TimeoutError:
                    timeouts.append(where[0])
                    raise
            return call

        monkeypatch.setattr(ShardServer, "run_round", counted_round)
        # seat provisioning = slot allocation, then the key load
        for name in ("allocate_slot", "load_key"):
            monkeypatch.setattr(AcceleratorDriver, name,
                                counted(getattr(AcceleratorDriver, name)))
        report = run_fleet_gate(seed=424242, shards=2, horizon=512,
                                tenants=4, workers="inline", kills=1,
                                wedges=1, check_ifc=False)
        assert report.wedges_injected == 1
        assert timeouts, "the wedge never stalled a provisioning attempt"
        assert len(set(timeouts)) == len(timeouts), \
            "a round ran out the driver's wait more than once"
