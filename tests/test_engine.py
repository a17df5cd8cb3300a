import copy
import importlib.util
from pathlib import Path
from random import Random

import pytest

from gradroute import engine
from gradroute.config import ConfigError, ExperimentConfig, load_config, save_config
from gradroute.cli import main as cli_main
from gradroute.engine import LOAD_FACTOR, LoadDiverged, Simulation
from gradroute.harness import run_experiment
from gradroute.learner import LearnerConfig
from gradroute.network import Link, Topology, TrafficSpec, shortest_path_delay
from gradroute.presets import braess_network, preset

FROZEN = LearnerConfig(beta=0.99, gamma=1e-300)  # effectively no learning


GOLDEN_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "golden_digests.py"


def forced_hops_config():
    """The golden link-delay network with one-link routers (B and D)."""
    spec = importlib.util.spec_from_file_location("golden_digests", GOLDEN_SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.forced_hops_config()


def advance(sim, steps):
    for _ in range(steps):
        sim.step()


def advance_logging_trips(sim, steps):
    """Step the simulation and return (source, destination, trip time) of
    every delivery, read from each tick's due arrivals before its step."""
    trips = []
    for _ in range(steps):
        t = sim.tick_count + 1
        for packet in sim._arrivals.get(t, ()):
            if packet.node == packet.destination:
                trips.append((packet.source, packet.destination, t - packet.birth_tick))
        sim.step()
    return trips


def oldest_in_flight_age(sim):
    """Age in ticks of the oldest packet on a link (0 when none is)."""
    births = [p.birth_tick for bucket in sim._arrivals.values() for p in bucket]
    return sim.tick_count - min(births, default=sim.tick_count)


def force_row(sim, router_label, dest_label, logits):
    topo = sim.topology
    sim._rows[topo.node_id(router_label) * topo.n_nodes + topo.node_id(dest_label)][:] = logits


class TestContentionArithmetic:
    def run_forced(self, logits, steps=60):
        cfg = preset("contention").with_overrides(steps=steps, learner=FROZEN)
        sim = Simulation(cfg)
        force_row(sim, "A", "B", logits)
        return sim, [sim.step() for _ in range(steps)]

    def test_always_top_settles_at_minus_22(self):
        sim, stats = self.run_forced([30.0, -30.0])
        # steady state from tick 2: one delivery (trip 1) and one drop per tick
        for s in stats[1:]:
            assert s.reward.underlying == -1.0
            assert s.reward.shaping == -21.0
            assert s.reward.total == -22.0
            assert s.delivered == 1 and s.dropped == 1
        assert stats[0].reward.total == -21.0  # first tick: drop but no arrival yet

    def test_always_bottom_settles_at_minus_12(self):
        sim, stats = self.run_forced([-30.0, 30.0])
        for s in stats[:6]:  # nothing arrives during the first transit
            assert s.reward.total == 0.0 and s.dropped == 0
        for s in stats[6:]:
            assert s.reward.total == -12.0
            assert s.delivered == 2 and s.dropped == 0

    def test_uniform_policy_long_run_average_matches_enumeration(self):
        from gradroute.oracles import contention_expected_reward

        cfg = preset("contention").with_overrides(steps=40_000, learner=FROZEN)
        res = run_experiment(cfg)
        assert res.final_running_mean == pytest.approx(
            contention_expected_reward(0.5, 21.0), abs=0.3
        )

    def test_drop_tie_break_is_deterministic(self):
        sim, stats = self.run_forced([30.0, -30.0], steps=5)
        # the lower-id packet transmits; exactly one drop per tick either way
        assert all(s.dropped == 1 for s in stats)

    def test_only_a_capacitated_link_drops(self):
        # top loses its capacity and bottom keeps 1 of its 2; both packets of
        # a tick take the forced link
        topo = Topology.build(["A", "B"], [("A", "B", 1, None, "top"), ("A", "B", 6, 1, "bottom")])
        cfg = preset("contention").with_overrides(steps=20, learner=FROZEN, topology=topo)
        top = Simulation(cfg)
        force_row(top, "A", "B", [30.0, -30.0])
        for s in [top.step() for _ in range(20)][1:]:
            assert s.dropped == 0 and s.delivered == 2 and s.reward.total == -2.0
        bottom = Simulation(cfg)
        force_row(bottom, "A", "B", [-30.0, 30.0])
        stats = [bottom.step() for _ in range(20)]
        assert all(s.dropped == 2 - 1 for s in stats)
        for s in stats[6:]:
            assert s.delivered == 1 and s.reward.total == -6.0 - 21.0


class TestNodeFlowArithmetic:
    def test_all_left_costs_116_per_packet(self):
        cfg = preset("braess1").with_overrides(steps=10, learner=FROZEN)
        sim = Simulation(cfg)
        force_row(sim, "A", "B", [40.0, -40.0])
        stats = [sim.step() for _ in range(10)]
        for s in stats:
            assert s.reward.total == pytest.approx(-116.0 * 6)
            assert s.delivered == 6 and s.in_flight == 0

    def test_right_with_shortcut_disabled_costs_116(self):
        cfg = preset("braess1").with_overrides(steps=5, learner=FROZEN)
        sim = Simulation(cfg)
        force_row(sim, "A", "B", [-40.0, 40.0])
        force_row(sim, "E", "B", [40.0, -40.0])
        for _ in range(5):
            assert sim.step().reward.total == pytest.approx(-116.0 * 6)

    def test_uniform_policy_matches_binomial_enumeration(self):
        from gradroute.oracles import braess_expected_cost

        cfg = preset("braess1").with_overrides(steps=30_000, learner=FROZEN)
        res = run_experiment(cfg)
        expected = -6.0 * braess_expected_cost(0.5, 0.5)
        assert res.final_running_mean == pytest.approx(expected, rel=0.01)

    def test_cycle_in_node_flow_topology_aborts(self, tmp_path):
        # a packet walks its whole path within the tick, so E->G->E could
        # loop forever: the network is refused before any tick runs
        topo, traffic = braess_network(augmented=True)
        loop = Topology(
            nodes=topo.nodes,
            links=topo.links + (Link(topo.node_id("G"), topo.node_id("E"), 1),),
            cost_model=topo.cost_model,
            node_costs=topo.node_costs,
        )
        cfg = ExperimentConfig(topology=loop, traffic=traffic, learner=FROZEN, steps=50)
        with pytest.raises(ConfigError, match="directed cycle through node E"):
            Simulation(cfg)
        path = tmp_path / "loop.json"
        save_config(cfg, path)
        with pytest.raises(ConfigError, match="directed cycle through node E"):
            load_config(path)


class TestConservationAndDeterminism:
    @pytest.mark.parametrize("name", ["triangle", "contention", "six_node", "braess1"])
    def test_conservation_every_tick(self, name):
        cfg = preset(name).with_overrides(steps=400)
        sim = Simulation(cfg)
        gen = deliv = drop = 0
        for _ in range(cfg.steps):
            s = sim.step()
            gen += s.generated
            deliv += s.delivered
            drop += s.dropped
            assert gen == deliv + drop + s.in_flight
            assert s.reward.total == s.reward.underlying + s.reward.shaping

    @pytest.mark.parametrize("name", ["triangle", "contention", "six_node", "braess1"])
    def test_same_seed_same_stats(self, name):
        cfg = preset(name).with_overrides(steps=300, seed=5)
        a = [Simulation(cfg).step() for _ in range(1)]  # warm-up construction path
        run_a = Simulation(cfg)
        run_b = Simulation(cfg)
        stats_a = [run_a.step() for _ in range(300)]
        stats_b = [run_b.step() for _ in range(300)]
        assert stats_a == stats_b
        assert run_a.theta() == run_b.theta()

    def test_different_seeds_differ(self):
        cfg = preset("triangle").with_overrides(steps=200)
        a = run_experiment(cfg.with_overrides(seed=1))
        b = run_experiment(cfg.with_overrides(seed=2))
        assert a.final_running_mean != b.final_running_mean

    def test_zero_steps_returns_initial_state(self):
        sim = Simulation(preset("triangle"))
        assert sim.tick_count == 0
        assert sim.generated_total == 0
        assert all(
            v == 0.0 for dests in sim.theta().values() for row in dests.values() for v in row
        )


class TestTheta:
    def test_snapshot_lists_are_the_callers_own(self):
        cfg = preset("six_node").with_overrides(steps=200)
        sim = Simulation(cfg)
        advance(sim, cfg.steps)
        theta = sim.theta()
        before = copy.deepcopy(theta)
        for dests in theta.values():
            for row in dests.values():
                row[0] += 1.0  # the run does not see it
        assert sim.theta() == before


class CountingRandom(Random):
    """A seeded stream that counts its uniform draws."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def random(self):
        self.draws += 1
        return super().random()


class TestRandomStream:
    """Each tick draws one uniform per generated packet (its destination)
    plus one per routing decision, whether the router sampled its policy
    or had a single out-link and forwarded without it. Every decision of
    the tick reaches the learner in its one tick_update call."""

    @pytest.mark.parametrize(
        "cfg",
        [preset("braess1").with_overrides(steps=300), forced_hops_config()],
        ids=["braess1", "forced_hops"],
    )
    def test_one_draw_per_packet_and_per_decision(self, cfg, monkeypatch):
        forced = sampled = 0
        tick_decisions = tick_calls = 0
        real = engine.tick_update

        def counting(rows, trace, learner_cfg, decisions, reward):
            nonlocal forced, sampled, tick_decisions, tick_calls
            tick_calls += 1
            tick_decisions += len(decisions)
            for row, _ in decisions:
                if len(rows[row]) == 1:
                    forced += 1
                else:
                    sampled += 1
            real(rows, trace, learner_cfg, decisions, reward)

        monkeypatch.setattr(engine, "tick_update", counting)
        sim = Simulation(cfg)
        sim.rng = CountingRandom(cfg.seed)
        plain = Simulation(cfg)
        for _ in range(300):
            before = sim.rng.draws
            tick_decisions = tick_calls = 0
            stats = sim.step()
            assert tick_calls == 1
            assert sim.rng.draws - before == stats.generated + tick_decisions
            assert stats == plain.step()  # counting leaves the stream as it is
        assert forced > 0 and sampled > 0


class TopRandom(Random):
    """Every uniform is 1 - 2**-53, the largest that random() returns."""

    def random(self):
        return 1.0 - 2.0**-53


class TestDrawPastTheTotal:
    """A uniform that rounding puts at or past a table's total draws the
    last slot: for a destination, the last one the source can draw."""

    def test_link_delay_destination(self):
        # uniform(7) gives source 0 weights that sum to 1 - 2**-53, so no
        # running sum of its row exceeds the top uniform
        labels = [f"N{i}" for i in range(7)]
        links = [(labels[i], labels[(i + k) % 7], 1) for i in range(7) for k in (1, -1)]
        cfg = ExperimentConfig(
            topology=Topology.build(labels, links),
            traffic=TrafficSpec.uniform(7),
            learner=FROZEN,
        )
        assert sum(cfg.traffic.dest_probs[0]) == TopRandom().random()
        sim = Simulation(cfg)
        sim.rng = TopRandom()
        trips = {(src, dst) for src, dst, _ in advance_logging_trips(sim, 10)}
        # the draw also picks the last slot, i -> i-1, so N0 reaches N6 at once
        assert (0, 6) in trips
        assert {dst for src, dst in trips if src == 0} == {6}

    def test_node_flow_destination(self, monkeypatch):
        cfg = preset("braess1")
        probs = list(cfg.traffic.dest_probs)
        probs[0] = tuple(1.0 - 1e-13 if p else 0.0 for p in probs[0])
        cfg = cfg._replace(traffic=cfg.traffic._replace(dest_probs=tuple(probs)))
        sim = Simulation(cfg)
        sim.rng = TopRandom()
        decided = []
        real = engine.tick_update

        def recording(rows, trace, learner_cfg, decisions, reward):
            n = cfg.topology.n_nodes
            decided.extend((*divmod(row, n), s) for row, s in decisions)
            real(rows, trace, learner_cfg, decisions, reward)

        monkeypatch.setattr(engine, "tick_update", recording)
        sim.step()
        a, b = cfg.topology.node_id("A"), cfg.topology.node_id("B")
        # each of A's 6 packets is bound for B and leaves A by its last link
        assert [(r, d, s) for r, d, s in decided if r == a] == [(a, b, 1)] * 6


class TestRunningAverage:
    """Simulation.running_mean: the left-to-right sum of the tick rewards
    over the tick count."""

    def forced_contention(self, logits):
        sim = Simulation(preset("contention").with_overrides(learner=FROZEN))
        force_row(sim, "A", "B", logits)
        return sim

    def test_three_values(self):
        sim = self.forced_contention([30.0, -30.0])
        totals = [sim.step().reward.total for _ in range(3)]
        assert totals == [-21.0, -22.0, -22.0]
        assert sim.running_mean == (totals[0] + totals[1] + totals[2]) / 3

    def test_single_value(self):
        sim = self.forced_contention([30.0, -30.0])
        sim.step()
        assert sim.running_mean == -21.0

    def test_zero_stream(self):
        sim = self.forced_contention([-30.0, 30.0])
        assert sim.running_mean == 0.0  # before the first tick
        advance(sim, 6)  # nothing arrives during the first transit
        assert sim.running_mean == 0.0


class TestTripTimes:
    def test_trips_bounded_below_by_shortest_path(self):
        cfg = preset("triangle").with_overrides(steps=20_000, learner=FROZEN)
        sim = Simulation(cfg)
        trip_log = advance_logging_trips(sim, cfg.steps)
        topo = cfg.topology
        assert len(trip_log) > 50_000
        for source, dest, trip in trip_log:
            assert trip >= shortest_path_delay(topo, source, dest)

    def test_uniform_routing_age_spot_check(self):
        # uncapacitated triangle at uniform policy: packets keep arriving and
        # the tail of the trip distribution stays short
        cfg = preset("triangle").with_overrides(steps=100_000, learner=FROZEN)
        sim = Simulation(cfg)
        trips = sorted(t for _, _, t in advance_logging_trips(sim, cfg.steps))
        p99 = trips[int(0.99 * len(trips))]
        assert p99 <= 50
        assert oldest_in_flight_age(sim) <= 200

    def test_six_node_direct_policy_delivers_everything_in_one_hop(self):
        cfg = preset("six_node").with_overrides(steps=3_000, learner=FROZEN)
        sim = Simulation(cfg)
        topo = cfg.topology
        for row_id, row in sim._rows.items():
            router, dest = divmod(row_id, topo.n_nodes)
            row[:] = [
                40.0 if topo.links[i].dst == dest else -40.0
                for i in topo.out_link_indices(router)
            ]
        trip_log = advance_logging_trips(sim, cfg.steps)
        assert sim.cycles_total == 0
        assert all(trip == 1 for _, _, trip in trip_log)
        # reward equals the shortest-path optimum from the second tick on
        assert sim.running_mean == pytest.approx(-6.0, abs=0.1)


def livelock_config():
    """A -> E along a chain A-B-C-D-E whose routers B, C and D each have
    one link forward and nine back: under the near-uniform policy a packet
    takes thousands of ticks on average, so the load keeps growing."""
    labels = ["A", "B", "C", "D", "E"]
    links = [(labels[i], labels[i + 1], 1) for i in range(4)]
    links += [
        (labels[i], labels[i - 1], 1, None, f"back{i}{k}") for i in range(1, 4) for k in range(9)
    ]
    return ExperimentConfig(
        topology=Topology.build(labels, links),
        traffic=TrafficSpec.single_flow(5, src=0, dst=4, rate=1),
        learner=LearnerConfig(beta=0.9, gamma=1e-9),
        steps=5_000,
    )


class TestLoadGuard:
    def test_growing_load_stops_at_the_bound_naming_tick_and_load(self):
        sim = Simulation(livelock_config())
        bound = LOAD_FACTOR * 1 * 5 * 1  # rate x nodes x longest delay
        with pytest.raises(LoadDiverged) as stop:
            advance(sim, 5_000)
        # at most one packet starts per tick, so the load stops one over the bound
        assert sim.in_flight == bound + 1
        assert str(stop.value) == (
            f"load diverged at tick {sim.tick_count}: {bound + 1} packets in flight"
        )

    def test_long_loop_free_links_stay_under_the_bound(self):
        topo = Topology.build(["A", "B"], [("A", "B", 5_000)])
        cfg = ExperimentConfig(
            topology=topo, traffic=TrafficSpec.single_flow(2, src=0, dst=1, rate=3), learner=FROZEN
        )
        sim = Simulation(cfg)
        advance(sim, 6_000)
        assert sim.in_flight == 3 * 5_000 and sim.delivered_total == 3 * 1_000

    def test_cli_reports_a_diverged_run_in_one_line(self, tmp_path, capsys):
        path = tmp_path / "livelock.json"
        save_config(livelock_config(), path)
        assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: load diverged at tick ")
        assert len(err.strip().splitlines()) == 1


class TestRewardDecomposition:
    def test_six_node_cycle_penalty_lands_in_shaping(self):
        cfg = preset("six_node").with_overrides(steps=300)
        sim = Simulation(cfg)
        saw_cycle = False
        for _ in range(cfg.steps):
            s = sim.step()
            assert s.reward.shaping == pytest.approx(-100.0 * s.cycles_detected)
            saw_cycle = saw_cycle or s.cycles_detected > 0
        assert saw_cycle  # uniform routing on a complete graph revisits quickly

    def test_run_helper_accumulates(self):
        cfg = preset("contention").with_overrides(steps=500)
        res = run_experiment(cfg)
        sim = Simulation(cfg)
        stats = [sim.step() for _ in range(cfg.steps)]
        assert res.steps_run == 500
        assert res.generated == sum(s.generated for s in stats) == 1000
        assert res.delivered == sum(s.delivered for s in stats)
        assert res.dropped == sum(s.dropped for s in stats)
        assert res.cycles_detected == sum(s.cycles_detected for s in stats)
        assert res.final_running_mean == sim.running_mean
