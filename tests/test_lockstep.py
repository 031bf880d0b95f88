"""Tests for lock-stepped episodes: one batched kernel call per round step.

Three layers, each pinned to the solo path it replaces.  A solo
request runs through the same vectorized phase loop (a lone flood is a
one-flood batch), so these tests pin the grouping; the loop itself is
pinned by the scalar engine and the SHA-256 fingerprints.

* **Kernel** — one ``run_batch`` call over the floods of several
  episodes (each with its own generator, links, interference,
  participants and N_TX) equals per-episode ``run_batch`` calls bit for
  bit, generator states included.
* **Sweep worker** — ``run_sweep_points`` over a mixed Fig. 5 grid, run
  by the runner as one chunk or as two, equals every spec's solo
  ``run_sweep_point``; a scalar-engine spec is never grouped.
* **Trace worker** — ``run_trace_episodes`` over a ``trace_episode``
  grid (N_TX 0, multi-segment episodes of unequal length, a churned
  grid topology), run by the runner inline or on two workers, equals
  every spec's solo ``run_trace_episode``.
* **Runner** — a chunk with a failing member falls back to per-shard
  runs: the good members are cached under their own keys, the bad one
  comes back as a failure entry.
"""

import json

import numpy as np
import pytest

from repro.experiments.runner import (
    FAILURE_KEY,
    ParallelRunner,
    ScenarioTask,
    build_topology,
    network_payload,
    register_experiment,
    register_group,
)
from repro.experiments.scenarios import jamming_interference
from repro.experiments.spec import (
    SweepSpec,
    TraceEpisodeSpec,
    run_sweep_point,
    run_trace_episode,
)
from repro.net.glossy import FloodRequest, GlossyFlood, run_flood_requests
from repro.net.interference import CompositeInterference, NoInterference
from repro.net.link import LinkModel
from repro.net.radio import RadioModel
from repro.net.topology import kiel_testbed, random_topology
from repro.rl.trace_env import node_outage_schedule


def gray_links(link_model, seed=4):
    """Give a seeded share of the links PRRs far from 0 and 1, so the
    order of the kernel's failure factors shows in the last bit."""
    prr = link_model.prr_matrix()
    ids = link_model.topology.node_ids
    senders, receivers = np.nonzero(np.triu(prr > 0.0, k=1))
    rng = np.random.default_rng(seed)
    for a, b in zip(senders, receivers):
        if rng.random() < 0.4:
            link_model.set_link_quality(ids[a], ids[b], float(rng.uniform(0.05, 0.95)))
    return link_model


def episode_requests(topology):
    """Three episodes' data-slot requests, as different as a round allows."""
    ids = list(topology.node_ids)
    n = len(ids)
    partial = np.ones(n, dtype=bool)
    partial[[3, 7, 11]] = False
    per_node = np.array([(index % 4) for index in range(n)], dtype=np.int64)
    # A composite wrapping the jammer + ambient composite: one more
    # source type whose windows must come out as in the solo call.
    nested = CompositeInterference()
    nested.add(jamming_interference(topology, 0.35))
    setups = [
        # (link seed, rng seed, interference, participants, n_tx)
        (1, 10, NoInterference(), None, 3),
        (2, 20, jamming_interference(topology, 0.2), partial, per_node),
        (3, 30, nested, None, 2),
    ]
    requests = []
    for e, (link_seed, rng_seed, interference, participants, n_tx) in enumerate(setups):
        link_model = LinkModel(topology, seed=link_seed)
        if e == 2:
            gray_links(link_model)
        flood = GlossyFlood(
            topology, link_model, rng=np.random.default_rng(rng_seed), engine="vectorized"
        )
        initiators = [
            node
            for node in ids[e:e + 12]
            if participants is None or participants[ids.index(node)]
        ]
        requests.append(
            FloodRequest(
                flood=flood,
                initiators=initiators,
                n_tx=n_tx,
                packet_bytes=30,
                channels=[11 + (k % 16) for k in range(len(initiators))],
                start_times=[100.0 * e + 22.0 * k for k in range(len(initiators))],
                interference=interference,
                participants=participants,
                max_slot_ms=20.0,
            )
        )
    return requests


def assert_same_floods(first, second):
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert a.initiator == b.initiator
        assert a.node_ids == b.node_ids
        assert a.channel == b.channel
        for name in (
            "received_array",
            "reception_phase_array",
            "transmissions_array",
            "radio_on_array",
        ):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestMultiEpisodeKernel:
    @pytest.mark.parametrize("topology", [kiel_testbed(), random_topology(30, seed=5)],
                             ids=["kiel", "random30"])
    def test_one_call_equals_per_episode_run_batch(self, topology):
        lockstep = episode_requests(topology)
        solo = episode_requests(topology)
        grouped = run_flood_requests(lockstep)
        for request, batched in zip(solo, grouped):
            assert_same_floods(request.flood.run_batch(
                request.initiators,
                n_tx=request.n_tx,
                packet_bytes=request.packet_bytes,
                channels=request.channels,
                start_times=request.start_times,
                interference=request.interference,
                participants=request.participants,
                max_slot_ms=request.max_slot_ms,
            ), batched)
        for a, b in zip(lockstep, solo):
            assert a.flood.rng.bit_generator.state == b.flood.rng.bit_generator.state
        # The floods really propagated: some decoded, some lost packets.
        received = np.concatenate([f.received_array for fl in grouped for f in fl])
        assert received.any() and not received.all()

    def test_control_floods_of_episodes_equal_single_runs(self):
        """Grouped lone control floods equal each request run on its own
        (one one-flood batch per episode)."""
        topology = kiel_testbed()
        requests = [
            FloodRequest(
                flood=GlossyFlood(topology, LinkModel(topology, seed=seed),
                                  rng=np.random.default_rng(seed), engine="vectorized"),
                initiators=[topology.coordinator],
                n_tx=n_tx,
                packet_bytes=40,
                channels=[26],
                start_times=[4000.0 * seed],
                interference=jamming_interference(topology, 0.1 * seed),
                max_slot_ms=20.0,
            )
            for seed, n_tx in ((1, 1), (2, 3), (3, 5))
        ]
        alone = [
            FloodRequest(**{**request.__dict__, "flood": GlossyFlood(
                topology, LinkModel(topology, seed=seed),
                rng=np.random.default_rng(seed), engine="vectorized")})
            for seed, request in zip((1, 2, 3), requests)
        ]
        for grouped, request in zip(run_flood_requests(requests), alone):
            assert_same_floods(grouped, request.run())

    def test_episodes_must_share_the_node_order(self):
        kiel = kiel_testbed()
        other = random_topology(20, seed=1)
        floods = [GlossyFlood(kiel, engine="vectorized"), GlossyFlood(other, engine="vectorized")]
        with pytest.raises(ValueError, match="topology"):
            floods[0].run_batch([0, 0], 2, floods=floods)


OTHER_ENGINE = {"vectorized": "scalar", "scalar": "vectorized"}

#: Owners a batch cannot share with a Kiel flood of ``engine``.
MISMATCHED_OWNERS = {
    "node order": lambda kiel, engine: GlossyFlood(random_topology(20, seed=1), engine=engine),
    "engine": lambda kiel, engine: GlossyFlood(kiel, engine=OTHER_ENGINE[engine]),
    "radio": lambda kiel, engine: GlossyFlood(
        kiel, radio=RadioModel(max_slot_ms=10.0), engine=engine),
    "capture boost": lambda kiel, engine: GlossyFlood(
        kiel, LinkModel(kiel, capture_boost=0.3), engine=engine),
}


@pytest.mark.parametrize("engine", ["vectorized", "scalar"])
class TestBatchOwnerCheck:
    """Both engines make the same owner check before they run a flood."""

    @pytest.mark.parametrize("mismatch", sorted(MISMATCHED_OWNERS))
    def test_mismatched_owner_is_refused(self, kiel, engine, mismatch):
        flood = GlossyFlood(kiel, engine=engine)
        other = MISMATCHED_OWNERS[mismatch](kiel, engine)
        with pytest.raises(
            ValueError, match="one topology order, engine, radio and capture boost"
        ):
            flood.run_batch([0, 0], 2, floods=[flood, other])

    def test_matching_owner_runs(self, kiel, engine):
        flood = GlossyFlood(kiel, engine=engine)
        results = flood.run_batch([0, 0], 2, floods=[flood, GlossyFlood(kiel, engine=engine)])
        assert [result.initiator for result in results] == [0, 0]


def sweep_grid(network):
    base = SweepSpec(topology={"kind": "kiel"}, rounds=5, engine="vectorized")
    specs = base.grid(protocols=["lwb", "pid"], ratios=[0.0, 0.2, 0.35], seeds=[1, 2])
    specs += SweepSpec(
        protocol="dimmer", topology={"kind": "kiel"}, rounds=5, engine="vectorized",
        network=network_payload(network),
    ).grid(ratios=[0.0, 0.35], seeds=[1, 2])
    return specs


class TestGroupedSweep:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_grouped_grid_equals_solo_runs(self, untrained_network, workers):
        specs = sweep_grid(untrained_network)
        scalar = SweepSpec(protocol="pid", ratio=0.2, topology={"kind": "kiel"}, rounds=5,
                           engine="scalar", seed=3)
        specs.insert(5, scalar)
        tasks = [spec.task() for spec in specs]
        units = ParallelRunner._units(tasks, range(len(tasks)), workers)
        # The scalar spec runs alone; the rest is dealt round-robin.
        assert 5 in units
        chunks = [unit for unit in units if isinstance(unit, tuple)]
        grouped = [index for index in range(len(tasks)) if index != 5]
        assert chunks == [tuple(grouped[offset::workers]) for offset in range(workers)]

        results = ParallelRunner(max_workers=workers).run(tasks)
        for spec, result in zip(specs, results):
            solo = run_sweep_point(seed=spec.seed, **spec.params())
            assert json.dumps(result, sort_keys=True) == json.dumps(solo, sort_keys=True)

    def test_group_of_one_is_the_solo_worker(self):
        spec = SweepSpec(protocol="lwb", ratio=0.2, rounds=3, seed=4)
        tasks = [spec.task()]
        assert ParallelRunner._units(tasks, [0], 4) == [0]


TINY_GRID = {"kind": "grid", "rows": 2, "cols": 3, "spacing_m": 6.0, "comm_range_m": 9.0}


def trace_grid():
    """Kiel slices of a two-segment and a shorter one-segment episode
    (N_TX 0-3, two seeds), then churned slices on the tiny grid."""
    specs = []
    for episode in (((2, 0.0), (2, 0.3)), ((3, 0.15),)):
        specs += TraceEpisodeSpec(
            topology={"kind": "kiel"}, episode=episode, interference_seed=3,
            round_period_s=1.0,
        ).grid(n_tx=[0, 1, 2, 3], seeds=[5, 6])
    churn = node_outage_schedule(build_topology(TINY_GRID), 4, 1, 3)
    specs += TraceEpisodeSpec(
        topology=TINY_GRID, episode=((2, 0.0), (3, 0.3)), churn=churn,
    ).grid(n_tx=[0, 2, 4], seeds=[1])
    return specs


class TestGroupedTraces:
    @pytest.mark.parametrize("max_workers", [0, 2])
    def test_grouped_grid_equals_solo_runs(self, max_workers):
        specs = trace_grid()
        tasks = [spec.task() for spec in specs]
        workers = max(max_workers, 1)
        units = ParallelRunner._units(tasks, range(len(tasks)), workers)
        # One group per topology, each dealt round-robin into chunks (a
        # chunk of one is a plain task).
        dealt = [
            members[offset::workers]
            for members in (tuple(range(16)), tuple(range(16, 19)))
            for offset in range(workers)
        ]
        assert units == [chunk if len(chunk) > 1 else chunk[0] for chunk in sorted(dealt)]

        results = ParallelRunner(max_workers=max_workers).run(tasks)
        for spec, result in zip(specs, results):
            solo = run_trace_episode(seed=spec.seed, **spec.params())
            assert json.dumps(result, sort_keys=True) == json.dumps(solo, sort_keys=True)

    def test_group_of_one_is_the_solo_worker(self):
        spec = TraceEpisodeSpec(n_tx=2, episode=((2, 0.1),), seed=4)
        tasks = [spec.task()]
        assert ParallelRunner._units(tasks, [0], 4) == [0]
        (result,) = ParallelRunner(max_workers=0).run(tasks)
        assert result == run_trace_episode(seed=4, **spec.params())


@register_experiment("test_grouped_echo")
def _grouped_echo(seed=0, value=0.0):
    if value < 0:
        raise RuntimeError("negative value")
    return {"value": value, "seed": seed}


@register_group("test_grouped_echo", lambda params: "all")
def _grouped_echo_chunk(params_list):
    return [_grouped_echo(**params) for params in params_list]


class TestChunkFallback:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_member_falls_back_to_per_shard_runs(self, tmp_path, workers):
        from repro.experiments.resilience import RetryPolicy

        tasks = [
            ScenarioTask("test_grouped_echo", {"value": value}, seed=index)
            for index, value in enumerate([1.0, 2.0, -1.0, 3.0, 4.0])
        ]
        runner = ParallelRunner(
            max_workers=workers, cache_dir=tmp_path, retry_policy=RetryPolicy.none()
        )
        results = runner.run(tasks, collect_errors=True)
        assert results[2][FAILURE_KEY] is True
        assert "negative value" in results[2]["error"]
        for index in (0, 1, 3, 4):
            assert results[index] == {"value": tasks[index].params["value"], "seed": index}
            assert (tmp_path / f"{tasks[index].key()}.json").exists()
        assert not (tmp_path / f"{tasks[2].key()}.json").exists()
        assert runner.stats.executed == 4

        # A rerun serves the good members from the cache, shard by shard.
        again = ParallelRunner(max_workers=workers, cache_dir=tmp_path,
                               retry_policy=RetryPolicy.none())
        rerun = again.run(tasks, collect_errors=True)
        assert again.stats.cache_hits == 4
        assert rerun[2][FAILURE_KEY] is True
        assert [rerun[i] for i in (0, 1, 3, 4)] == [results[i] for i in (0, 1, 3, 4)]
