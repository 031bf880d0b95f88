"""Tests for the batched reception kernel and the engine selector.

Four layers of guarantees:

* **Kernel parity** — a ``K``-flood
  :meth:`~repro.net.glossy.GlossyFlood.run_batch` call, whose phases
  with several transmitting floods go through the batched
  masked-product kernel, is bit-for-bit identical to ``K`` one-flood
  :meth:`~repro.net.glossy.GlossyFlood.run` calls, whose rows are the
  dense ``failure[tx].prod(axis=0)``.  Both run the same phase loop, so
  this pins batching, not the loop: the independent pins are the
  scalar engine (``tests/test_scalar_engine_parity.py``) and the SHA-256
  fingerprints.  This includes the flood-level early exit's closed-form
  tail and topologies with gray-zone links, where the products carry
  factors far from 0 and 1.
* **Edge cases** — K=0 slots, a single-node network, an all-links-zero
  PRR matrix, and a flood whose initiator was churned out mid-round all
  behave exactly like the sequential path, under both engines.
* **Cache invalidation** — node churn rebuilds the cached failure matrix.
* **Engine names** — every entry point accepts only the engines of
  :data:`~repro.net.glossy.FLOOD_ENGINES`.
"""

import numpy as np
import pytest

from repro.experiments import bench
from repro.experiments.scenarios import jamming_interference
from repro.net.glossy import FLOOD_ENGINES, GlossyFlood
from repro.net.link import LinkModel
from repro.net.simulator import NetworkSimulator, SimulatorConfig
from repro.net.topology import grid_topology, random_topology


def make_flood(topology, engine="vectorized", seed=9, link_seed=1, gray_links=False):
    link_model = LinkModel(topology, seed=link_seed)
    if gray_links:
        add_gray_links(link_model)
    return GlossyFlood(
        topology, link_model, rng=np.random.default_rng(seed), engine=engine
    )


def add_gray_links(link_model, share=0.3, seed=4):
    """Override a seeded share of the existing links with PRRs in [0.05, 0.95].

    Generated topologies have almost no gray-zone links (their PRRs sit
    at 0 or near 1), so without overrides every kernel product only
    sees factors near 0 or 1.
    """
    prr = link_model.prr_matrix()
    ids = link_model.topology.node_ids
    senders, receivers = np.nonzero(np.triu(prr > 0.0, k=1))
    rng = np.random.default_rng(seed)
    chosen = rng.random(len(senders)) < share
    for a, b in zip(senders[chosen], receivers[chosen]):
        link_model.set_link_quality(ids[a], ids[b], float(rng.uniform(0.05, 0.95)))
    return link_model


def assert_results_identical(first, second):
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert a.node_ids == b.node_ids
        assert (a.received_array == b.received_array).all()
        assert (a.reception_phase_array == b.reception_phase_array).all()
        assert (a.transmissions_array == b.transmissions_array).all()
        assert (a.radio_on_array == b.radio_on_array).all()


def run_batch_under(flood, initiators, **kwargs):
    kwargs.setdefault("n_tx", 2)
    kwargs.setdefault("start_times", [22.0 * k for k in range(len(initiators))])
    kwargs.setdefault("max_slot_ms", 20.0)
    return flood.run_batch(initiators=initiators, **kwargs)


def run_sequential_under(flood, initiators, **kwargs):
    """The one-flood counterpart of :func:`run_batch_under`: one ``run``
    per flood, in order, under the same generator."""
    n_tx = kwargs.pop("n_tx", 2)
    starts = kwargs.pop("start_times", [22.0 * k for k in range(len(initiators))])
    if np.ndim(starts) == 0:
        starts = [starts] * len(initiators)
    kwargs.setdefault("max_slot_ms", 20.0)
    return [
        flood.run(initiator=initiator, n_tx=n_tx, start_ms=start, **kwargs)
        for initiator, start in zip(initiators, starts)
    ]


def assert_batch_equals_sequential(topology, initiators, gray_links=False, **kwargs):
    batched = run_batch_under(
        make_flood(topology, gray_links=gray_links), initiators, **dict(kwargs)
    )
    sequential = run_sequential_under(
        make_flood(topology, gray_links=gray_links), initiators, **dict(kwargs)
    )
    assert_results_identical(batched, sequential)
    return batched


class TestKernelParity:
    @pytest.mark.parametrize("ratio", [0.0, 0.25])
    def test_batched_equals_per_flood_reference(self, ratio):
        topology = random_topology(40, seed=5)
        interference = jamming_interference(topology, ratio) if ratio else None
        assert_batch_equals_sequential(
            topology, list(topology.node_ids[:12]), interference=interference
        )

    @pytest.mark.parametrize(
        "start_times",
        [[100.0 + 22.0 * k for k in range(5)], np.int64(5), np.float64(5.5), 5],
        ids=["list", "numpy-int", "numpy-float", "int"],
    )
    def test_batched_equals_sequential_runs(self, start_times):
        topology = random_topology(30, seed=7)
        initiators = [0, 4, 9, 15, 21]
        assert_batch_equals_sequential(
            topology,
            initiators,
            start_times=start_times,
            interference=jamming_interference(topology, 0.2),
        )

    def test_numpy_scalar_channel_applies_to_every_flood(self):
        topology = random_topology(30, seed=7)
        initiators = [0, 4, 9]
        batched = run_batch_under(make_flood(topology), initiators, channels=np.int64(15))
        sequential = run_sequential_under(make_flood(topology), initiators, channel=15)
        assert [result.channel for result in batched] == [15, 15, 15]
        assert_results_identical(batched, sequential)

    @pytest.mark.parametrize("argument", ["channels", "start_times"])
    def test_per_flood_list_of_wrong_length_rejected(self, argument):
        topology = random_topology(10, seed=7)
        with pytest.raises(ValueError, match="must match initiators"):
            make_flood(topology).run_batch([0, 1, 2], 2, **{argument: [26, 15]})

    def test_per_node_budgets_and_participants(self):
        topology = random_topology(25, seed=3)
        n_tx = np.zeros(25, dtype=np.int64)
        n_tx[:10] = 3  # forwarders; the rest are passive receivers
        mask = np.ones(25, dtype=bool)
        mask[[7, 19]] = False
        assert_batch_equals_sequential(
            topology, [0, 1, 2, 3], n_tx=n_tx, participants=mask
        )

    @pytest.mark.parametrize("ratio", [0.0, 0.25])
    def test_batched_equals_per_flood_reference_on_gray_links(self, ratio):
        """Gray-zone links put factors far from 0 and 1 into the
        products, so the draws are decided on intermediate
        probabilities rather than on values pinned at 0 or 1."""
        topology = random_topology(40, seed=5)
        gray = add_gray_links(LinkModel(topology, seed=1)).prr_matrix()
        assert ((gray > 0.05) & (gray < 0.95)).sum() >= 50
        interference = jamming_interference(topology, ratio) if ratio else None
        assert_batch_equals_sequential(
            topology,
            list(topology.node_ids[:12]),
            gray_links=True,
            n_tx=3,
            interference=interference,
        )


class TestKernelProbabilities:
    """Flood outcomes only change when a draw lands between two
    probabilities, so outcome parity cannot see last-bit differences.
    These tests compare the kernel's probabilities themselves with the
    dense product ``1 - failure[tx].prod(axis=0)`` that a lone flood's
    :meth:`~repro.net.glossy.GlossyFlood.run` uses, bit for bit, on
    gray-zone links where the factor order changes the rounding."""

    @staticmethod
    def per_flood_probabilities(link_model, transmit):
        prr = link_model.prr_matrix()
        failure = 1.0 - prr
        boost = 1.0 + link_model.capture_boost
        rows = []
        for mask in transmit:
            tx = np.flatnonzero(mask)
            if len(tx) == 1:
                rows.append(prr[tx[0]])
            else:
                rows.append(np.minimum((1.0 - failure[tx].prod(axis=0)) * boost, 1.0))
        return np.array(rows)

    @pytest.mark.parametrize("streaming", [False, True])
    def test_kernel_equals_per_flood_products_on_gray_links(self, monkeypatch, streaming):
        import repro.net.glossy as glossy_module

        if streaming:
            monkeypatch.setattr(glossy_module, "KERNEL_STREAM_MIN_ROW", 1)
        else:
            monkeypatch.setattr(glossy_module, "KERNEL_STREAM_MIN_ROW", 10**9)
            monkeypatch.setattr(glossy_module, "KERNEL_CHUNK_ELEMENTS", 256)
        topology = random_topology(40, seed=5)
        flood = make_flood(topology)
        # Every link gray: a strong link would round its receiver's
        # probability to exactly 1.0 whatever the factor order.
        link_model = add_gray_links(flood.link_model, share=1.0)
        rng = np.random.default_rng(2)
        transmit = np.zeros((16, 40), dtype=bool)
        for k, count in enumerate(rng.integers(1, 12, size=16)):
            transmit[k, rng.choice(40, size=count, replace=False)] = True
        tx_counts = transmit.sum(axis=1)
        active = np.arange(16)
        columns = np.arange(40)
        out = np.zeros((16, 40))
        flood._phase_success_batched(
            transmit,
            tx_counts,
            active,
            columns,
            link_model.prr_matrix(),
            link_model._failure_matrix,
            1.0 + link_model.capture_boost,
            out,
        )
        expected = self.per_flood_probabilities(link_model, transmit)
        # Only listeners are ever read; transmitter columns may differ.
        listening = ~transmit
        assert np.array_equal(out[listening], expected[listening])
        # The gray links put factors far from 0 and 1 into the products.
        assert ((expected > 0.05) & (expected < 0.95) & listening).any()


class TestRunBatchEdgeCases:
    @pytest.mark.parametrize("engine", ["scalar", "vectorized"])
    def test_zero_slots(self, engine):
        topology = random_topology(10, seed=2)
        flood = make_flood(topology, engine=engine)
        assert flood.run_batch(initiators=[], n_tx=2) == []

    @pytest.mark.parametrize("engine", ["scalar", "vectorized"])
    def test_single_node_network(self, engine):
        topology = grid_topology(rows=1, cols=1)
        batched = run_batch_under(
            make_flood(topology, engine=engine), [0, 0], n_tx=3
        )
        # One shared generator drives the sequential comparison floods.
        flood = make_flood(topology, engine=engine)
        sequential = [
            flood.run(initiator=0, n_tx=3, start_ms=s, max_slot_ms=20.0)
            for s in (0.0, 22.0)
        ]
        assert_results_identical(sequential, batched)
        # The lone node floods into the void: it transmits, nobody else
        # exists, reliability is vacuously perfect.
        assert batched[0].received_array.all()
        assert batched[0].transmissions_array[0] == 3
        assert batched[0].reliability == 1.0

    @pytest.mark.parametrize("engine", ["scalar", "vectorized"])
    def test_all_links_zero_prr(self, engine):
        # Nodes spaced far beyond communication range: every off-diagonal
        # PRR is exactly zero, so only initiators ever receive.
        topology = grid_topology(rows=2, cols=3, spacing_m=50.0, comm_range_m=10.0)
        initiators = [0, 1, 2]
        flood_a = make_flood(topology, engine=engine)
        batched = run_batch_under(flood_a, initiators, n_tx=2)
        flood_b = make_flood(topology, engine=engine)
        sequential = [
            flood_b.run(initiator=i, n_tx=2, start_ms=22.0 * k, max_slot_ms=20.0)
            for k, i in enumerate(initiators)
        ]
        assert_results_identical(sequential, batched)
        for result, initiator in zip(batched, initiators):
            assert result.receivers() == [initiator]
            # Non-initiators listen through every phase of the slot
            # (nothing to decode, so they never switch off early); the
            # initiator spends its budget and switches off.
            radio_on = dict(zip(result.node_ids, result.radio_on_array.tolist()))
            others = [radio_on[n] for n in result.node_ids if n != initiator]
            assert len(set(others)) == 1
            assert others[0] > radio_on[initiator]

    @pytest.mark.parametrize("engine", ["scalar", "vectorized"])
    def test_initiator_churned_out_mid_round(self, engine):
        """A source whose links were severed (node churn) still owns its
        slot: its flood executes but nobody can decode it."""
        topology = random_topology(20, seed=4)
        victim = 5

        def churned_flood(eng):
            flood = make_flood(topology, engine=eng)
            for other in topology.node_ids:
                if other != victim:
                    flood.link_model.set_link_quality(victim, other, 0.0)
            return flood

        initiators = [0, victim, 11]
        batched = run_batch_under(churned_flood(engine), initiators, n_tx=2)
        flood = churned_flood(engine)
        sequential = [
            flood.run(initiator=i, n_tx=2, start_ms=22.0 * k, max_slot_ms=20.0)
            for k, i in enumerate(initiators)
        ]
        assert_results_identical(sequential, batched)
        assert batched[1].receivers() == [victim]
        assert batched[1].reliability == 0.0
        # The healthy slots still flood normally.
        assert batched[0].reliability > 0.5


class TestScalarRunBatchDelegation:
    """Under the scalar engine ``run_batch`` calls each owner's ``run``
    attribute.  The flood-speed benchmark shadows ``flood.run`` on the
    instance with the per-node oracle; a direct call to the phase loop
    would silently time the scalar engine against itself."""

    @staticmethod
    def spy_on_run(monkeypatch, flood, calls):
        original = flood.run

        def spy(*args, **kwargs):
            calls.append((flood, kwargs["initiator"]))
            return original(*args, **kwargs)

        monkeypatch.setattr(flood, "run", spy)

    def test_run_batch_calls_each_owners_run(self, monkeypatch):
        topology = random_topology(10, seed=2)
        first, second = (make_flood(topology, engine="scalar", seed=s) for s in (1, 2))
        calls = []
        self.spy_on_run(monkeypatch, first, calls)
        self.spy_on_run(monkeypatch, second, calls)
        results = first.run_batch([0, 1, 2], n_tx=2, floods=[first, second, first])
        assert calls == [(first, 0), (second, 1), (first, 2)]
        assert [result.initiator for result in results] == [0, 1, 2]

    def test_round_floods_reach_a_shadowed_run(self, monkeypatch):
        topology = random_topology(20, seed=3)
        simulator = NetworkSimulator(
            topology,
            SimulatorConfig(round_period_s=1.0, channel_hopping=False, engine="scalar", seed=7),
            sources=topology.node_ids[:4],
        )
        calls = []
        self.spy_on_run(monkeypatch, simulator.engine.flood, calls)
        result = simulator.run_round(n_tx=3)
        # The control flood and every data slot.
        assert len(calls) == 1 + len(result.slot_floods) == 5


class TestFailureMatrixCache:
    def test_failure_matrix_invalidated_by_churn(self):
        """The cached ``1 - PRR`` matrix the batched kernel multiplies is
        rebuilt after node churn, not served stale."""
        topology = random_topology(12, seed=2)
        link = LinkModel(topology, seed=1)
        link.prr_matrix()
        before = link._failure_matrix
        a, b = np.argwhere(np.triu(before < 1.0, k=1))[0]
        link.set_link_quality(topology.node_ids[a], topology.node_ids[b], 0.0)
        link.prr_matrix()
        after = link._failure_matrix
        assert after is not before
        assert after[a, b] == after[b, a] == 1.0
        assert np.array_equal(after, 1.0 - link.prr_matrix())


class TestEngineNames:
    @pytest.mark.parametrize(
        "entry_point",
        [
            lambda: SimulatorConfig(engine="vectorized-log"),
            lambda: GlossyFlood(random_topology(5, seed=1), engine="vectorized-log"),
            lambda: bench.main(["scenarios", "--engine", "vectorized-log"]),
        ],
        ids=["SimulatorConfig", "GlossyFlood", "repro-bench"],
    )
    def test_retired_log_engine_rejected(self, entry_point):
        assert FLOOD_ENGINES == ("scalar", "vectorized")
        with pytest.raises((ValueError, SystemExit)) as rejected:
            entry_point()
        if rejected.type is SystemExit:
            assert rejected.value.code == 2  # argparse usage error


class TestKernelBranchCoverage:
    """Both exact-kernel variants must be bit-identical to one-flood
    ``run`` calls in sequence — including the streaming-accumulator
    branch, which only engages naturally at production sizes."""

    def test_streaming_branch_forced_parity(self, monkeypatch):
        """Force the streaming accumulator (and tiny chunks for the
        gather+reduce residue) on a small jammed workload."""
        import repro.net.glossy as glossy_module

        monkeypatch.setattr(glossy_module, "KERNEL_STREAM_MIN_ROW", 1)
        monkeypatch.setattr(glossy_module, "KERNEL_CHUNK_ELEMENTS", 64)
        topology = random_topology(40, seed=5)
        for gray_links in (False, True):
            assert_batch_equals_sequential(
                topology,
                list(topology.node_ids[:12]),
                gray_links=gray_links,
                interference=jamming_interference(topology, 0.25),
            )

    def test_streaming_branch_natural_parity_at_scale(self):
        """A 120-node, 40-flood workload crosses KERNEL_STREAM_MIN_ROW
        on its own (floods x listeners >= 3072), exercising the branch
        the 200-500-node round paths take in production."""
        import repro.net.glossy as glossy_module

        topology = random_topology(120, seed=9)
        interference = jamming_interference(topology, 0.2)
        initiators = list(topology.node_ids[:40])
        streaming_min = glossy_module.KERNEL_STREAM_MIN_ROW

        spy_hits = []
        original_kernel = glossy_module.GlossyFlood._phase_success_batched

        def spy(self, transmit, tx_counts, active, columns, *args, **kwargs):
            counts = tx_counts[active]
            num_multi = int((counts >= 2).sum())
            if num_multi * len(columns) >= streaming_min:
                spy_hits.append(True)
            return original_kernel(
                self, transmit, tx_counts, active, columns, *args, **kwargs
            )

        glossy_module.GlossyFlood._phase_success_batched = spy
        try:
            batched = run_batch_under(
                make_flood(topology), initiators, n_tx=3, interference=interference
            )
        finally:
            glossy_module.GlossyFlood._phase_success_batched = original_kernel
        assert spy_hits, "workload never crossed the streaming threshold"
        sequential = run_sequential_under(
            make_flood(topology), initiators, n_tx=3, interference=interference
        )
        assert_results_identical(batched, sequential)
