"""Tests for the link model."""

import numpy as np
import pytest

from repro.net.link import LinkModel
from repro.net.topology import dcube_testbed, grid_topology, kiel_testbed, random_topology


@pytest.fixture()
def link_model(kiel):
    return LinkModel(kiel, seed=0)


class TestLinkQuality:
    def test_short_links_are_strong(self, link_model, kiel):
        neighbor = kiel.neighbors(0)[0]
        assert link_model.prr(0, neighbor) > 0.9

    def test_out_of_range_links_are_dead(self, link_model, kiel):
        # Find a pair beyond communication range.
        for a in kiel.node_ids:
            for b in kiel.node_ids:
                if a != b and kiel.distance(a, b) > kiel.comm_range_m:
                    assert link_model.prr(a, b) == 0.0
                    return
        pytest.skip("topology has no out-of-range pair")

    def test_prr_bounded(self, link_model, kiel):
        for a in kiel.node_ids[:5]:
            for b in kiel.node_ids[:5]:
                if a != b:
                    assert 0.0 <= link_model.prr(a, b) <= 1.0

    def test_link_quality_cached(self, link_model):
        first = link_model.link(0, 1)
        second = link_model.link(0, 1)
        assert first is second

    def test_shadowing_symmetric(self, kiel):
        model = LinkModel(kiel, seed=3)
        assert model.rssi_dbm(1, 2) == pytest.approx(model.rssi_dbm(2, 1))

    def test_shadowing_reproducible(self, kiel):
        a = LinkModel(kiel, seed=5)
        b = LinkModel(kiel, seed=5)
        assert a.prr(0, 1) == pytest.approx(b.prr(0, 1))

    def test_prr_decreases_with_distance(self):
        topo = grid_topology(1, 5, spacing_m=2.5, comm_range_m=10.0)
        model = LinkModel(topo, shadowing_std_db=0.0)
        assert model.prr(0, 1) >= model.prr(0, 3)


class TestReceptionProbability:
    def test_no_transmitters_means_no_reception(self, link_model):
        assert link_model.reception_probability([], 0) == 0.0

    def test_more_transmitters_never_hurt(self, link_model, kiel):
        neighbors = kiel.neighbors(0)[:3]
        single = link_model.reception_probability(neighbors[:1], 0)
        multiple = link_model.reception_probability(neighbors, 0)
        assert multiple >= single

    def test_interference_penalty_reduces_probability(self, link_model, kiel):
        neighbors = kiel.neighbors(0)[:2]
        clean = link_model.reception_probability(neighbors, 0, interference_penalty=0.0)
        jammed = link_model.reception_probability(neighbors, 0, interference_penalty=0.9)
        assert jammed < clean

    def test_full_penalty_blocks_reception(self, link_model, kiel):
        neighbors = kiel.neighbors(0)[:2]
        assert link_model.reception_probability(neighbors, 0, interference_penalty=1.0) == 0.0

    def test_invalid_penalty_rejected(self, link_model):
        with pytest.raises(ValueError):
            link_model.reception_probability([1], 0, interference_penalty=1.5)

    def test_probability_bounded(self, link_model, kiel):
        probability = link_model.reception_probability(kiel.neighbors(0), 0)
        assert 0.0 <= probability <= 1.0

    def test_usable_links_only_above_threshold(self, link_model):
        links = link_model.usable_links(min_prr=0.5)
        assert links
        assert all(quality.prr >= 0.5 for quality in links.values())


class TestPrrMatrix:
    """Property tests: the matrix APIs match the per-pair scalar path."""

    @pytest.mark.parametrize(
        "topology",
        [
            kiel_testbed(),
            dcube_testbed(),
            grid_topology(rows=3, cols=4, spacing_m=5.0, comm_range_m=9.0),
            random_topology(25, seed=9),
        ],
        ids=["kiel", "dcube", "grid", "random"],
    )
    def test_matrix_matches_per_pair_prr(self, topology):
        """Exact equality, before and after ``set_link_quality`` overrides:
        the scalar flood engine reads the matrix where the per-node
        reference loop calls :meth:`LinkModel.prr`, and the two must
        agree bit for bit."""
        model = LinkModel(topology, seed=2)
        ids = topology.node_ids
        rng = np.random.default_rng(5)
        for overridden in (False, True):
            if overridden:
                for a, b in rng.choice(ids, size=(len(ids), 2)):
                    if a != b:
                        model.set_link_quality(int(a), int(b), float(rng.uniform(0.05, 0.95)))
            matrix = model.prr_matrix()
            assert matrix.shape == (len(ids), len(ids))
            for i, a in enumerate(ids):
                for j, b in enumerate(ids):
                    if a == b:
                        assert matrix[i, j] == 0.0
                    else:
                        assert matrix[i, j] == model.prr(a, b), (overridden, a, b)

    def test_matrix_is_cached_and_read_only(self, kiel):
        model = LinkModel(kiel, seed=0)
        first = model.prr_matrix()
        assert model.prr_matrix() is first
        with pytest.raises(ValueError):
            first[0, 1] = 0.5

    def test_node_index_follows_sorted_ids(self, kiel):
        model = LinkModel(kiel, seed=0)
        assert [node for node, _ in sorted(model.node_index.items(), key=lambda kv: kv[1])] == kiel.node_ids

    @pytest.mark.parametrize("tx_count", [1, 2, 3, 6])
    def test_reception_probabilities_match_scalar(self, kiel, tx_count):
        model = LinkModel(kiel, seed=4)
        ids = kiel.node_ids
        mask = np.zeros(len(ids), dtype=bool)
        transmitters = ids[:tx_count]
        mask[[model.node_index[t] for t in transmitters]] = True
        vector = model.reception_probabilities(mask)
        for i, receiver in enumerate(ids):
            assert vector[i] == pytest.approx(
                model.reception_probability(transmitters, receiver), abs=1e-12
            )

    def test_reception_probabilities_with_interference_penalties(self, kiel):
        model = LinkModel(kiel, seed=4)
        ids = kiel.node_ids
        mask = np.zeros(len(ids), dtype=bool)
        transmitters = [ids[0], ids[5]]
        mask[[model.node_index[t] for t in transmitters]] = True
        penalties = np.linspace(0.0, 1.0, len(ids))
        vector = model.reception_probabilities(mask, penalties)
        for i, receiver in enumerate(ids):
            expected = model.reception_probability(
                transmitters, receiver, interference_penalty=float(penalties[i])
            )
            assert vector[i] == pytest.approx(expected, abs=1e-12)

    def test_no_transmitters_yield_zero_probabilities(self, kiel):
        model = LinkModel(kiel, seed=4)
        vector = model.reception_probabilities(np.zeros(kiel.num_nodes, dtype=bool))
        assert (vector == 0.0).all()

    def test_invalid_penalties_rejected(self, kiel):
        model = LinkModel(kiel, seed=4)
        mask = np.zeros(kiel.num_nodes, dtype=bool)
        mask[0] = True
        with pytest.raises(ValueError):
            model.reception_probabilities(mask, np.full(kiel.num_nodes, 1.5))

    def test_wrong_mask_shape_rejected(self, kiel):
        model = LinkModel(kiel, seed=4)
        with pytest.raises(ValueError):
            model.reception_probabilities(np.zeros(3, dtype=bool))


class TestLinkQualityMutation:
    """Mutating link qualities must invalidate the cached PRR matrix."""

    def test_override_changes_link_and_matrix(self, kiel):
        model = LinkModel(kiel, seed=0)
        a, b = kiel.node_ids[0], kiel.node_ids[1]
        before = model.prr_matrix()[model.node_index[a], model.node_index[b]]
        assert before > 0.0
        model.set_link_quality(a, b, 0.25)
        assert model.prr(a, b) == pytest.approx(0.25)
        assert model.prr(b, a) == pytest.approx(0.25)  # symmetric by default
        matrix = model.prr_matrix()
        assert matrix[model.node_index[a], model.node_index[b]] == pytest.approx(0.25)
        assert matrix[model.node_index[b], model.node_index[a]] == pytest.approx(0.25)

    def test_asymmetric_override(self, kiel):
        model = LinkModel(kiel, seed=0)
        a, b = kiel.node_ids[0], kiel.node_ids[1]
        reverse_before = model.prr(b, a)
        model.set_link_quality(a, b, 0.1, symmetric=False)
        assert model.prr(a, b) == pytest.approx(0.1)
        assert model.prr(b, a) == pytest.approx(reverse_before)

    def test_clear_overrides_restores_original(self, kiel):
        model = LinkModel(kiel, seed=0)
        a, b = kiel.node_ids[0], kiel.node_ids[1]
        original = model.prr(a, b)
        original_matrix = model.prr_matrix().copy()
        model.set_link_quality(a, b, 0.0)
        model.clear_link_quality_overrides()
        assert model.prr(a, b) == pytest.approx(original)
        assert np.array_equal(model.prr_matrix(), original_matrix)

    def test_invalid_overrides_rejected(self, kiel):
        model = LinkModel(kiel, seed=0)
        a, b = kiel.node_ids[0], kiel.node_ids[1]
        with pytest.raises(ValueError):
            model.set_link_quality(a, b, 1.5)
        with pytest.raises(ValueError):
            model.set_link_quality(a, a, 0.5)
        with pytest.raises(ValueError):
            model.set_link_quality(a, 999999, 0.5)

    @pytest.mark.parametrize("engine", ["scalar", "vectorized"])
    def test_mutation_then_reflood_uses_new_qualities(self, engine):
        """Regression: node churn mutating links mid-run must reach both
        engines on the next flood, not serve a stale cached matrix."""
        from repro.net.glossy import GlossyFlood

        topology = grid_topology(rows=1, cols=3, spacing_m=4.0, comm_range_m=6.0)
        model = LinkModel(topology, seed=1)
        flood = GlossyFlood(
            topology, model, rng=np.random.default_rng(0), engine=engine
        )
        healthy = flood.run(initiator=0, n_tx=3)
        assert healthy.reliability > 0.0
        # Sever every link of the initiator: the flood cannot leave node 0.
        for other in topology.node_ids:
            if other != 0:
                model.set_link_quality(0, other, 0.0)
        severed = flood.run(initiator=0, n_tx=3)
        assert severed.reliability == 0.0
