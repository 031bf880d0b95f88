"""Tests for the link model."""

import numpy as np
import pytest

from repro.net.link import LinkModel
from repro.net.topology import dcube_testbed, grid_topology, kiel_testbed, random_topology

from reference_flood import PerPairPRR


@pytest.fixture()
def link_model(kiel):
    return LinkModel(kiel, seed=0)


def prr(model, sender, receiver):
    """The :meth:`LinkModel.prr_matrix` entry of the link sender -> receiver."""
    index = model.node_index
    return model.prr_matrix()[index[sender], index[receiver]]


class TestLinkQuality:
    def test_short_links_are_strong(self, link_model, kiel):
        neighbor = kiel.neighbors(0)[0]
        assert prr(link_model, 0, neighbor) > 0.9

    def test_out_of_range_links_are_dead(self, link_model, kiel):
        # Find a pair beyond communication range.
        for a in kiel.node_ids:
            for b in kiel.node_ids:
                if a != b and kiel.distance(a, b) > kiel.comm_range_m:
                    assert prr(link_model, a, b) == 0.0
                    return
        pytest.skip("topology has no out-of-range pair")

    def test_prr_bounded(self, link_model):
        matrix = link_model.prr_matrix()
        assert ((matrix >= 0.0) & (matrix <= 1.0)).all()

    def test_shadowing_symmetric(self, kiel):
        matrix = LinkModel(kiel, seed=3).prr_matrix()
        assert np.array_equal(matrix, matrix.T)

    def test_shadowing_reproducible(self, kiel):
        a = LinkModel(kiel, seed=5)
        b = LinkModel(kiel, seed=5)
        assert np.array_equal(a.prr_matrix(), b.prr_matrix())

    def test_prr_decreases_with_distance(self):
        topo = grid_topology(1, 5, spacing_m=2.5, comm_range_m=10.0)
        model = LinkModel(topo, shadowing_std_db=0.0)
        assert prr(model, 0, 1) >= prr(model, 0, 3)


class TestReferenceReceptionProbability:
    """The per-node reference's combination of synchronized transmitters."""

    @pytest.fixture()
    def reference(self, link_model):
        return PerPairPRR(link_model)

    def test_no_transmitters_means_no_reception(self, reference):
        assert reference.reception_probability([], 0) == 0.0

    def test_more_transmitters_never_hurt(self, reference, kiel):
        neighbors = kiel.neighbors(0)[:3]
        single = reference.reception_probability(neighbors[:1], 0)
        multiple = reference.reception_probability(neighbors, 0)
        assert multiple >= single

    def test_interference_penalty_reduces_probability(self, reference, kiel):
        neighbors = kiel.neighbors(0)[:2]
        clean = reference.reception_probability(neighbors, 0, interference_penalty=0.0)
        jammed = reference.reception_probability(neighbors, 0, interference_penalty=0.9)
        assert jammed < clean

    def test_full_penalty_blocks_reception(self, reference, kiel):
        neighbors = kiel.neighbors(0)[:2]
        assert reference.reception_probability(neighbors, 0, interference_penalty=1.0) == 0.0

    def test_invalid_penalty_rejected(self, reference):
        with pytest.raises(ValueError):
            reference.reception_probability([1], 0, interference_penalty=1.5)

    def test_probability_bounded(self, reference, kiel):
        probability = reference.reception_probability(kiel.neighbors(0), 0)
        assert 0.0 <= probability <= 1.0

    def test_shadowing_symmetric(self, kiel):
        reference = PerPairPRR(LinkModel(kiel, seed=3))
        assert reference.rssi_dbm(1, 2) == reference.rssi_dbm(2, 1)


class TestPrrMatrix:
    """Property tests of the PRR matrix, against the per-pair reference."""

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
        reference loop reads :meth:`PerPairPRR.prr`, and the two must
        agree bit for bit.  One reference serves both passes, so its
        memo must follow the overrides."""
        model = LinkModel(topology, seed=2)
        reference = PerPairPRR(model)
        ids = topology.node_ids
        rng = np.random.default_rng(5)
        for overridden in (False, True):
            if overridden:
                for a, b in rng.choice(ids, size=(len(ids), 2)):
                    if a != b:
                        model.set_link_quality(int(a), int(b), float(rng.uniform(0.05, 0.95)))
            reference.sync()
            matrix = model.prr_matrix()
            assert matrix.shape == (len(ids), len(ids))
            for i, a in enumerate(ids):
                for j, b in enumerate(ids):
                    if a == b:
                        assert matrix[i, j] == 0.0
                    else:
                        assert matrix[i, j] == reference.prr(a, b), (overridden, a, b)

    def test_matrix_is_cached_and_read_only(self, kiel):
        model = LinkModel(kiel, seed=0)
        first = model.prr_matrix()
        assert model.prr_matrix() is first
        with pytest.raises(ValueError):
            first[0, 1] = 0.5

    def test_node_index_follows_sorted_ids(self, kiel):
        model = LinkModel(kiel, seed=0)
        assert [node for node, _ in sorted(model.node_index.items(), key=lambda kv: kv[1])] == kiel.node_ids


class TestLinkQualityMutation:
    """Mutating link qualities must invalidate the cached PRR matrix."""

    def test_override_changes_link_and_matrix(self, kiel):
        model = LinkModel(kiel, seed=0)
        a, b = kiel.node_ids[0], kiel.node_ids[1]
        assert prr(model, a, b) > 0.0
        model.set_link_quality(a, b, 0.25)
        assert prr(model, a, b) == pytest.approx(0.25)
        assert prr(model, b, a) == pytest.approx(0.25)  # symmetric by default

    def test_asymmetric_override(self, kiel):
        model = LinkModel(kiel, seed=0)
        a, b = kiel.node_ids[0], kiel.node_ids[1]
        reverse_before = prr(model, b, a)
        model.set_link_quality(a, b, 0.1, symmetric=False)
        assert prr(model, a, b) == pytest.approx(0.1)
        assert prr(model, b, a) == reverse_before

    def test_clear_overrides_restores_original(self, kiel):
        """Clearing restores the base qualities bit for bit; clearing
        one link's override keeps every other override in place."""
        model = LinkModel(kiel, seed=0)
        a, b, c = kiel.node_ids[:3]
        original = model.prr_matrix().copy()
        model.set_link_quality(a, b, 0.0)
        model.set_link_quality(a, c, 0.5)
        model.clear_link_quality_override(a, b)
        expected = original.copy()
        expected[model.node_index[a], model.node_index[c]] = 0.5
        expected[model.node_index[c], model.node_index[a]] = 0.5
        assert np.array_equal(model.prr_matrix(), expected)
        model.clear_link_quality_override(a, c)
        assert np.array_equal(model.prr_matrix(), original)

    def test_clear_one_direction_only(self, kiel):
        model = LinkModel(kiel, seed=0)
        a, b = kiel.node_ids[0], kiel.node_ids[1]
        original = prr(model, a, b)
        model.set_link_quality(a, b, 0.3)
        model.clear_link_quality_override(a, b, symmetric=False)
        assert prr(model, a, b) == original
        assert prr(model, b, a) == 0.3

    def test_clearing_nothing_keeps_the_cached_matrix(self, kiel):
        """Missing overrides are ignored without dropping the cache."""
        model = LinkModel(kiel, seed=0)
        a, b = kiel.node_ids[0], kiel.node_ids[1]
        matrix = model.prr_matrix()
        model.clear_link_quality_override(a, b)
        assert model.prr_matrix() is matrix

    def test_invalidate_caches_rebuilds_equal_matrices(self, kiel):
        model = LinkModel(kiel, seed=0)
        matrix = model.prr_matrix()
        model.invalidate_caches()
        rebuilt = model.prr_matrix()
        assert rebuilt is not matrix
        assert np.array_equal(rebuilt, matrix)
        assert np.array_equal(model._failure_matrix, 1.0 - rebuilt)

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
