"""Tests for the experiment harnesses (scaled-down versions of each figure)."""

import pytest

from repro.api import Session
from repro.experiments.dcube import AperiodicTraffic
from repro.experiments.dynamic import run_dynamic_experiment
from repro.experiments.forwarder import run_forwarder_selection_experiment
from repro.experiments.metrics import ExperimentMetrics, TimeSeries, summarize_rounds
from repro.experiments.reporting import format_table
from repro.experiments.runner import build_topology
from repro.experiments.scenarios import (
    DynamicInterferenceScenario,
    dcube_wifi_interference,
    jamming_interference,
    paper_dynamic_scenario,
)
from repro.net.topology import dcube_testbed, kiel_testbed
from repro.rl.qnetwork import QNetwork

from reference_interference import is_active


@pytest.fixture(scope="module")
def network():
    return QNetwork((31, 30, 3), seed=0)


#: A six-node grid, as the topology spec the Session drivers take.
SMALL_GRID_SPEC = {
    "kind": "grid", "rows": 2, "cols": 3, "spacing_m": 6.0, "comm_range_m": 9.0, "name": "tiny",
}


@pytest.fixture(scope="module")
def small_grid():
    return build_topology(SMALL_GRID_SPEC)


class TestMetrics:
    def test_summarize_rounds(self):
        metrics = summarize_rounds([1.0, 0.5], [10.0, 20.0], energy_j=3.0)
        assert metrics.reliability == pytest.approx(0.75)
        assert metrics.radio_on_ms == pytest.approx(15.0)
        assert metrics.energy_j == pytest.approx(3.0)
        assert metrics.rounds == 2

    def test_summarize_empty(self):
        metrics = summarize_rounds([], [])
        assert metrics.reliability == 1.0
        assert metrics.rounds == 0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            summarize_rounds([1.0], [1.0, 2.0])

    def test_timeseries_window_average(self):
        series = TimeSeries(label="x")
        for t, v in ((0.0, 1.0), (10.0, 2.0), (20.0, 3.0)):
            series.append(t, v)
        assert series.window_average(5.0, 25.0) == pytest.approx(2.5)
        assert series.mean() == pytest.approx(2.0)
        assert len(series) == 3

    def test_metrics_as_dict(self):
        metrics = ExperimentMetrics(0.9, 0.01, 10.0, 0.5, 1.0, 5)
        assert metrics.as_dict()["reliability"] == pytest.approx(0.9)


class TestReporting:
    def test_format_table(self):
        text = format_table(["a", "b"], [[1, 2.5], ["x", 3]], title="T")
        assert "T" in text and "2.500" in text and "x" in text


class TestScenarios:
    def test_paper_dynamic_scenario_structure(self, kiel):
        scenario = paper_dynamic_scenario(kiel)
        assert scenario.total_duration_s == pytest.approx(27 * 60)
        assert scenario.ratio_at(0.0) == 0.0
        assert scenario.ratio_at(8 * 60) == pytest.approx(0.30)
        assert scenario.ratio_at(18 * 60) == pytest.approx(0.05)
        assert scenario.num_rounds(4.0) == 27 * 15

    def test_time_scale_compresses(self, kiel):
        scenario = paper_dynamic_scenario(kiel, time_scale=0.1)
        assert scenario.total_duration_s == pytest.approx(2.7 * 60)

    def test_invalid_scenarios_rejected(self, kiel):
        with pytest.raises(ValueError):
            DynamicInterferenceScenario(topology=kiel, segments=())
        with pytest.raises(ValueError):
            DynamicInterferenceScenario(topology=kiel, segments=((0.0, 0.1),))
        with pytest.raises(ValueError):
            paper_dynamic_scenario(kiel, time_scale=0.0)

    def test_jamming_interference_levels(self, kiel):
        clean = jamming_interference(kiel, 0.0, ambient_rate=0.0)
        jammed = jamming_interference(kiel, 0.3)
        assert not is_active(clean, 0.0)
        assert is_active(jammed, 0.0)

    def test_dcube_interference_levels(self):
        topo = dcube_testbed()
        assert not is_active(dcube_wifi_interference(topo, 0), 0.0)
        assert is_active(dcube_wifi_interference(topo, 2), 0.0)


class TestDynamicExperiment:
    def test_dimmer_requires_network(self, small_grid):
        with pytest.raises(ValueError):
            run_dynamic_experiment("dimmer", topology=small_grid, time_scale=0.02)

    def test_unknown_protocol_rejected(self, small_grid):
        with pytest.raises(ValueError):
            run_dynamic_experiment("foo", topology=small_grid, time_scale=0.02)

    def test_small_run_produces_series(self, network, small_grid):
        result = run_dynamic_experiment(
            "dimmer", network=network, topology=small_grid, time_scale=0.03, seed=1
        )
        assert len(result.reliability) > 0
        assert len(result.n_tx) == len(result.reliability)
        assert 0.0 <= result.metrics.reliability <= 1.0

    def test_session_comparison_equals_single_runs(self, network, small_grid):
        comparison = Session(max_workers=1).dynamic_comparison(
            network, topology_spec=SMALL_GRID_SPEC, time_scale=0.03, seed=1
        )
        for run, direct in (
            (comparison.dimmer, run_dynamic_experiment(
                "dimmer", network=network, topology=small_grid, time_scale=0.03, seed=1
            )),
            (comparison.pid, run_dynamic_experiment(
                "pid", topology=small_grid, time_scale=0.03, seed=1
            )),
        ):
            assert run.protocol == direct.protocol
            assert run.metrics.as_dict() == direct.metrics.as_dict()
            assert list(run.n_tx.values) == list(direct.n_tx.values)
            assert list(run.reliability.times_s) == list(direct.reliability.times_s)
        assert comparison.radio_on_advantage_ms == (
            comparison.pid.metrics.radio_on_ms - comparison.dimmer.metrics.radio_on_ms
        )


class TestInterferenceSweep:
    def test_small_sweep_structure(self, network):
        result = Session(max_workers=1).sweep(
            network=network,
            ratios=(0.0, 0.3),
            protocols=("lwb", "dimmer"),
            topology_spec=SMALL_GRID_SPEC,
            rounds_per_run=4,
            runs=1,
            seed=0,
        )
        assert set(result.protocols()) == {"lwb", "dimmer"}
        assert result.ratios() == [0.0, 0.3]
        assert len(result.series("lwb", "reliability")) == 2
        point = result.point("lwb", 0.0)
        assert 0.0 <= point.metrics.reliability <= 1.0
        with pytest.raises(KeyError):
            result.point("lwb", 0.9)


class TestForwarderExperiment:
    def test_small_forwarder_run(self, network):
        result = run_forwarder_selection_experiment(
            network=network,
            topology=kiel_testbed(),
            num_rounds=20,
            learning_rounds_per_node=2,
            seed=0,
        )
        assert len(result.forwarders) == 20
        assert result.metrics.rounds == 20
        assert result.baseline_metrics.rounds == 20
        assert result.final_forwarders <= 18


class TestDCubeExperiment:
    def test_aperiodic_traffic_generates_packets(self):
        traffic = AperiodicTraffic(sources=[1, 2, 3], seed=0)
        arrivals = [traffic.arrivals(i) for i in range(30)]
        assert sum(len(a) for a in arrivals) > 0

    def test_invalid_traffic_rejected(self):
        with pytest.raises(ValueError):
            AperiodicTraffic(sources=[])
        with pytest.raises(ValueError):
            AperiodicTraffic(sources=[1], min_gap_rounds=0)

    def test_small_dcube_comparison(self, network):
        comparison = Session(max_workers=1).dcube(
            network=network,
            levels=(0,),
            protocols=("lwb", "dimmer", "crystal"),
            topology_spec=SMALL_GRID_SPEC,
            num_rounds=12,
            num_sources=2,
            seed=0,
        )
        for protocol in ("lwb", "dimmer", "crystal"):
            result = comparison.get(protocol, 0)
            assert 0.0 <= result.reliability <= 1.0
            assert result.energy_j > 0.0
        assert comparison.levels() == [0]
        with pytest.raises(KeyError):
            comparison.get("lwb", 2)
