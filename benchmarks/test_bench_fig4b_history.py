"""Fig. 4b(ii) — history size M.

Trains one model per history size on the shared trace set and evaluates
reliability and DQN size, reproducing the shape of Fig. 4b(ii): adding
historical features helps distinguish transient from persistent
interference; beyond a couple of entries the benefit saturates.
"""

from figure_helpers import benchmark_session

from repro.experiments.reporting import format_table
from repro.experiments.training import TrainingProfile

#: Reduced sweep (paper: none to 5).
M_VALUES = (0, 2, 4)

BENCH_PROFILE = TrainingProfile(
    name="bench", trace_repetitions=3, training_iterations=4000, anneal_steps=2000
)


def test_fig4b_history_size(benchmark, fig4b_data_dir):
    # One FeatureSweepSpec worker task per M value (see the K sweep).
    result = benchmark.pedantic(
        benchmark_session().feature_sweep,
        args=("history",),
        kwargs={
            "values": M_VALUES,
            "models_per_value": 1,
            "profile": BENCH_PROFILE,
            "evaluation_repeats": 1,
            "data_dir": fig4b_data_dir,
            "seed": 0,
        },
        rounds=1,
        iterations=1,
    )
    rows = [
        [p.value, p.reliability, p.radio_on_ms, p.dqn_size_kb]
        for p in result.points
    ]
    print()
    print(format_table(
        ["M (history)", "reliability", "radio-on [ms]", "DQN size [kB]"],
        rows,
        title="Fig. 4b(ii): history-size sweep",
    ))
    sizes = [p.dqn_size_kb for p in result.points]
    assert sizes == sorted(sizes)
    assert all(p.reliability > 0.9 for p in result.points)
