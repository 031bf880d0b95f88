"""Fig. 4b(i) — number of DQN input nodes K.

Trains one model per K value on the shared trace set, evaluates it on
mixed-interference episodes, and prints radio-on time, reliability and
DQN flash size per K — the two panels of Fig. 4b(i).

The paper trains 3 models per value for 200 000 iterations each; this
scaled-down harness trains 1 model per value for a few thousand
iterations, which is enough to reproduce the qualitative shape (tiny K
leads to conservative, energy-hungry policies; K around 10 minimizes
radio-on time at a small network size).
"""

from figure_helpers import benchmark_session

from repro.experiments.reporting import format_table
from repro.experiments.training import TrainingProfile

#: Reduced sweep (paper: 1, 5, 10, 15, all 18).
K_VALUES = (1, 5, 10, 18)

BENCH_PROFILE = TrainingProfile(
    name="bench", trace_repetitions=3, training_iterations=4000, anneal_steps=2000
)


def test_fig4b_input_nodes(benchmark, fig4b_data_dir):
    # One FeatureSweepSpec training+evaluation worker task per K value,
    # fanned out by the session (per-model seeds depend only on the
    # sweep seed, never on the worker count).
    result = benchmark.pedantic(
        benchmark_session().feature_sweep,
        args=("input_nodes",),
        kwargs={
            "values": K_VALUES,
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
        [p.value, p.radio_on_ms, p.reliability, p.dqn_size_kb]
        for p in result.points
    ]
    print()
    print(format_table(
        ["K (input nodes)", "radio-on [ms]", "reliability", "DQN size [kB]"],
        rows,
        title="Fig. 4b(i): input-node sweep",
    ))
    # DQN size grows with K.
    sizes = [p.dqn_size_kb for p in result.points]
    assert sizes == sorted(sizes)
    # Every configuration stays reasonably reliable.
    assert all(p.reliability > 0.9 for p in result.points)
