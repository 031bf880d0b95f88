"""Self-tests of the benchmark's own arithmetic and checks.

Run from the root of a checkout::

    python3 perfbench/selftest.py

* self-time arithmetic on a synthetic span tree with both nesting cases
  (one group nested in itself is recorded once; different groups nest
  and subtract), and the job accounting identity, including a tree that
  breaks it;
* the output check: a real ``kiel_sweep`` shard matches its stored
  reference digest, and the same shard with one float perturbed by one
  unit in the last place is counted as failed.
"""

from __future__ import annotations

import sys
import unittest

import bootstrap

bootstrap.pin_environment()

import numpy as np  # noqa: E402

import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _table(spans, counters=None):
    """Span table from (name, start, end, parent) tuples."""
    return {
        "names": [s[0] for s in spans],
        "starts": [s[1] for s in spans],
        "ends": [s[2] for s in spans],
        "parents": [s[3] for s in spans],
        "counters": counters or {},
    }


class SelfTimeTest(unittest.TestCase):
    def test_same_group_counts_at_the_outermost_level_only(self):
        tracer = tracing.Tracer()

        class Source:
            def penalty_windows(self):
                return 1

        class Composite:
            def __init__(self):
                self.sources = [Source(), Source()]

            def penalty_windows(self):
                return sum(source.penalty_windows() for source in self.sources)

        for cls in (Source, Composite):
            cls.penalty_windows = tracing._span_wrapper(
                tracer, cls.penalty_windows, tracing.INTERFERENCE_SPAN, "interference", None)
        self.assertEqual(Composite().penalty_windows(), 2)
        self.assertEqual(Source().penalty_windows(), 1)
        self.assertEqual(tracer.names, [tracing.INTERFERENCE_SPAN] * 2)
        self.assertEqual(tracer.parents, [-1, -1])

    def test_nested_layers_subtract_their_children(self):
        # protocol round -> simulator round -> LWB round -> two floods
        table = _table([
            ("runner.shard", 0.0, 10.0, -1),
            ("core.run_round", 1.0, 9.0, 0),
            ("simulator.run_round", 2.0, 8.0, 1),
            ("lwb.run_round", 2.5, 7.5, 2),
            ("glossy.run", 3.0, 4.0, 3),
            ("glossy.run_batch", 4.0, 6.5, 3),
        ])
        self.assertEqual(tracing.self_times(table), [2.0, 2.0, 1.0, 1.5, 1.0, 2.5])
        self.assertAlmostEqual(sum(tracing.self_times(table)), 10.0)

    def test_job_accounting_adds_up_to_the_wall_time(self):
        client = _table([
            ("job", 0.0, 10.0, -1),
            ("api.session", 0.5, 9.5, 0),
            ("runner.run", 1.0, 9.0, 1),
        ])
        shards = [
            _table([("runner.shard", 0.0, 6.0, -1),
                    ("interference.penalty_windows", 1.0, 2.0, 0),
                    ("glossy.run_batch", 2.0, 5.0, 0)]),
            _table([("runner.shard", 0.0, 4.0, -1),
                    ("glossy.run", 0.5, 3.5, 0)], {"runner.retries": 1}),
        ]
        acc = tracing.account(tracing.JobTrace(client=client, shards=[(2, 2, shards)]))
        self.assertAlmostEqual(acc.wall_s, 10.0)
        # job root self 1.0 plus the shard roots' self (2 + 1) over 2 workers
        self.assertAlmostEqual(acc.unattributed_s, 2.5)
        # runner.run: 8 s wall minus 10 shard-seconds over 2 workers
        self.assertAlmostEqual(acc.layers["runner.run"], 3.0)
        self.assertAlmostEqual(acc.layers["api.session"], 1.0)
        self.assertAlmostEqual(acc.layers["glossy.run_batch"], 1.5)
        self.assertAlmostEqual(acc.busy["glossy.run_batch"][0], 3.0)
        self.assertAlmostEqual(acc.error_s, 0.0)
        self.assertAlmostEqual(acc.busy_share, 10.0 / 16.0)
        self.assertEqual(acc.counters["runner.retries"], 1)
        self.assertEqual(sorted(acc.shard_s), [4.0, 6.0])

    def test_a_child_escaping_its_parent_breaks_the_identity(self):
        client = _table([
            ("job", 0.0, 10.0, -1),
            ("api.session", 1.0, 9.0, 0),
            ("rl.train_batch", 8.0, 9.5, 1),  # ends after its parent
        ])
        with self.assertRaises(ValueError):
            tracing.account(tracing.JobTrace(client=client))

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        self.assertEqual(tracing.tail_percentile(144), 90.0)
        self.assertEqual(tracing.tail_percentile(1000), 99.0)
        self.assertEqual(tracing.tail_percentile(9), 50.0)
        self.assertAlmostEqual(tracing.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 75.0), 4.0)


class OutputCheckTest(unittest.TestCase):
    def test_a_perturbed_shard_is_counted_as_failed(self):
        from repro.experiments.runner import EXPERIMENTS

        _, payload = bootstrap.setup()
        expected = check.reference_for("kiel_sweep", check.DEFAULT_SEED)
        self.assertIsNotNone(expected, "no stored reference for kiel_sweep")
        spec = workloads.kiel_specs(payload, check.DEFAULT_SEED)[2]  # lwb at ratio 0.10
        result = EXPERIMENTS[spec.experiment](seed=spec.seed, **spec.params())
        shard = spec.parse(result)
        digests = list(expected)
        digests[2] = check.digest(shard)
        self.assertEqual(check.mismatches(digests, expected), [])

        perturbed = spec.parse(
            dict(result, reliability=float(np.nextafter(result["reliability"], 2.0))))
        digests[2] = check.digest(perturbed)
        self.assertEqual(check.mismatches(digests, expected), [2])
        digests[2] = None  # a failed shard
        self.assertEqual(check.mismatches(digests, expected), [2])


if __name__ == "__main__":
    sys.exit(not unittest.main(verbosity=2, exit=False).result.wasSuccessful())
