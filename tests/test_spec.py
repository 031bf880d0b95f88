"""Tests for the declarative spec layer and the :class:`Session` facade.

Four contracts:

* **JSON round trip** — for every registered family,
  ``from_payload(to_payload(s)) == s``, unknown fields are rejected and
  grid expansion is deterministic.
* **Cache-key stability** — a spec's content-hash key does not depend
  on the process, the field ordering of its payload, or how a caller
  spelled numeric values; and it equals the key of the hand-built
  parameter dicts the pre-spec drivers used, so cache directories
  warmed by those drivers stay warm.
* **Session == direct call** — running a spec through the session
  gives the same result as calling its worker directly, and the
  session's figure drivers reuse the historical cache keys.
* **Pinned worker output** — every registered worker, with each
  protocol it runs, returns an entry whose SHA-256 digest is pinned
  per flood engine.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.api import Session
from repro.experiments.runner import (
    EXPERIMENTS,
    ParallelRunner,
    ScenarioTask,
    network_payload,
    stable_seed,
)
from repro.experiments.spec import (
    SPEC_FAMILIES,
    UNSET,
    DCubeSpec,
    DynamicSpec,
    ExperimentSpec,
    FeatureSweepSpec,
    MobileJammerSpec,
    NodeChurnSpec,
    SweepSpec,
    TraceEpisodeSpec,
    expand_spec_payload,
    load_specs,
    spec_from_payload,
)
from repro.net.simulator import SimulatorConfig

#: One representative (small but fully populated) spec per family.
REPRESENTATIVES = {
    "sweep": SweepSpec(
        protocol="lwb", ratio=0.15, topology={"kind": "kiel"}, rounds=6,
        round_period_s=1.0, engine="vectorized", seed=11,
    ),
    "dynamic": DynamicSpec(
        protocol="pid", topology={"kind": "kiel"}, time_scale=0.02,
        round_period_s=4.0, seed=3,
    ),
    "dcube": DCubeSpec(
        protocol="crystal", level=1, topology={"kind": "dcube"}, num_rounds=8,
        num_sources=3, max_retries=2, seed=5,
    ),
    "feature_sweep": FeatureSweepSpec(
        dimension="input_nodes", value=2, topology={"kind": "kiel"},
        profile={"name": "t", "trace_repetitions": 1,
                 "training_iterations": 40, "anneal_steps": 20},
        training_episodes=[[[2, 0.0]]], evaluation_episodes=[[[2, 0.0]]],
        evaluation_repeats=1, data_dir=None, eval_seed=7, seed=1,
    ),
    "trace_episode": TraceEpisodeSpec(
        topology={"kind": "kiel"}, n_tx=2, episode=[[2, 0.0], [2, 0.3]],
        ambient_rate=0.02, round_period_s=4.0, interference_seed=4, seed=9,
    ),
    "mobile_jammer": MobileJammerSpec(
        protocol="lwb", rounds=4, round_period_s=1.0, interference_ratio=0.4,
        seed=2,
    ),
    "node_churn": NodeChurnSpec(
        protocol="lwb", rounds=4, round_period_s=1.0, churn_rate=0.4, seed=2,
    ),
}

#: Protocols each protocol-carrying family is fingerprinted with.
FINGERPRINT_PROTOCOLS = {
    "sweep": ("lwb", "pid", "dimmer"),
    "dynamic": ("lwb", "pid", "dimmer"),
    "mobile_jammer": ("lwb", "pid", "dimmer"),
    "node_churn": ("lwb", "pid", "dimmer"),
    "dcube": ("crystal", "lwb", "dimmer"),
}

#: Fingerprinted shards: every representative under its family name,
#: plus ``family:protocol`` for each protocol it does not already run.
FINGERPRINT_SHARDS = sorted(REPRESENTATIVES) + [
    f"{family}:{protocol}"
    for family, protocols in FINGERPRINT_PROTOCOLS.items()
    for protocol in protocols
    if protocol != REPRESENTATIVES[family].protocol
]

#: SHA-256 of ``json.dumps(entry, sort_keys=True)`` for every worker
#: result in FINGERPRINT_SHARDS, per default flood engine (what
#: ``REPRO_ENGINE`` selects).  Any change to a worker's output changes
#: its digest; re-record only for an intended behaviour change.
WORKER_FINGERPRINTS = {
    "vectorized": {
        "dcube":
            "ad18c6668147e811f4be2fd6204803345771db6fb316291f972d28bba5224f8b",
        "dynamic":
            "070ee663e165a49a3653fa54d4975a8fb886db83353e6765b2d02e886b7502db",
        "feature_sweep":
            "eb3d58e3858da803528d158a3f7a9c3016248835211ec79bb92ec862dbb573a8",
        "mobile_jammer":
            "9d8bc85c35cf406d076fbf52418b9f54390fa1f02fa775464b10fcda323ad0e4",
        "node_churn":
            "fdf7dd20aaf9f7590a865cc8d0f17787f24e0393a1048caa3b862bc537fc0245",
        "sweep":
            "cb6b4cb72d5ec98417e0bd1025a990b6d577be1fa9522e21e6667342b0f5f23d",
        "trace_episode":
            "c58364ae553b89bce24bab51eabbc4049b440b0f6bed18395f27846aa7014922",
        "sweep:pid":
            "db055a14dd963b44e2209ad44b666cca11125d857e0ea202dca6782fd34c0e22",
        "sweep:dimmer":
            "9f0f80d95ecffe78c981ca85a104d57b706db6a1715c15476433d482bfd2dc0e",
        "dynamic:lwb":
            "5b62141d662fcad64aa3340a0b0a03faefa1dd49bfb431656f05b98ffa8bd363",
        "dynamic:dimmer":
            "92cb41dfa4a3b0cc1685879f298220215a4a22d45f0e1e405193f77a8e84a5e1",
        "mobile_jammer:pid":
            "23660948e6ad3b7edb5ce029b1ba5a81433817d87e96e549483a8d2daa1f4cb4",
        "mobile_jammer:dimmer":
            "3ba7af4657446e123d6c33a9506bdb7da4f7a9c8c7be406af041b45a2f7301f1",
        "node_churn:pid":
            "dc464a4e8f0c678922a6d8e1329fad15304045d51e6bd9da82c611f6967f0afb",
        "node_churn:dimmer":
            "4e6151a2be0ce817cba1213e36198c51b64964cb4c2b7e891a408d8e27383109",
        "dcube:lwb":
            "204095c5f7ad3109c689f97b4727c61c58981e35cd3cf54743bcb010fbd73981",
        "dcube:dimmer":
            "1d48cfe032d374f96c25fd1d308738827d6a3f0806a8bc7f9b6890b6d26cce12",
    },
    "scalar": {
        "dcube":
            "ad18c6668147e811f4be2fd6204803345771db6fb316291f972d28bba5224f8b",
        "dynamic":
            "894024d20c1237b040cef11dab30e7f12961eb94ab4f4dd5657b9099603205ae",
        "feature_sweep":
            "eb3d58e3858da803528d158a3f7a9c3016248835211ec79bb92ec862dbb573a8",
        "mobile_jammer":
            "9d8bc85c35cf406d076fbf52418b9f54390fa1f02fa775464b10fcda323ad0e4",
        "node_churn":
            "fdf7dd20aaf9f7590a865cc8d0f17787f24e0393a1048caa3b862bc537fc0245",
        "sweep":
            "cb6b4cb72d5ec98417e0bd1025a990b6d577be1fa9522e21e6667342b0f5f23d",
        "trace_episode":
            "b100ae7c1421b3e4b8755bd3258691876eb51f1d7aa27533b226305bb7c1e090",
        "sweep:pid":
            "db055a14dd963b44e2209ad44b666cca11125d857e0ea202dca6782fd34c0e22",
        "sweep:dimmer":
            "9f0f80d95ecffe78c981ca85a104d57b706db6a1715c15476433d482bfd2dc0e",
        "dynamic:lwb":
            "ed8b7065431a46a3a60a06af909c4ab5cc4593ec47242f614d27d9b019728c9e",
        "dynamic:dimmer":
            "8a2ea8b8e2c65850eaebc836f587bc5747c1e478b3ccb95cf7153619324d9b66",
        "mobile_jammer:pid":
            "23660948e6ad3b7edb5ce029b1ba5a81433817d87e96e549483a8d2daa1f4cb4",
        "mobile_jammer:dimmer":
            "3ba7af4657446e123d6c33a9506bdb7da4f7a9c8c7be406af041b45a2f7301f1",
        "node_churn:pid":
            "dc464a4e8f0c678922a6d8e1329fad15304045d51e6bd9da82c611f6967f0afb",
        "node_churn:dimmer":
            "4e6151a2be0ce817cba1213e36198c51b64964cb4c2b7e891a408d8e27383109",
        "dcube:lwb":
            "1bfc9ffb2d890be9bba40b23fce671b03f5773b6bdcbfbf148feb65330487960",
        "dcube:dimmer":
            "3e7e5262fed482092f9688b665ad43e0d8c295119c2301f9b56ed98fe5245044",
    },
}


def _fingerprint_spec(shard, network, data_dir):
    """The spec of one fingerprinted shard (Dimmer runs carry ``network``)."""
    family, _, protocol = shard.partition(":")
    spec = REPRESENTATIVES[family]
    if protocol:
        spec = replace(
            spec,
            protocol=protocol,
            network=network_payload(network) if protocol == "dimmer" else UNSET,
        )
    if family == "feature_sweep":
        # A fresh data dir, so the shard collects and trains instead of
        # loading a cached model.
        spec = replace(spec, data_dir=str(data_dir))
    return spec


class TestWorkerFingerprints:
    def test_every_family_is_fingerprinted(self):
        assert len(FINGERPRINT_SHARDS) == 17
        assert {shard.partition(":")[0] for shard in FINGERPRINT_SHARDS} == set(
            SPEC_FAMILIES
        )

    @pytest.mark.parametrize("shard", FINGERPRINT_SHARDS)
    def test_worker_output_is_pinned(self, shard, untrained_network, tmp_path):
        spec = _fingerprint_spec(shard, untrained_network, tmp_path)
        (entry,) = Session(max_workers=1).run_entries([spec])
        digest = hashlib.sha256(json.dumps(entry, sort_keys=True).encode()).hexdigest()
        assert digest == WORKER_FINGERPRINTS[SimulatorConfig().engine][shard]


class TestPayloadRoundTrip:
    def test_every_family_has_a_representative(self):
        assert sorted(REPRESENTATIVES) == sorted(SPEC_FAMILIES)

    @pytest.mark.parametrize("family", sorted(REPRESENTATIVES))
    def test_round_trip_identity(self, family):
        spec = REPRESENTATIVES[family]
        payload = spec.to_payload()
        json.dumps(payload)  # payloads must be JSON-serializable
        clone = spec_from_payload(payload)
        assert clone == spec
        assert clone.key() == spec.key()
        assert type(clone) is type(spec)

    @pytest.mark.parametrize("family", sorted(REPRESENTATIVES))
    def test_unknown_field_rejected(self, family):
        payload = REPRESENTATIVES[family].to_payload()
        payload["definitely_not_a_field"] = 1
        with pytest.raises(ValueError, match="definitely_not_a_field"):
            spec_from_payload(payload)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="klein-bottle"):
            spec_from_payload({"family": "klein-bottle"})
        with pytest.raises(ValueError, match="family"):
            spec_from_payload({"protocol": "lwb"})

    def test_family_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            SweepSpec.from_payload({"family": "dcube"})

    def test_base_class_dispatches(self):
        payload = REPRESENTATIVES["sweep"].to_payload()
        assert isinstance(ExperimentSpec.from_payload(payload), SweepSpec)

    def test_unknown_profile_key_rejected(self):
        # Same fail-loudly contract as top-level fields: a typo'd
        # profile key must not silently train with the default budget.
        with pytest.raises(ValueError, match="training_iteration"):
            FeatureSweepSpec(profile={"name": "t", "training_iteration": 40})

    def test_non_mapping_profile_rejected(self):
        with pytest.raises(ValueError, match="profile"):
            FeatureSweepSpec(profile="fast")

    def test_null_network_rejected(self):
        with pytest.raises(ValueError, match="network"):
            spec_from_payload(
                {"family": "sweep", "protocol": "dimmer", "network": None}
            )

    def test_unset_fields_stay_out_of_payload_and_params(self):
        spec = MobileJammerSpec(protocol="lwb", rounds=3)
        assert "engine" not in spec.to_payload()
        assert "network" not in spec.params()
        assert spec.params() == {"protocol": "lwb", "rounds": 3}


class TestGridExpansion:
    def test_cross_product_order_is_deterministic(self):
        base = SweepSpec(protocol="lwb", rounds=5)
        grid = base.grid(ratios=[0.0, 0.1], seeds=[1, 2])
        assert [(s.ratio, s.seed) for s in grid] == [
            (0.0, 1), (0.0, 2), (0.1, 1), (0.1, 2),
        ]
        again = base.grid(ratios=[0.0, 0.1], seeds=[1, 2])
        assert again == grid
        assert [s.key() for s in again] == [s.key() for s in grid]

    def test_plural_and_exact_field_names(self):
        base = SweepSpec(rounds=5)
        assert [s.protocol for s in base.grid(protocols=["lwb", "pid"])] == ["lwb", "pid"]
        assert [s.ratio for s in base.grid(ratio=[0.3])] == [0.3]

    def test_unknown_grid_field_rejected(self):
        with pytest.raises(ValueError, match="wibbles"):
            SweepSpec().grid(wibbles=[1])

    def test_scalar_grid_sweep_rejected(self):
        with pytest.raises(ValueError, match="list of values"):
            SweepSpec().grid(seeds=5)

    def test_string_grid_sweep_rejected(self):
        # A bare string is iterable and would expand char-by-char.
        with pytest.raises(ValueError, match="character"):
            SweepSpec().grid(protocols="lwb")

    def test_grid_resets_the_cosmetic_label(self):
        # Expanded points must not all describe() as the base label —
        # that would misattribute worker failures.
        grid = SweepSpec(protocol="lwb", label="base").grid(ratios=[0.0, 0.2])
        assert [spec.label for spec in grid] == [None, None]
        assert grid[0].describe() != grid[1].describe()

    def test_grid_preserves_other_fields(self):
        base = MobileJammerSpec(protocol="lwb", rounds=7, interference_ratio=0.2)
        for spec in base.grid(seeds=range(3)):
            assert spec.rounds == 7
            assert spec.interference_ratio == 0.2

    def test_no_sweeps_returns_self(self):
        base = SweepSpec(protocol="lwb")
        assert base.grid() == [base]


class TestCacheKeys:
    def test_key_pinned_across_processes(self):
        # The key is a pure content hash (sha1 over canonical JSON), so
        # it must never drift across processes, sessions or releases —
        # a drift would silently invalidate every warmed cache dir.
        spec = SweepSpec(
            protocol="lwb", ratio=0.15, topology={"kind": "kiel"}, rounds=40,
            round_period_s=4.0, engine="vectorized", seed=123,
        )
        assert spec.key() == "8577484b52eab6a417b1dcd74a86f4e7bf7f3392"

    @pytest.mark.parametrize("family", sorted(REPRESENTATIVES))
    def test_key_independent_of_payload_field_order(self, family):
        spec = REPRESENTATIVES[family]
        payload = spec.to_payload()
        reordered = dict(reversed(list(payload.items())))
        assert spec_from_payload(reordered).key() == spec.key()

    def test_key_independent_of_value_spelling(self):
        # The pre-spec drivers hand-canonicalized kwargs (ints vs
        # floats, tuples vs lists); the spec casts do it centrally.
        a = SweepSpec(protocol="lwb", ratio=0, rounds=40.0, round_period_s=4)
        b = SweepSpec(protocol="lwb", ratio=0.0, rounds=40, round_period_s=4.0)
        assert a == b
        assert a.key() == b.key()
        t1 = TraceEpisodeSpec(episode=((2, 0), (3, 0.3)), n_tx=2)
        t2 = TraceEpisodeSpec(episode=[[2, 0.0], [3, 0.3]], n_tx=2.0)
        assert t1.key() == t2.key()

    def test_label_is_cosmetic(self):
        a = SweepSpec(protocol="lwb", ratio=0.1, label="point-a")
        b = SweepSpec(protocol="lwb", ratio=0.1, label="point-b")
        assert a == b
        assert a.key() == b.key()
        assert "label" not in a.to_payload()

    def test_sweep_key_matches_legacy_driver_params(self):
        # Byte-for-byte what the Fig. 5 parallel driver built before the
        # spec layer existed.
        protocol, ratio, run_index, seed = "lwb", 0.15, 1, 3
        legacy = ScenarioTask(
            experiment="sweep_point",
            params={
                "protocol": protocol,
                "ratio": ratio,
                "topology": {"kind": "kiel"},
                "rounds": 40,
                "round_period_s": 4.0,
                "engine": "vectorized",
            },
            seed=stable_seed(seed, protocol, round(ratio * 100), run_index),
        )
        spec = SweepSpec(
            protocol=protocol, ratio=ratio, topology={"kind": "kiel"}, rounds=40,
            round_period_s=4.0, engine="vectorized",
            seed=stable_seed(seed, protocol, round(ratio * 100), run_index),
        )
        assert spec.key() == legacy.key()

    def test_scenario_key_matches_legacy_bench_params(self):
        # Byte-for-byte what `repro-bench scenarios` built before.
        legacy = ScenarioTask(
            experiment="mobile_jammer_run",
            params={"protocol": "lwb", "rounds": 2, "engine": "vectorized"},
            seed=stable_seed(0, "mobile_jammer_run", "lwb", 0),
        )
        spec = MobileJammerSpec(
            protocol="lwb", rounds=2, engine="vectorized",
            seed=stable_seed(0, "mobile_jammer_run", "lwb", 0),
        )
        assert spec.key() == legacy.key()

    def test_trace_key_matches_legacy_recorder_params(self):
        # Byte-for-byte what TraceRecorder._episode_payloads built
        # before (churn key omitted when empty).
        legacy = ScenarioTask(
            experiment="trace_episode",
            params={
                "topology": {"kind": "kiel"},
                "n_tx": 2,
                "episode": [[2, 0.0], [3, 0.3]],
                "ambient_rate": 0.02,
                "round_period_s": 4.0,
                "interference_seed": 5,
            },
            seed=7,
        )
        spec = TraceEpisodeSpec(
            topology={"kind": "kiel"}, n_tx=2, episode=((2, 0.0), (3, 0.3)),
            ambient_rate=0.02, round_period_s=4.0, interference_seed=5, seed=7,
        )
        assert spec.key() == legacy.key()

    @pytest.mark.parametrize(
        "event",
        [
            {"round": 1, "clear": True},
            {"round": 1, "restore": [[1, 2]]},
            {"round": 1, "set": [[1, 2, 0.0]]},
            {"from": 1, "until": 3, "restore": [[1, 2]]},
        ],
    )
    def test_churn_accepts_interval_events_only(self, event):
        """Non-interval churn events fail at construction, before they
        could reach a cache key or a worker."""
        interval = {"from": 1, "until": 3, "set": [[1, 2, 0.0]]}
        spec = TraceEpisodeSpec(n_tx=2, episode=((2, 0.0),), churn=[interval])
        assert spec.churn == [interval]
        with pytest.raises(ValueError, match="interval event"):
            TraceEpisodeSpec(n_tx=2, episode=((2, 0.0),), churn=[interval, event])

    def test_cache_warmed_by_legacy_tasks_hits_for_specs(self, tmp_path):
        """A cache dir warmed pre-spec must be a full hit for specs."""
        seeds = [stable_seed(3, "lwb", 15, i) for i in range(2)]
        legacy_tasks = [
            ScenarioTask(
                experiment="mobile_jammer_run",
                params={"protocol": "lwb", "rounds": 2, "round_period_s": 1.0},
                seed=seed,
            )
            for seed in seeds
        ]
        warm = ParallelRunner(max_workers=1, cache_dir=tmp_path)
        legacy_results = warm.run(legacy_tasks)
        assert warm.stats.executed == 2

        session = Session(max_workers=1, cache_dir=tmp_path)
        spec = MobileJammerSpec(protocol="lwb", rounds=2, round_period_s=1.0)
        entries = session.run_entries(spec.grid(seeds=seeds))
        assert session.stats.cache_hits == 2
        assert session.stats.executed == 0
        assert entries == legacy_results


class TestSessionFacade:
    def test_engine_default_applies_only_when_unset(self):
        session = Session(max_workers=1, engine="scalar")
        injected = session.prepare(MobileJammerSpec(protocol="lwb", rounds=2))
        assert injected.engine == "scalar"
        explicit = session.prepare(
            MobileJammerSpec(protocol="lwb", rounds=2, engine="vectorized")
        )
        assert explicit.engine == "vectorized"
        # Families without an engine field pass through untouched.
        trace = REPRESENTATIVES["trace_episode"]
        assert session.prepare(trace) == trace

    def test_network_injected_into_dimmer_specs_only(self, untrained_network):
        session = Session(max_workers=1, network=untrained_network)
        dimmer = session.prepare(MobileJammerSpec(protocol="dimmer", rounds=2))
        assert dimmer.network is not UNSET
        lwb = session.prepare(MobileJammerSpec(protocol="lwb", rounds=2))
        assert lwb.network is UNSET

    def test_run_returns_typed_results(self):
        session = Session(max_workers=1)
        metrics = session.run(
            SweepSpec(protocol="lwb", ratio=0.1, rounds=4, round_period_s=1.0, seed=1)
        )
        assert 0.0 <= metrics.reliability <= 1.0  # ExperimentMetrics
        result = session.run(REPRESENTATIVES["dcube"])
        assert result.protocol == "crystal"  # DCubeResult
        assert result.level == 1

    def test_run_grid_collect_errors_passes_failures_through(self):
        from repro.experiments.runner import FAILURE_KEY

        session = Session(max_workers=1)
        good = SweepSpec(protocol="lwb", ratio=0.0, rounds=2, round_period_s=1.0)
        bad = SweepSpec(protocol="unknown-protocol", ratio=0.0, rounds=2)
        results = session.run_grid([good, bad], collect_errors=True)
        assert 0.0 <= results[0].reliability <= 1.0
        assert results[1][FAILURE_KEY] is True


class TestShimEqualsSession:
    """Session results equal the direct calls and legacy grids they
    replaced."""

    def test_trace_episode(self):
        from repro.net.topology import kiel_testbed
        from repro.rl.trace_env import record_episode_for_n_tx

        episode = ((2, 0.0), (2, 0.3))
        serial = record_episode_for_n_tx(
            kiel_testbed(), 2, episode, 0.02, 4.0, episode_seed=9, interference_seed=4
        )
        spec = TraceEpisodeSpec(
            topology={"kind": "kiel"}, n_tx=2, episode=episode, ambient_rate=0.02,
            round_period_s=4.0, interference_seed=4, seed=9,
        )
        assert Session(max_workers=1).run(spec) == serial

    @pytest.mark.parametrize("family", ["mobile_jammer", "node_churn"])
    def test_scenario_families(self, family):
        spec = REPRESENTATIVES[family]
        entry = Session(max_workers=1).run(spec)
        direct = EXPERIMENTS[spec.experiment](seed=spec.seed, **spec.params())
        assert entry == direct

    def test_scenario_family_driver_matches_bench_grid(self, tmp_path):
        """Session.scenario_family reuses the exact bench cache keys."""
        legacy_tasks = [
            ScenarioTask(
                experiment="node_churn_run",
                params={"protocol": "lwb", "rounds": 3, "engine": "vectorized"},
                seed=stable_seed(1, "node_churn_run", "lwb", run_index),
            )
            for run_index in range(2)
        ]
        warm = ParallelRunner(max_workers=1, cache_dir=tmp_path)
        warm.run(legacy_tasks)

        session = Session(max_workers=1, cache_dir=tmp_path)
        result = session.scenario_family(
            "node_churn", protocols=("lwb",), runs=2, rounds=3, seed=1
        )
        assert session.stats.executed == 0
        assert session.stats.cache_hits == 2
        assert result.protocols["lwb"]["runs"] == 2
        assert not result.failed


class TestSpecFiles:
    def test_expand_grid_payload(self):
        specs = expand_spec_payload(
            {"family": "sweep", "protocol": "lwb", "rounds": 5,
             "grid": {"ratios": [0.0, 0.1], "seeds": [0, 1]}}
        )
        assert len(specs) == 4
        assert len({spec.key() for spec in specs}) == 4

    def test_load_specs_single_list_and_wrapper(self, tmp_path):
        single = tmp_path / "single.json"
        single.write_text(json.dumps({"family": "mobile_jammer", "rounds": 2}))
        assert len(load_specs(single)) == 1

        many = tmp_path / "many.json"
        many.write_text(json.dumps([
            {"family": "mobile_jammer", "rounds": 2},
            {"family": "node_churn", "rounds": 2, "grid": {"seeds": [0, 1]}},
        ]))
        assert [spec.family for spec in load_specs(many)] == [
            "mobile_jammer", "node_churn", "node_churn",
        ]

        wrapped = tmp_path / "wrapped.json"
        wrapped.write_text(json.dumps({"specs": [{"family": "sweep", "ratio": 0.1}]}))
        assert load_specs(wrapped)[0].family == "sweep"

    def test_load_specs_rejects_garbage(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("[]")
        with pytest.raises(ValueError, match="no specs"):
            load_specs(empty)
        scalar = tmp_path / "scalar.json"
        scalar.write_text("42")
        with pytest.raises(ValueError):
            load_specs(scalar)
        scalar_entry = tmp_path / "scalar_entry.json"
        scalar_entry.write_text("[42]")
        with pytest.raises(ValueError, match="JSON object"):
            load_specs(scalar_entry)
