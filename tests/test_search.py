"""Tests for the search-acceleration layer (:mod:`repro.core.search`).

Covers the three pillars the layer must uphold:

* **Determinism** — fingerprints are equal for equal inputs and stable
  across processes and hash seeds.
* **Parity** — serial and parallel searches return identical placements
  and identical deterministic statistics; pruning and early abort never
  change a goodput verdict.
* **Soundness** — cache entries are only reused where provably valid,
  SLO-infeasibility pruning only fires on provably-zero configurations,
  and truncated trials are reported distinctly. A trial counts its SLO
  verdicts at completion, builds no record, and still scores exactly
  what ``slo_attainment`` scores over the same system's records.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import slo_attainment
from repro.core import (
    PlacementSearchStats,
    TrialCache,
    fingerprint,
    max_goodput,
    place_high_affinity,
    place_low_affinity,
    run_attainment_trial,
)
from repro.core.search import (
    TrialEntry,
    make_phase_task,
    phase_slo_infeasible,
    trial_context_fingerprint,
)
from repro.core.simulate import PHASE_TRIAL_MIN_DURATION, phase_trial_setup
from repro.hardware import Cluster, Node
from repro.latency import ParallelismConfig
from repro.models import get_model
from repro.scheduling import DISPATCH_POLICIES, QUEUE_POLICIES, SchedulingConfig
from repro.serving import (
    ColocatedSystem,
    DecodeOnlySystem,
    DisaggregatedSystem,
    PrefillOnlySystem,
    simulate_trace,
)
from repro.simulator import InstanceSpec, Simulation
from repro.simulator.request import RequestRecord, RequestState
from repro.workload import SLO, fixed_length_dataset, generate_trace, get_dataset
from repro.workload.datasets import SyntheticDataset
from repro.workload.distributions import (
    EmpiricalLength,
    FixedLength,
    LognormalLength,
    MixtureLength,
    UniformLength,
)

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def tiny_cluster() -> Cluster:
    return Cluster(nodes=[Node(index=0, num_gpus=2)])


@pytest.fixture
def fast_dataset() -> SyntheticDataset:
    return SyntheticDataset(
        name="fast",
        input_dist=UniformLength(low=16, high=64),
        output_dist=UniformLength(low=4, high=16),
    )


# ----------------------------------------------------------------------
# Fingerprints and hashability
# ----------------------------------------------------------------------

class TestFingerprint:
    def test_equal_specs_equal_fingerprints(self, tiny_model):
        a = InstanceSpec(model=tiny_model, config=ParallelismConfig(2, 1))
        b = InstanceSpec(model=tiny_model, config=ParallelismConfig(2, 1))
        assert a is not b
        assert fingerprint(a) == fingerprint(b)
        c = InstanceSpec(model=tiny_model, config=ParallelismConfig(1, 2))
        assert fingerprint(a) != fingerprint(c)

    def test_slo_and_dataset_fingerprints(self):
        assert fingerprint(SLO(ttft=0.2, tpot=0.1)) == fingerprint(SLO(ttft=0.2, tpot=0.1))
        assert fingerprint(SLO(ttft=0.2, tpot=0.1)) != fingerprint(SLO(ttft=0.2, tpot=0.2))
        assert fingerprint(get_dataset("sharegpt")) == fingerprint(get_dataset("sharegpt"))
        assert fingerprint(get_dataset("sharegpt")) != fingerprint(get_dataset("humaneval"))

    def test_specs_are_hashable(self, tiny_model):
        a = InstanceSpec(model=tiny_model, config=ParallelismConfig(2, 1))
        b = InstanceSpec(model=tiny_model, config=ParallelismConfig(2, 1))
        assert hash(a) == hash(b) and a == b
        assert hash(SLO(ttft=0.2, tpot=0.1)) == hash(SLO(ttft=0.2, tpot=0.1))
        assert hash(get_dataset("sharegpt")) == hash(get_dataset("sharegpt"))

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            fingerprint(object())
        with pytest.raises(TypeError):
            fingerprint(lambda: None)  # lambdas have no stable identity

    def test_trial_context_covers_phase_setup(self, tiny_spec):
        slo = SLO(ttft=0.25, tpot=0.1)
        ds = get_dataset("sharegpt")
        fps = set()
        for kind in ("prefill", "decode"):
            factory, trial_slo = phase_trial_setup(kind, tiny_spec, slo)
            fps.add(
                trial_context_fingerprint(
                    factory, ds, trial_slo, 100, 0, PHASE_TRIAL_MIN_DURATION
                )
            )
        assert len(fps) == 2  # prefill and decode contexts never collide

    @pytest.mark.parametrize("kind", ["prefill", "decode"])
    def test_phase_fingerprints_ignore_dispatch_policy(self, tiny_spec, kind):
        """Phase-only systems always route least-loaded: searches that
        differ only in dispatch share their phase trials, and only
        those."""
        def context_fp(**policies):
            return make_phase_task(
                kind, tiny_spec, get_dataset("sharegpt"), SLO(ttft=0.25, tpot=0.1),
                0.9, 100, 0, TrialCache(), scheduling=SchedulingConfig(**policies),
            ).context_fp

        by_dispatch = {context_fp(dispatch_policy=p) for p in DISPATCH_POLICIES}
        assert by_dispatch == {context_fp()}
        by_queue = {context_fp(queue_policy=q) for q in QUEUE_POLICIES}
        assert len(by_queue) == len(QUEUE_POLICIES)

    def test_cross_process_stability(self, tmp_path):
        """The same objects fingerprint identically in fresh interpreters
        regardless of PYTHONHASHSEED — the property the shared trial
        cache depends on."""
        code = (
            "from repro.core.search import fingerprint\n"
            "from repro.core.simulate import phase_trial_setup\n"
            "from repro.workload.slos import SLO\n"
            "from repro.workload import get_dataset\n"
            "from repro.models import get_model\n"
            "from repro.simulator.instance import InstanceSpec\n"
            "from repro.latency.parallel import ParallelismConfig\n"
            "spec = InstanceSpec(model=get_model('opt-13b'),"
            " config=ParallelismConfig(2, 1))\n"
            "factory, slo = phase_trial_setup('prefill', spec, SLO(ttft=0.25, tpot=0.1))\n"
            "print(fingerprint((factory, get_dataset('sharegpt'), slo, 300, 0, 45.0)))\n"
        )
        digests = set()
        for hash_seed in ("1", "31337"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hash_seed
            env["PYTHONPATH"] = SRC_DIR
            proc = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, env=env, check=True,
            )
            digests.add(proc.stdout.strip())
        assert len(digests) == 1


# ----------------------------------------------------------------------
# Length-distribution lower bounds (pruning support)
# ----------------------------------------------------------------------

class TestMinLength:
    def test_known_bounds(self):
        assert FixedLength(7).min_length() == 7
        assert UniformLength(low=3, high=9).min_length() == 3
        assert LognormalLength(median=100, sigma=0.5, low=4).min_length() == 4
        assert EmpiricalLength(observations=(5, 2, 9)).min_length() == 2
        mix = MixtureLength(
            components=(FixedLength(8), UniformLength(low=3, high=5)),
            weights=(0.5, 0.5),
        )
        assert mix.min_length() == 3

    def test_unknown_bound_propagates(self):
        class Opaque(FixedLength):
            def min_length(self):
                return None

        mix = MixtureLength(
            components=(Opaque(8), FixedLength(3)), weights=(0.5, 0.5)
        )
        assert mix.min_length() is None


# ----------------------------------------------------------------------
# Trial cache semantics
# ----------------------------------------------------------------------

class TestTrialCache:
    def test_exact_entry_serves_everything(self):
        entry = TrialEntry(attainment=0.8, exact=True, abort_target=None, truncated=False)
        assert entry.usable_for(None)
        assert entry.usable_for(0.5)
        assert entry.usable_for(0.99)

    def test_inexact_entry_gated_by_target(self):
        # Aborted at target 0.9: attainment is an upper bound < 0.9.
        entry = TrialEntry(attainment=0.6, exact=False, abort_target=0.9, truncated=False)
        assert entry.usable_for(0.9)    # same verdict: below 0.9
        assert entry.usable_for(0.95)   # below 0.9 => below 0.95 too
        assert not entry.usable_for(0.5)   # bound says nothing about 0.5
        assert not entry.usable_for(None)  # exact value required

    def test_merge_prefers_exact(self):
        cache = TrialCache()
        inexact = TrialEntry(attainment=0.6, exact=False, abort_target=0.9, truncated=False)
        exact = TrialEntry(attainment=0.7, exact=True, abort_target=None, truncated=False)
        cache.merge("ctx", {1.0: inexact})
        cache.merge("ctx", {1.0: exact})
        assert cache.snapshot("ctx")[1.0] is exact
        cache.merge("ctx", {1.0: inexact})  # exact never downgraded
        assert cache.snapshot("ctx")[1.0] is exact
        assert cache.num_contexts == 1 and cache.num_entries == 1

    def test_snapshot_is_a_copy(self):
        cache = TrialCache()
        entry = TrialEntry(attainment=0.7, exact=True, abort_target=None, truncated=False)
        cache.merge("ctx", {1.0: entry})
        snap = cache.snapshot("ctx")
        snap[2.0] = entry
        assert 2.0 not in cache.snapshot("ctx")

    def test_uncached_searches_share_nothing(self, tiny_model):
        """A search given no cache starts from a fresh one, so running it
        again simulates every trial again and reports the same numbers."""
        outcomes = []
        for _ in range(2):
            stats = PlacementSearchStats()
            placement = place_high_affinity(
                tiny_model, Cluster(nodes=[Node(index=0, num_gpus=1)]),
                fixed_length_dataset(512, 32), SLO(ttft=0.3, tpot=0.1),
                num_requests=30, stats=stats,
            )
            assert stats.cache_hits == 0
            outcomes.append((placement, stats.comparable()))
        assert outcomes[0] == outcomes[1]


# ----------------------------------------------------------------------
# Simulation.stop and trial truncation
# ----------------------------------------------------------------------

class TestStopAndTruncation:
    def test_stop_halts_between_events(self):
        sim = Simulation()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: (fired.append(2), sim.stop()))
        sim.schedule(3.0, lambda: fired.append(3))
        sim.run()
        assert fired == [1, 2]
        assert sim.stopped
        assert len(sim) == 1  # event at t=3 still queued, never run
        sim.run()  # stopped simulations stay stopped
        assert fired == [1, 2]

    def test_truncation_warns_and_flags(self, tiny_spec, fast_dataset):
        factory, trial_slo = phase_trial_setup(
            "prefill", tiny_spec, SLO(ttft=0.5, tpot=0.5)
        )
        with pytest.warns(RuntimeWarning, match="event ceiling"):
            outcome = run_attainment_trial(
                factory, fast_dataset, 4.0, trial_slo,
                num_requests=50, seed=0, max_events=20,
            )
        assert outcome.truncated and not outcome.aborted

    def test_max_goodput_counts_truncated_trials(self, fast_dataset):
        def stub_runner(rate, abort_target):
            from repro.core.goodput import TrialOutcome

            return TrialOutcome(attainment=0.5, truncated=True)

        result = max_goodput(
            lambda sim: None, fast_dataset, SLO(ttft=0.1, tpot=0.1),
            attainment_target=0.9, trial_runner=stub_runner,
        )
        assert result.goodput == 0.0
        assert result.trials == 1 and result.truncated_trials == 1


# ----------------------------------------------------------------------
# Trials count SLO verdicts at completion, without records
# ----------------------------------------------------------------------

_TRIAL_SYSTEMS = {
    "prefill_only": lambda spec: lambda sim: PrefillOnlySystem(sim, spec),
    "decode_only": lambda spec: lambda sim: DecodeOnlySystem(sim, spec),
    "disaggregated": lambda spec: lambda sim: DisaggregatedSystem(sim, spec, spec),
    "colocated": lambda spec: lambda sim: ColocatedSystem(sim, spec),
}


def _trial_trace(dataset, rate, num_requests, seed, min_duration):
    """The trace :func:`run_attainment_trial` builds for these arguments."""
    return generate_trace(
        dataset, rate=rate, num_requests=max(num_requests, int(rate * min_duration)),
        rng=np.random.default_rng(seed),
    )


class TestTrialCounting:
    RATE, REQUESTS, SEED, MIN_DURATION = 30.0, 60, 3, 1.0

    def _trial(self, factory, dataset, slo, **kwargs):
        return run_attainment_trial(
            factory, dataset, self.RATE, slo, num_requests=self.REQUESTS,
            seed=self.SEED, min_duration=self.MIN_DURATION, **kwargs,
        )

    @pytest.mark.parametrize("system", sorted(_TRIAL_SYSTEMS))
    def test_attainment_equals_offline_records(self, tiny_spec, fast_dataset, system):
        factory = _TRIAL_SYSTEMS[system](tiny_spec)
        trace = _trial_trace(
            fast_dataset, self.RATE, self.REQUESTS, self.SEED, self.MIN_DURATION
        )
        records = simulate_trace(factory(Simulation()), trace).records
        # An SLO that about half the requests meet, so the count matters
        # (a phase-only system's other latency is 0 for every request).
        slo = SLO(
            ttft=max(float(np.median([r.ttft for r in records])), 1e-9),
            tpot=max(float(np.percentile([r.tpot for r in records], 75)), 1e-9),
        )
        expected = slo_attainment(records, slo, num_expected=len(trace)).total
        assert 0.0 < expected < 1.0
        outcome = self._trial(factory, fast_dataset, slo)
        assert outcome.attainment == expected  # bitwise
        assert not outcome.aborted and not outcome.truncated

    @pytest.mark.parametrize("system", sorted(_TRIAL_SYSTEMS))
    def test_trial_builds_no_record(self, monkeypatch, tiny_spec, fast_dataset, system):
        def refuse(*args, **kwargs):
            raise AssertionError("a goodput trial built a RequestRecord")

        monkeypatch.setattr(RequestState, "to_record", refuse)
        monkeypatch.setattr(RequestRecord, "__post_init__", refuse)
        outcome = self._trial(
            _TRIAL_SYSTEMS[system](tiny_spec), fast_dataset, SLO(ttft=0.05, tpot=0.02)
        )
        assert 0.0 <= outcome.attainment <= 1.0

    def test_abort_reports_the_tripping_count(self, tiny_spec):
        """Requests prefill one at a time, so the trial stops on the
        violation that exceeds the allowance, ``allowed + 1``."""
        factory = _TRIAL_SYSTEMS["prefill_only"](tiny_spec)
        dataset = fixed_length_dataset(32, 4)
        slo = SLO(ttft=1e-9, tpot=1.0)  # every request misses TTFT
        outcome = run_attainment_trial(
            factory, dataset, 1.0, slo, num_requests=40, seed=0,
            min_duration=1.0, abort_target=0.9,
        )
        n = 40
        allowed = n - math.ceil(0.9 * n)
        assert outcome.aborted and not outcome.truncated
        assert outcome.attainment == (n - allowed - 1) / n

    def test_truncated_trial_scores_unfinished_as_violations(
        self, tiny_spec, fast_dataset
    ):
        factory = _TRIAL_SYSTEMS["disaggregated"](tiny_spec)
        trace = _trial_trace(
            fast_dataset, self.RATE, self.REQUESTS, self.SEED, self.MIN_DURATION
        )
        slo = SLO(ttft=10.0, tpot=10.0)
        partial_run = simulate_trace(factory(Simulation()), trace, max_events=300)
        assert 0 < partial_run.completed < len(trace)
        expected = slo_attainment(
            partial_run.records, slo, num_expected=len(trace)
        ).total
        with pytest.warns(RuntimeWarning, match="event ceiling"):
            outcome = self._trial(factory, fast_dataset, slo, max_events=300)
        assert outcome.truncated and outcome.attainment == expected


# ----------------------------------------------------------------------
# Early abort / pruning never change a verdict
# ----------------------------------------------------------------------

class TestVerdictPreservation:
    def test_early_abort_preserves_goodput(self, tiny_model, fast_dataset):
        """Property check on randomized small configurations: the goodput
        search returns bit-identical results with early abort on and off
        (aborts may only happen on probes whose value is discarded)."""
        rng = np.random.default_rng(42)
        datasets = [fast_dataset, get_dataset("humaneval")]
        for _ in range(6):
            tp = int(rng.choice([1, 2]))
            pp = int(rng.choice([1, 2]))
            kind = str(rng.choice(["prefill", "decode"]))
            slo = SLO(
                ttft=float(rng.uniform(0.02, 0.4)),
                tpot=float(rng.uniform(0.01, 0.1)),
            )
            dataset = datasets[int(rng.integers(len(datasets)))]
            target = float(rng.choice([0.5, 0.9]))
            spec = InstanceSpec(model=tiny_model, config=ParallelismConfig(tp, pp))
            factory, trial_slo = phase_trial_setup(kind, spec, slo)
            results = [
                max_goodput(
                    factory, dataset, trial_slo,
                    attainment_target=target, num_requests=40, seed=1,
                    min_duration=10.0, early_abort=flag,
                )
                for flag in (True, False)
            ]
            assert results[0].goodput == results[1].goodput
            assert results[0].attainment_at_goodput == results[1].attainment_at_goodput
            assert results[0].trials == results[1].trials

    def test_prune_preserves_placement(self, tiny_model, tiny_cluster, fast_dataset):
        slo = SLO(ttft=0.3, tpot=0.1)
        placements = [
            place_high_affinity(
                tiny_model, tiny_cluster, fast_dataset, slo,
                num_requests=30, prune=flag,
            )
            for flag in (True, False)
        ]
        assert placements[0] == placements[1]

    def test_infeasible_prune_is_sound(self, tiny_model, fast_dataset):
        spec = InstanceSpec(model=tiny_model, config=ParallelismConfig(1, 1))
        hopeless = SLO(ttft=1e-9, tpot=1.0)
        assert phase_slo_infeasible("prefill", spec, fast_dataset, hopeless)
        # The prune's claim: the full search would return exactly zero.
        factory, trial_slo = phase_trial_setup("prefill", spec, hopeless)
        result = max_goodput(
            factory, fast_dataset, trial_slo, num_requests=30,
            min_duration=PHASE_TRIAL_MIN_DURATION, early_abort=False,
        )
        assert result.goodput == 0.0
        # A clearly attainable SLO must never be pruned.
        assert not phase_slo_infeasible(
            "prefill", spec, fast_dataset, SLO(ttft=10.0, tpot=1.0)
        )

    def test_jittered_specs_never_pruned(self, tiny_model, fast_dataset):
        spec = InstanceSpec(
            model=tiny_model, config=ParallelismConfig(1, 1), jitter_sigma=0.2
        )
        assert not phase_slo_infeasible(
            "prefill", spec, fast_dataset, SLO(ttft=1e-9, tpot=1.0)
        )


# ----------------------------------------------------------------------
# Serial <-> parallel parity
# ----------------------------------------------------------------------

class TestSerialParallelParity:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_high_affinity(self, tiny_model, tiny_cluster, fast_dataset, seed):
        slo = SLO(ttft=0.3, tpot=0.1)
        outcomes = {}
        for workers in (1, 2):
            stats = PlacementSearchStats()
            placement = place_high_affinity(
                tiny_model, tiny_cluster, fast_dataset, slo,
                num_requests=30, seed=seed, stats=stats,
                workers=workers, trial_cache=TrialCache(),
            )
            outcomes[workers] = (placement, stats.comparable())
        assert outcomes[1][0] == outcomes[2][0]
        assert outcomes[1][1] == outcomes[2][1]

    @pytest.mark.parametrize("seed", [0, 7])
    def test_low_affinity(self, tiny_model, tiny_cluster, fast_dataset, seed):
        slo = SLO(ttft=0.3, tpot=0.1)
        outcomes = {}
        for workers in (1, 2):
            stats = PlacementSearchStats()
            placement = place_low_affinity(
                tiny_model, tiny_cluster, fast_dataset, slo,
                num_requests=30, seed=seed, joint_sim_candidates=2,
                stats=stats, workers=workers, trial_cache=TrialCache(),
            )
            outcomes[workers] = (placement, stats.comparable())
        assert outcomes[1][0] == outcomes[2][0]
        assert outcomes[1][1] == outcomes[2][1]

    def test_warm_cache_replays_identically(self, tiny_model, tiny_cluster, fast_dataset):
        slo = SLO(ttft=0.3, tpot=0.1)
        cache = TrialCache()
        first_stats = PlacementSearchStats()
        first = place_high_affinity(
            tiny_model, tiny_cluster, fast_dataset, slo,
            num_requests=30, stats=first_stats, trial_cache=cache,
        )
        warm_stats = PlacementSearchStats()
        warm = place_high_affinity(
            tiny_model, tiny_cluster, fast_dataset, slo,
            num_requests=30, stats=warm_stats, trial_cache=cache,
        )
        assert first == warm
        assert warm_stats.cache_misses == 0
        assert warm_stats.cache_hits == first_stats.simulation_trials
        # Probe counting is cache-independent: a replayed search reports
        # the same trial count as a simulated one.
        assert warm_stats.simulation_trials == first_stats.simulation_trials


# ----------------------------------------------------------------------
# Stats plumbing
# ----------------------------------------------------------------------

class TestStats:
    def test_hit_rate(self):
        stats = PlacementSearchStats(cache_hits=3, cache_misses=1)
        assert stats.cache_hit_rate == 0.75
        assert PlacementSearchStats().cache_hit_rate == 0.0

    def test_wall_time_and_workers_recorded(self, tiny_model, tiny_cluster, fast_dataset):
        stats = PlacementSearchStats()
        place_high_affinity(
            tiny_model, tiny_cluster, fast_dataset, SLO(ttft=0.3, tpot=0.1),
            num_requests=30, stats=stats, workers=1,
        )
        assert stats.wall_time_s > 0.0
        assert stats.workers == 1
        assert stats.simulation_trials > 0
        assert stats.cache_misses == stats.simulation_trials
