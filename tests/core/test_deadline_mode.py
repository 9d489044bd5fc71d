"""Deadline-driven rounds + health scoring on the flat Fed-MS trainer.

The acceptance scenarios of the asynchronous-aggregation milestone:
deadline mode must beat the barrier in simulated time under stragglers, a
crash-looping PS must be circuit-broken within bounded rounds and
readmitted after probation, exclusion must never push the counted quorum
below the degraded-quorum floor, stale broadcasts must be admitted within
the staleness bound without double-voting, and all of it must stay
bit-identical across the serial/thread/process execution backends.
"""

import warnings

import numpy as np
import pytest

from repro.attacks import make_attack
from repro.common import RngFactory
from repro.core import FedMSConfig, FedMSTrainer
from repro.core.filtering import quorum_floor
from repro.core.health import BreakerState
from repro.core.upload import RetryPolicy
from repro.data import ArrayDataset, iid_partition
from repro.models import SoftmaxRegression
from repro.simulation import FaultInjector, FaultPlan, ServerCrash


def make_blobs(n=300, num_classes=3, dim=6, seed=0):
    centers = np.random.default_rng(42).normal(scale=4.0,
                                               size=(num_classes, dim))
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % num_classes
    features = centers[labels] + rng.normal(size=(n, dim))
    order = rng.permutation(n)
    return ArrayDataset(features[order], labels[order])


def make_trainer(num_clients=8, num_servers=10, num_byzantine=2,
                 seed=0, fault_injector=None, attack=None,
                 **config_kwargs):
    data = make_blobs(seed=seed)
    test = make_blobs(n=120, seed=seed + 1)
    parts = iid_partition(data, num_clients,
                          rng=RngFactory(seed).make("part"))
    config = FedMSConfig(
        num_clients=num_clients,
        num_servers=num_servers,
        num_byzantine=num_byzantine,
        local_steps=2,
        batch_size=8,
        learning_rate=0.2,
        eval_clients=2,
        seed=seed,
        **config_kwargs,
    )
    return FedMSTrainer(
        config,
        model_factory=lambda rng: SoftmaxRegression(6, 3, rng=rng),
        client_datasets=parts,
        test_dataset=test,
        attack=make_attack(attack) if attack else None,
        fault_injector=fault_injector,
    )


class TestDeadlineVsBarrier:
    def test_deadline_faster_under_stragglers(self):
        kwargs = dict(num_byzantine=0, straggler_rate=0.2)
        with make_trainer(**kwargs) as barrier:
            barrier.run(4, eval_every=10)
        with make_trainer(aggregation_mode="deadline", **kwargs) as deadline:
            deadline.run(4, eval_every=10)
        assert (deadline.history.total_simulated_time_s
                < barrier.history.total_simulated_time_s)

    def test_barrier_records_no_misses(self):
        with make_trainer(num_byzantine=0, straggler_rate=0.2) as trainer:
            trainer.run(3, eval_every=10)
        assert trainer.history.total_deadline_missed == 0
        assert trainer.history.total_late_admitted == 0

    def test_deadline_run_converges(self):
        with make_trainer(num_byzantine=0, aggregation_mode="deadline",
                          straggler_rate=0.2) as trainer:
            history = trainer.run(8, eval_every=8)
        assert history.final_accuracy is not None
        assert history.final_accuracy > 0.8


class TestStaleAdmission:
    def test_late_broadcasts_admitted_within_staleness(self):
        # A high straggler rate makes consecutive late rounds (the
        # admission precondition: only a sender late *again* delivers its
        # buffered broadcast) near-certain over a few rounds.
        with make_trainer(num_byzantine=0, aggregation_mode="deadline",
                          straggler_rate=0.45, max_staleness=1) as trainer:
            history = trainer.run(6, eval_every=10)
        assert history.total_deadline_missed > 0
        assert history.total_late_admitted > 0

    def test_no_admissions_with_zero_staleness(self):
        with make_trainer(num_byzantine=0, aggregation_mode="deadline",
                          straggler_rate=0.45, max_staleness=0) as trainer:
            history = trainer.run(6, eval_every=10)
        assert history.total_late_admitted == 0


class TestCircuitBreaker:
    def run_with_crash_loop(self, num_rounds=12, **kwargs):
        # PS 4 crashes hard for rounds 1-6, then stays healthy.
        plan = FaultPlan(crashes=(ServerCrash(4, 1, 7),))
        injector = FaultInjector(plan)
        trainer = make_trainer(num_byzantine=0, health_scoring=True,
                               fault_injector=injector, **kwargs)
        with trainer:
            history = trainer.run(num_rounds, eval_every=num_rounds)
        return history

    def test_crash_loop_opens_breaker_within_bounded_rounds(self):
        history = self.run_with_crash_loop()
        states = history.breaker_state_trace(4)
        # Decay 0.7 from 1.0 crosses 0.4 after 3 bad rounds: opened by
        # round 3 (crash window starts at round 1).
        assert BreakerState.OPEN in states[:4]

    def test_breaker_excludes_then_readmits_after_probation(self):
        history = self.run_with_crash_loop()
        excluded = history.excluded_server_trace
        assert any(4 in row for row in excluded)
        states = history.breaker_state_trace(4)
        closed_again = [i for i, s in enumerate(states)
                        if s == BreakerState.CLOSED
                        and BreakerState.OPEN in states[:i]]
        assert closed_again  # readmitted after the probation window
        # Once re-closed and healthy, it is no longer excluded.
        assert 4 not in excluded[closed_again[-1]]

    def test_health_scores_recorded_per_round(self):
        history = self.run_with_crash_loop(num_rounds=4)
        scores = history.health_score_trace(4)
        assert all(s is not None for s in scores)
        assert min(s for s in scores if s is not None) < 1.0


class TestQuorumFloorInvariant:
    def test_exclusions_never_breach_degraded_floor(self):
        # Few PSs and an aggressive crash schedule: the floor 2B+1 must
        # hold on the *counted* quorum every round regardless.
        plan = FaultPlan(crashes=(ServerCrash(0, 1, 8),
                                  ServerCrash(1, 2, 9)))
        injector = FaultInjector(plan)
        num_byzantine = 1
        with make_trainer(num_servers=5, num_byzantine=num_byzantine,
                          attack="noise", health_scoring=True,
                          aggregation_mode="deadline", straggler_rate=0.3,
                          fault_injector=injector) as trainer:
            history = trainer.run(10, eval_every=10)
        floor = quorum_floor(num_byzantine)
        for record in history.records:
            alive = record.alive_servers
            assert alive is not None
            counted = alive - len(record.excluded_servers)
            assert counted >= min(floor, alive)


class TestBackendBitIdentity:
    def run_backend(self, backend):
        with make_trainer(num_byzantine=0, aggregation_mode="deadline",
                          straggler_rate=0.3, health_scoring=True,
                          execution_backend=backend,
                          num_workers=2) as trainer:
            history = trainer.run(5, eval_every=5)
            vector = trainer.clients[0].model_vector()
        trace = [(r.train_loss, r.simulated_time_s, r.deadline_missed,
                  r.late_admitted, tuple(r.excluded_servers))
                 for r in history.records]
        return vector, trace

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_matches_serial(self, backend):
        serial_vec, serial_trace = self.run_backend("serial")
        other_vec, other_trace = self.run_backend(backend)
        assert np.array_equal(serial_vec, other_vec)
        assert serial_trace == other_trace


class TestRetryPolicyUnification:
    def test_config_resolves_single_policy(self):
        policy = RetryPolicy(max_retries=4, base_backoff_s=0.1)
        config = FedMSConfig(num_clients=4, num_servers=3,
                             num_byzantine=0, retry_policy=policy)
        assert config.resolved_retry_policy == policy

    def test_consistent_kwargs_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            FedMSConfig(num_clients=4, num_servers=3, num_byzantine=0,
                        retry_policy=RetryPolicy(max_retries=2))
