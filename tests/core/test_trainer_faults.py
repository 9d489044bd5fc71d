"""End-to-end tests of the fault-injection and graceful-degradation layer.

The acceptance scenario from the robustness milestone: with P = 10 PSs of
which 2 are Byzantine (Noise attack), two *additional* PSs crash
mid-training — one permanently, one with recovery — and the run must
complete every round, land within tolerance of the fault-free final
accuracy, and leave an auditable per-round availability trace in
:class:`~repro.core.history.TrainingHistory`.
"""

import numpy as np
import pytest

from repro.attacks import make_attack
from repro.common import ConfigurationError, RngFactory
from repro.core import FaultConfig, FedMSConfig, FedMSTrainer
from repro.data import ArrayDataset, iid_partition
from repro.models import SoftmaxRegression
from repro.simulation import (
    ClientDropout,
    FaultInjector,
    FaultPlan,
    Network,
    ServerCrash,
    ServerStraggler,
)


def make_blobs(n=300, num_classes=3, dim=6, seed=0):
    centers = np.random.default_rng(42).normal(scale=4.0,
                                               size=(num_classes, dim))
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % num_classes
    features = centers[labels] + rng.normal(size=(n, dim))
    order = rng.permutation(n)
    return ArrayDataset(features[order], labels[order])


def make_trainer(num_clients=8, num_servers=10, num_byzantine=2,
                 attack=None, byzantine_ids=None, seed=0, network=None,
                 fault_injector=None, faults=None, lr=0.2,
                 **config_kwargs):
    data = make_blobs(seed=seed)
    test = make_blobs(n=120, seed=seed + 1)
    parts = iid_partition(data, num_clients, rng=RngFactory(seed).make("part"))
    config = FedMSConfig(
        num_clients=num_clients,
        num_servers=num_servers,
        num_byzantine=num_byzantine,
        local_steps=2,
        batch_size=8,
        learning_rate=lr,
        eval_clients=2,
        faults=faults,
        seed=seed,
        **config_kwargs,
    )
    return FedMSTrainer(
        config,
        model_factory=lambda rng: SoftmaxRegression(6, 3, rng=rng),
        client_datasets=parts,
        test_dataset=test,
        attack=attack,
        byzantine_ids=byzantine_ids,
        network=network,
        fault_injector=fault_injector,
    )


class TestFaultConfig:
    def test_defaults(self):
        faults = FaultConfig()
        assert faults.round_deadline_s == 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultConfig(round_deadline_s=0.0)

    def test_resolved_faults_defaults_when_unset(self):
        assert FedMSConfig().resolved_faults == FaultConfig()
        custom = FaultConfig(round_deadline_s=5.0)
        assert FedMSConfig(faults=custom).resolved_faults is custom

    def test_rejects_wrong_type(self):
        with pytest.raises(ConfigurationError):
            FedMSConfig(faults={"round_deadline_s": 5.0})


class TestInjectorWiring:
    def test_plan_validated_against_topology(self):
        injector = FaultInjector(FaultPlan(crashes=(ServerCrash(10, 0),)))
        with pytest.raises(ConfigurationError, match="PS 10"):
            make_trainer(num_byzantine=0, fault_injector=injector)

    def test_deadline_defaults_from_config(self):
        injector = FaultInjector(FaultPlan())
        make_trainer(num_byzantine=0, fault_injector=injector,
                     faults=FaultConfig(round_deadline_s=7.0))
        assert injector.round_deadline_s == 7.0

    def test_explicit_deadline_preserved(self):
        injector = FaultInjector(FaultPlan(), round_deadline_s=3.0)
        make_trainer(num_byzantine=0, fault_injector=injector)
        assert injector.round_deadline_s == 3.0

    def test_faultless_run_records_full_quorum(self):
        trainer = make_trainer(num_byzantine=0, num_servers=5,
                               fault_injector=FaultInjector(FaultPlan()))
        record = trainer.run_round()
        assert record.alive_servers == 5
        assert record.models_received == {k: 5 for k in range(8)}
        assert not record.degraded
        assert record.fault_events == []


class TestCrashDegradation:
    def test_single_crash_degrades_quorum(self):
        # P = 5, B = 0 with default beta = B/P = 0 -> trim count 0, so any
        # nonzero quorum stays feasible; the crash shows up as q = 4.
        injector = FaultInjector(FaultPlan(crashes=(ServerCrash(4, 1),)))
        trainer = make_trainer(num_byzantine=0, num_servers=5,
                               fault_injector=injector)
        trainer.run(3)
        records = trainer.history.records
        assert records[0].alive_servers == 5
        assert records[1].alive_servers == 4
        assert records[1].fault_events == ["server 4 crashed"]
        assert records[1].min_models_received == 4
        assert sorted(records[1].degraded_clients) == list(range(8))
        assert trainer.history.degraded_rounds == [1, 2]

    def test_infeasible_quorum_falls_back_to_previous_model(self):
        # P = 5 with beta = 0.2 -> B = 1; crashing 3 PSs leaves q = 2 = 2B,
        # so every client must keep its round-0 filtered model.
        crashes = tuple(ServerCrash(i, 1) for i in (2, 3, 4))
        injector = FaultInjector(FaultPlan(crashes=crashes))
        trainer = make_trainer(num_byzantine=1, num_servers=5,
                               attack=make_attack("noise", scale=0.05),
                               byzantine_ids=[0],
                               fault_injector=injector)
        trainer.run_round()
        before = [c.model_vector().copy() for c in trainer.clients]
        record = trainer.run_round()
        assert record.min_models_received == 2
        assert sorted(record.fallback_clients) == list(range(8))
        assert record.degraded_clients == []
        for client, previous in zip(trainer.clients, before):
            np.testing.assert_array_equal(client.model_vector(), previous)

    def test_recovery_restores_full_quorum(self):
        injector = FaultInjector(FaultPlan(crashes=(ServerCrash(4, 1, 3),)))
        trainer = make_trainer(num_byzantine=0, num_servers=5,
                               fault_injector=injector)
        trainer.run(4)
        quorums = trainer.history.min_models_received_per_round
        assert quorums == [5, 4, 4, 5]
        assert (3, "server 4 recovered") in injector.event_log

    def test_uploads_retry_around_a_crashed_server(self):
        injector = FaultInjector(FaultPlan(crashes=(ServerCrash(0, 0),)))
        trainer = make_trainer(num_byzantine=0, num_servers=2,
                               fault_injector=injector)
        trainer.run(4)
        # With only 2 PSs roughly half the assignments hit the crashed one
        # and must retry (same PS first, then the alive one).
        assert trainer.history.total_upload_retries > 0
        assert trainer.network.stats.retries_by_tag["upload"] == \
            trainer.history.total_upload_retries
        # Every upload eventually landed: delivered messages = K per round.
        assert trainer.history.total_upload_failures == 0
        assert trainer.network.stats.messages_by_tag["upload"] == 4 * 8

    def test_upload_failure_when_no_server_alive(self):
        crashes = tuple(ServerCrash(i, 1) for i in range(3))
        injector = FaultInjector(FaultPlan(crashes=crashes))
        trainer = make_trainer(num_byzantine=0, num_servers=3,
                               fault_injector=injector)
        trainer.run_round()
        record = trainer.run_round()
        assert record.alive_servers == 0
        assert record.upload_failures == 8
        assert sorted(record.fallback_clients) == list(range(8))


class TestDropoutAndStragglers:
    def test_offline_client_sits_out_and_mail_expires(self):
        injector = FaultInjector(FaultPlan(dropouts=(ClientDropout(3, 1, 2),)))
        trainer = make_trainer(num_byzantine=0, num_servers=5,
                               fault_injector=injector)
        trainer.run(3)
        records = trainer.history.records
        assert 3 not in records[1].models_received
        assert len(records[1].models_received) == 7
        # The 5 models disseminated to the offline client expired at the
        # round deadline.
        assert records[1].cleared_messages == 5
        assert trainer.network.stats.cleared_total == 5
        assert 3 in records[2].models_received

    def test_straggler_misses_deadline(self):
        injector = FaultInjector(FaultPlan(
            stragglers=(ServerStraggler(4, 1, 2, delay_s=9.0),)))
        trainer = make_trainer(num_byzantine=0, num_servers=5,
                               fault_injector=injector,
                               faults=FaultConfig(round_deadline_s=1.0))
        trainer.run(3)
        records = trainer.history.records
        assert records[0].min_models_received == 5
        assert records[1].min_models_received == 4
        assert records[2].min_models_received == 5
        assert any("straggling" in e for e in records[1].fault_events)

    def test_slow_straggler_within_deadline_is_harmless(self):
        injector = FaultInjector(FaultPlan(
            stragglers=(ServerStraggler(4, 1, 2, delay_s=0.5),)))
        trainer = make_trainer(num_byzantine=0, num_servers=5,
                               fault_injector=injector,
                               faults=FaultConfig(round_deadline_s=1.0))
        trainer.run(2)
        assert trainer.history.records[1].min_models_received == 5


class TestDeterminism:
    def _trace(self, seed=0):
        plan = FaultPlan(
            crashes=(ServerCrash(4, 1), ServerCrash(3, 2, 4)),
            dropouts=(ClientDropout(2, 1, 3),),
        )
        trainer = make_trainer(
            num_byzantine=1, num_servers=5,
            attack=make_attack("noise", scale=0.05), byzantine_ids=[0],
            seed=seed,
            network=Network(drop_probability=0.15,
                            rng=RngFactory(seed).make("net")),
            fault_injector=FaultInjector(plan),
        )
        history = trainer.run(6)
        return (
            trainer.network.stats.snapshot(),
            list(trainer.fault_injector.event_log),
            history.to_dict(),
            [(r.models_received, r.upload_retries, r.fallback_clients)
             for r in history.records],
        )

    def test_same_seed_and_plan_reproduce_the_full_trace(self):
        assert self._trace(seed=0) == self._trace(seed=0)

    def test_different_seed_changes_the_trace(self):
        # Sanity check that the determinism assertion above has teeth.
        assert self._trace(seed=0)[0] != self._trace(seed=1)[0]


class TestAcceptanceScenario:
    def test_two_crashes_under_byzantine_attack(self):
        """2 of P = 10 PSs crash mid-training (one permanently, one with
        recovery) on top of 20% Byzantine PSs running the Noise attack."""
        num_rounds = 12
        kwargs = dict(num_byzantine=2, num_servers=10,
                      attack=make_attack("noise", scale=0.05),
                      byzantine_ids=[0, 1])
        fault_free = make_trainer(**kwargs)
        reference = fault_free.run(num_rounds)

        plan = FaultPlan(crashes=(
            ServerCrash(9, 4),        # permanent
            ServerCrash(8, 5, 9),     # crash-recover window
        ))
        injector = FaultInjector(plan)
        trainer = make_trainer(fault_injector=injector, **kwargs)
        history = trainer.run(num_rounds)

        # Every round completed and was recorded.
        assert len(history) == num_rounds
        # The availability trace matches the plan: 10 alive, then 9, then 8
        # during the overlap, then 9 after the recovery.
        alive = [r.alive_servers for r in history.records]
        assert alive == [10] * 4 + [9] + [8] * 4 + [9] * 3
        quorums = history.min_models_received_per_round
        assert quorums[:4] == [10] * 4
        assert all(q == 9 for q in (quorums[4], *quorums[9:]))
        assert all(q == 8 for q in quorums[5:9])
        # Reduced quorums were filtered with the degraded trim count
        # (q >= 2B + 1 = 5 throughout), never by fallback.
        assert history.degraded_rounds == list(range(4, num_rounds))
        for record in history.records[4:]:
            assert sorted(record.degraded_clients) == list(range(8))
            assert record.fallback_clients == []
        assert (4, "server 9 crashed") in injector.event_log
        assert (9, "server 8 recovered") in injector.event_log

        # Training still converges to within tolerance of fault-free.
        assert reference.final_accuracy > 0.9
        assert history.final_accuracy >= reference.final_accuracy - 0.05

    def test_mimicry_attack_with_one_crash_under_adaptive_filter(self):
        """The colluding dispersion-mimicry attack combined with one PS
        crash: the adaptive-beta filter must keep estimating and trimming
        on the reduced quorum and still converge near the fault-free
        reference."""
        num_rounds = 12
        kwargs = dict(num_byzantine=2, num_servers=10,
                      attack=make_attack("dispersion_mimicry"),
                      byzantine_ids=[0, 1],
                      filter_rule_name="adaptive_trimmed_mean")
        fault_free = make_trainer(**kwargs)
        reference = fault_free.run(num_rounds)

        injector = FaultInjector(FaultPlan(crashes=(ServerCrash(9, 4),)))
        trainer = make_trainer(fault_injector=injector, **kwargs)
        history = trainer.run(num_rounds)

        assert len(history) == num_rounds
        alive = [r.alive_servers for r in history.records]
        assert alive == [10] * 4 + [9] * 8
        # The estimator kept producing per-round B-hat on the reduced
        # quorum (estimating rules never fall back to a static count).
        assert all(e is not None for e in history.estimated_byzantine_trace)
        for record in history.records:
            assert record.fallback_clients == []
        # The colluders' shared lie was flagged: both Byzantine PSs show
        # up among the rejected model ids over the run.
        rejected = set(history.filtered_model_id_counts)
        assert {0, 1} <= rejected

        assert reference.final_accuracy > 0.9
        assert history.final_accuracy >= reference.final_accuracy - 0.05
