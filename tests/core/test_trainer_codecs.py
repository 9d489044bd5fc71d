"""Trainer-level integration tests for the upload codec pipeline.

Byte accounting must reflect encoded sizes on every leg, the broadcast
pipeline must be the trim-compatible variant of the upload chain, and a
lossless chain must reproduce the uncompressed trajectory exactly.
"""

import numpy as np

from repro.attacks import RandomAttack
from repro.common import RngFactory
from repro.core import FedMSConfig, FedMSTrainer
from repro.data import ArrayDataset, iid_partition
from repro.models import SoftmaxRegression

DIM = 6 * 3 + 3  # SoftmaxRegression(6, 3): weights + bias


def make_blobs(n=300, num_classes=3, dim=6, seed=0):
    centers = np.random.default_rng(42).normal(scale=4.0,
                                               size=(num_classes, dim))
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % num_classes
    features = centers[labels] + rng.normal(size=(n, dim))
    order = rng.permutation(n)
    return ArrayDataset(features[order], labels[order])


def make_trainer(upload_codecs, *, num_clients=8, num_servers=5,
                 num_byzantine=0, seed=0, **config_kwargs):
    data = make_blobs(seed=seed)
    test = make_blobs(n=120, seed=seed + 1)
    parts = iid_partition(data, num_clients, rng=RngFactory(seed).make("p"))
    config = FedMSConfig(
        num_clients=num_clients,
        num_servers=num_servers,
        num_byzantine=num_byzantine,
        local_steps=2,
        batch_size=8,
        upload_codecs=upload_codecs,
        eval_clients=2,
        seed=seed,
        **config_kwargs,
    )
    return FedMSTrainer(
        config,
        model_factory=lambda rng: SoftmaxRegression(6, 3, rng=rng),
        client_datasets=parts,
        test_dataset=test,
        attack=RandomAttack() if num_byzantine else None,
        byzantine_ids=list(range(num_byzantine)) if num_byzantine else None,
    )


def fingerprint(history):
    return (
        [r.train_loss for r in history.records],
        [r.test_loss for r in history.records],
        [r.test_accuracy for r in history.records],
    )


class TestByteAccounting:
    def test_upload_bytes_charged_at_encoded_size(self):
        trainer = make_trainer(["topk(0.2)", "int8"])
        record = trainer.run_round()
        dense_per_round = trainer.config.num_clients * DIM * 8
        assert record.upload_messages == trainer.config.num_clients
        assert 0 < record.upload_bytes < dense_per_round / 2

    def test_dissemination_bytes_charged_at_encoded_size(self):
        trainer = make_trainer(["topk(0.2)", "int8"])
        trainer.run_round()
        stats = trainer.network.stats
        dense_per_round = (trainer.config.num_clients
                           * trainer.config.num_servers * DIM * 8)
        assert 0 < stats.bytes_by_tag["dissemination"] < dense_per_round / 2

    def test_identity_run_charges_dense_bytes(self):
        trainer = make_trainer([])
        record = trainer.run_round()
        assert record.upload_bytes == trainer.config.num_clients * DIM * 8


class TestBroadcastPipeline:
    def test_derived_from_upload_chain_with_ratio_floor(self):
        trainer = make_trainer(["topk(0.05)", "int8"])
        assert trainer.codec.pipeline.specs == ("topk(0.05)", "int8")
        assert trainer.codec.broadcast_pipeline.specs == ("cyclic(0.25)",
                                                          "int8")

    def test_identity_chain_stays_identity(self):
        trainer = make_trainer([])
        assert trainer.codec.broadcast_pipeline.is_identity


class TestTrajectory:
    def test_lossless_chain_is_bit_identical_to_uncompressed(self):
        # topk(1.0) keeps every coordinate and round-trips float64 values
        # exactly, so the shared-reference delta plumbing must reproduce
        # the uncompressed run bit for bit — any divergence is a codec
        # bookkeeping bug, not compression loss.
        baseline = make_trainer([]).run(3)
        lossless = make_trainer(["topk(1.0)"]).run(3)
        assert fingerprint(baseline) == fingerprint(lossless)

    def test_compressed_run_still_trains_under_attack(self):
        history = make_trainer(
            ["topk(0.2)", "int8"], num_byzantine=2, seed=1,
            filter_rule_name="adaptive_trimmed_mean",
        ).run(6)
        assert history.final_accuracy > 0.5  # blobs are separable
