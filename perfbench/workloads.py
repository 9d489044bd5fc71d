"""The benchmark's workloads: seeded inputs and trainer construction.

Every input a trainer receives (datasets, partitions, shard specs, churn
plan, the packet-loss stream) is generated here from the workload seed, so
the program under test only ever sees generated inputs.

Why these three workloads (each stresses layers the others leave idle):

* ``fig2-noise`` -- the paper's Fig. 2 noise panel at ``reduced`` scale.
  Local training dominates the round; the filter runs once per round on
  the shared-stack fast path and codecs, per-client filtering and the
  thread pool sit idle. It shows nn/data/client work and is the no-change
  control for filter, codec and execution work.
* ``inconsistent-wire`` -- the same data, model and topology under the
  client-dependent ``inconsistent`` attack (no fast path: every client
  filters its own stack), compressed wire legs, deadline aggregation with
  health scoring, seeded packet loss and the thread backend. It shows
  filter, codec, attack, network and execution work.
* ``population-churn`` -- ``PopulationTrainer`` with 10,000 tiny clients.
  The round is per-client Python dispatch (training calls, sampling,
  shard materialisation), the control where FLOP or filter-kernel work
  should not move.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

from repro.attacks import make_attack
from repro.common.rng import RngFactory, stream_seed
from repro.core import FedMSConfig, FedMSTrainer
from repro.data import ArrayDataset, dirichlet_partition, make_synthetic_cifar10
from repro.models import MLP, SoftmaxRegression
from repro.population import (
    ChurnPlan,
    PopulationTrainer,
    make_blob_population,
    make_blob_test_dataset,
)
from repro.simulation.network import Network

__all__ = ["Workload", "WORKLOADS", "SIZES"]

@dataclass(frozen=True)
class FlatSize:
    """Scale knobs of the flat (``FedMSTrainer``) workloads."""

    num_train: int
    num_test: int
    num_clients: int
    num_servers: int
    num_byzantine: int
    hidden: int
    batch_size: int


@dataclass(frozen=True)
class PopulationSize:
    """Scale knobs of the population workload."""

    population: int
    sample_fraction: float
    tier_spec: tuple
    tier_byzantine: tuple
    samples_per_client: int


#: ``full`` is what the benchmark measures; ``tiny`` exists for the
#: benchmark's own tests (seconds per run, same code paths).
SIZES = {
    "full": {
        "flat": FlatSize(num_train=2500, num_test=2000, num_clients=50,
                         num_servers=10, num_byzantine=2, hidden=32,
                         batch_size=32),
        "population": PopulationSize(population=10_000, sample_fraction=0.05,
                                     tier_spec=(10, 2, 1),
                                     tier_byzantine=(2, 0, 0),
                                     samples_per_client=24),
    },
    "tiny": {
        "flat": FlatSize(num_train=300, num_test=100, num_clients=10,
                         num_servers=5, num_byzantine=1, hidden=8,
                         batch_size=16),
        "population": PopulationSize(population=400, sample_fraction=0.1,
                                     tier_spec=(5, 1), tier_byzantine=(1, 0),
                                     samples_per_client=24),
    },
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``make_inputs(seed, size)`` generates every input (untimed);
    ``build(inputs)`` constructs the trainer from them (the timed set-up);
    ``client_steps(trainer, record)`` is the number of local SGD steps a
    round performed; ``upload_tag`` names the client upload leg. A run
    trains at least ``rounds`` rounds and reads the final accuracy at the
    last of them; ``extra_setups`` constructions are timed before it.
    ``calibration`` weighs the host-speed kernel's parts by what the
    workload's rounds spend their time on.
    """

    name: str
    why: str
    rounds: int
    eval_every: int
    extra_setups: int
    upload_tag: str
    make_inputs: Callable[[int, str], dict]
    build: Callable[[dict], object]
    client_steps: Callable[[object, object], int]
    calibration: Dict[str, float]
    population: bool = False


# -- flat workloads ---------------------------------------------------------


def _flat_inputs(seed: int, size: str) -> dict:
    knobs: FlatSize = SIZES[size]["flat"]
    rngs = RngFactory(seed)
    train, test = make_synthetic_cifar10(knobs.num_train, knobs.num_test,
                                         rng=rngs.make("bench/data"))
    train = ArrayDataset(train.features.reshape(len(train), -1), train.labels)
    test = ArrayDataset(test.features.reshape(len(test), -1), test.labels)
    partitions = dirichlet_partition(
        train, knobs.num_clients, alpha=10.0,
        rng=rngs.make("bench/partition"), min_samples_per_client=2,
    )
    return {"seed": seed, "knobs": knobs, "partitions": partitions,
            "test": test, "loss_seed": stream_seed(seed, "bench/packet_loss")}


def _mlp_factory(knobs: FlatSize):
    in_features = 3 * 32 * 32

    def build(rng: np.random.Generator):
        return MLP(in_features, (knobs.hidden,), 10, rng=rng)

    return build


def _build_fig2(inputs: dict) -> FedMSTrainer:
    knobs: FlatSize = inputs["knobs"]
    config = FedMSConfig(
        num_clients=knobs.num_clients, num_servers=knobs.num_servers,
        num_byzantine=knobs.num_byzantine, local_steps=3,
        batch_size=knobs.batch_size, learning_rate=0.05,
        trim_ratio=knobs.num_byzantine / knobs.num_servers,
        execution_backend="serial", seed=inputs["seed"],
    )
    return FedMSTrainer(
        config, model_factory=_mlp_factory(knobs),
        client_datasets=inputs["partitions"], test_dataset=inputs["test"],
        attack=make_attack("noise", scale=0.05),
    )


def _build_wire(inputs: dict) -> FedMSTrainer:
    knobs: FlatSize = inputs["knobs"]
    config = FedMSConfig(
        num_clients=knobs.num_clients, num_servers=knobs.num_servers,
        num_byzantine=knobs.num_byzantine, local_steps=1,
        batch_size=knobs.batch_size, learning_rate=0.05,
        trim_ratio=knobs.num_byzantine / knobs.num_servers,
        upload_codecs=("topk(0.05)", "int8"),
        aggregation_mode="deadline", deadline_quantile=0.9,
        straggler_rate=0.2, health_scoring=True,
        # Workers = cores; BLAS threads are deliberately left at their
        # default so oversubscription shows (provenance flags it).
        execution_backend="thread", num_workers=os.cpu_count() or 1,
        seed=inputs["seed"],
    )
    network = Network(drop_probability=0.02,
                      rng=np.random.default_rng(inputs["loss_seed"]))
    return FedMSTrainer(
        config, model_factory=_mlp_factory(knobs),
        client_datasets=inputs["partitions"], test_dataset=inputs["test"],
        attack=make_attack("inconsistent"), network=network,
    )


def _flat_steps(trainer, record) -> int:
    # Full participation and no fault plan: every client trains each round.
    return trainer.config.participants_per_round * trainer.config.local_steps


# -- population workload ----------------------------------------------------

#: Rounds the churn plan covers; runs stay far below it, so membership
#: keeps changing for the whole window.
CHURN_PLAN_ROUNDS = 2000


def _population_inputs(seed: int, size: str) -> dict:
    knobs: PopulationSize = SIZES[size]["population"]
    config = _population_config(seed, knobs)
    shards = make_blob_population(
        knobs.population, samples_per_client=knobs.samples_per_client,
        feature_dim=10, num_classes=4, seed=seed, heterogeneity=0.3,
    )
    test = make_blob_test_dataset(num_samples=200, feature_dim=10,
                                  num_classes=4, seed=seed)
    churn = ChurnPlan.from_config(
        config, num_rounds=CHURN_PLAN_ROUNDS,
        rng=np.random.default_rng(stream_seed(seed, "bench/churn")),
    )
    return {"seed": seed, "knobs": knobs, "config": config,
            "shards": shards, "test": test, "churn": churn}


def _population_config(seed: int, knobs: PopulationSize) -> FedMSConfig:
    return FedMSConfig(
        num_clients=knobs.population,
        num_servers=sum(knobs.tier_spec), num_byzantine=0,
        local_steps=2, batch_size=16, learning_rate=0.1, seed=seed,
        population_size=knobs.population,
        sample_fraction=knobs.sample_fraction,
        tier_spec=knobs.tier_spec, tier_byzantine=knobs.tier_byzantine,
        churn_join_rate=0.15, churn_leave_rate=0.1,
        aggregation_mode="deadline", straggler_rate=0.2,
        execution_backend="serial",
    )


def _softmax_factory(rng: np.random.Generator):
    return SoftmaxRegression(10, 4, rng=rng)


def _build_population(inputs: dict) -> PopulationTrainer:
    return PopulationTrainer(
        inputs["config"], model_factory=_softmax_factory,
        shard_specs=inputs["shards"], test_dataset=inputs["test"],
        attack=make_attack("sign_flip"), churn_plan=inputs["churn"],
    )


def _population_steps(trainer, record) -> int:
    return record.num_sampled_clients * trainer.config.local_steps


#: The MLP rounds mix interpreter dispatch, BLAS products and memory-bound
#: vector copies; the 44-parameter population rounds are dispatch alone.
NUMERIC_ROUND = {"interpreter": 1.0, "blas": 1.0, "memory": 1.0}
DISPATCH_ROUND = {"interpreter": 1.0}

WORKLOADS: Dict[str, Workload] = {
    "fig2-noise": Workload(
        name="fig2-noise",
        why=("paper Fig. 2 noise panel, K=50 P=10 B=2, MLP d=98,666: local "
             "training dominates; control for filter, codec and execution "
             "work"),
        rounds=40, eval_every=5, extra_setups=10, upload_tag="upload",
        make_inputs=_flat_inputs, build=_build_fig2,
        client_steps=_flat_steps, calibration=NUMERIC_ROUND,
    ),
    "inconsistent-wire": Workload(
        name="inconsistent-wire",
        why=("client-dependent attack, topk+int8 codecs, deadline+health, "
             "2% loss, thread backend: per-client filter, codec, attack "
             "and execution work"),
        rounds=30, eval_every=5, extra_setups=10, upload_tag="upload",
        make_inputs=_flat_inputs, build=_build_wire,
        client_steps=_flat_steps, calibration=NUMERIC_ROUND,
    ),
    "population-churn": Workload(
        name="population-churn",
        why=("K=10,000 tiny clients, 5% sampled, churn, 3-tier sign-flip "
             "edges, deadline: per-client Python dispatch; control for "
             "FLOP and filter-kernel work"),
        rounds=100, eval_every=5, extra_setups=30,
        upload_tag="tier0_upload",
        make_inputs=_population_inputs, build=_build_population,
        client_steps=_population_steps, calibration=DISPATCH_ROUND,
        population=True,
    ),
}
