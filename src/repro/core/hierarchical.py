"""Hierarchical (grouped) multi-server FL — the related-work baseline.

The paper's Related Work (Section II) surveys multi-server FL systems
[26-30] in which clients are statically *grouped*, each group served by one
PS, with an inter-server exchange producing the global model. This module
implements that architecture so the reproduction can demonstrate the claim
motivating Fed-MS: grouped multi-server FL has no client-side redundancy —
a client only ever hears from its own PS, so a Byzantine group PS fully
controls its group regardless of any inter-server defense.

Round structure:

1. clients run local SGD (same as Fed-MS);
2. each client uploads to its *fixed* group PS (cost ``K`` per round);
3. each PS aggregates its group;
4. inter-server exchange: every PS sends its (possibly tampered) group
   aggregate to every other PS; each benign PS combines what it received
   with ``inter_server_rule`` (plain mean in classical hierarchical FL, a
   robust rule as a partial mitigation);
5. each PS disseminates its combined global model to its own group only —
   a Byzantine PS disseminates whatever it wants.

Wire-level extensions shared with the other trainers through
:mod:`repro.core.wire` (docs/upload.md, docs/faults.md):
``config.upload_codecs`` compresses all three legs (upload, inter-server
exchange, dissemination) as deltas against a trainer-wide reference model
with per-sender error feedback; sends retry per
``config.resolved_retry_policy``; and ``aggregation_mode="deadline"``
times the inter-server exchange with a
:class:`~repro.simulation.clock.VirtualClock` — a PS whose contribution
misses the deadline is excluded from every peer's combine this round and
its model is buffered for bounded-staleness admission next round. A PS
combines only the exchange messages that were delivered to it (plus its
own aggregate): a contribution lost on the wire after every retry is
excluded, exactly like a late one.
"""

from __future__ import annotations

import warnings
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..aggregation import AggregationRule, mean
from ..attacks.base import Attack
from ..common.errors import ConfigurationError
from ..common.rng import RngFactory
from ..data.datasets import ArrayDataset
from ..nn.module import Module
from ..nn.schedules import LRSchedule
from ..nn.serialization import to_vector
from ..simulation.network import Message, Network, NodeId
from .client import Client
from .config import FedMSConfig
from .history import RoundRecord, TrainingHistory
from .server import ByzantineParameterServer, ParameterServer
from .wire import (
    DeltaCodec,
    SendCounters,
    StaleBuffer,
    make_round_clock,
    send_with_retry,
    time_leg,
)

__all__ = ["HierarchicalTrainer"]

ModelFactory = Callable[[np.random.Generator], Module]


class HierarchicalTrainer:
    """Grouped multi-server FL with an inter-server aggregation stage.

    Accepts the same :class:`FedMSConfig` as :class:`FedMSTrainer`
    (``upload_strategy`` is ignored — grouping is static). Group membership
    defaults to ``client k -> PS (k mod P)``.
    """

    def __init__(self, config: FedMSConfig, *, model_factory: ModelFactory,
                 client_datasets: Sequence[ArrayDataset],
                 test_dataset: ArrayDataset,
                 attack: Optional[Attack] = None,
                 byzantine_ids: Optional[Sequence[int]] = None,
                 inter_server_rule: Optional[AggregationRule] = None,
                 group_of_client: Optional[Sequence[int]] = None,
                 lr_schedule: Optional[LRSchedule] = None,
                 flatten_inputs: bool = False,
                 network: Optional[Network] = None) -> None:
        if len(client_datasets) != config.num_clients:
            raise ConfigurationError(
                f"{len(client_datasets)} client datasets for "
                f"{config.num_clients} clients"
            )
        if config.num_byzantine > 0 and attack is None:
            raise ConfigurationError(
                "config.num_byzantine > 0 requires an attack"
            )
        if config.upload_strategy != "sparse":
            warnings.warn(
                f"HierarchicalTrainer ignores "
                f"upload_strategy={config.upload_strategy!r}: grouping is "
                f"static, every client uploads to its fixed group PS",
                RuntimeWarning, stacklevel=2,
            )
        self.config = config
        self.test_dataset = test_dataset
        self.network = network if network is not None else Network()
        self.rngs = RngFactory(config.seed)
        self.inter_server_rule: AggregationRule = (
            inter_server_rule if inter_server_rule is not None else mean
        )

        if group_of_client is None:
            self.group_of_client = [
                k % config.num_servers for k in range(config.num_clients)
            ]
        else:
            groups = list(group_of_client)
            if len(groups) != config.num_clients:
                raise ConfigurationError(
                    f"group_of_client has {len(groups)} entries for "
                    f"{config.num_clients} clients"
                )
            if any(not 0 <= g < config.num_servers for g in groups):
                raise ConfigurationError(
                    f"group ids must be in [0, {config.num_servers})"
                )
            self.group_of_client = groups
        present = set(self.group_of_client)
        if len(present) < config.num_servers:
            raise ConfigurationError(
                "every PS needs at least one group member; groups "
                f"{sorted(set(range(config.num_servers)) - present)} are empty"
            )

        init_model = model_factory(self.rngs.make("init/global"))
        initial_vector = to_vector(init_model,
                                   include_buffers=config.include_buffers)

        self.clients: List[Client] = []
        for k in range(config.num_clients):
            client = Client(
                k,
                model_factory(self.rngs.make(f"init/client/{k}")),
                client_datasets[k],
                batch_size=config.batch_size,
                rng=self.rngs.make(f"batches/client/{k}"),
                lr_schedule=lr_schedule,
                learning_rate=config.learning_rate,
                include_buffers=config.include_buffers,
                flatten_inputs=flatten_inputs,
            )
            client.set_model_vector(initial_vector)
            self.clients.append(client)

        if byzantine_ids is None:
            chosen = self.rngs.make("byzantine/placement").choice(
                config.num_servers, size=config.num_byzantine, replace=False
            )
            self.byzantine_ids = frozenset(int(i) for i in chosen)
        else:
            self.byzantine_ids = frozenset(int(i) for i in byzantine_ids)
            if len(self.byzantine_ids) != config.num_byzantine:
                raise ConfigurationError(
                    f"byzantine_ids has {len(self.byzantine_ids)} ids, "
                    f"expected {config.num_byzantine}"
                )

        self.servers: List[ParameterServer] = []
        for i in range(config.num_servers):
            if i in self.byzantine_ids:
                assert attack is not None
                self.servers.append(ByzantineParameterServer(
                    i, attack, rng=self.rngs.make(f"attack/server/{i}"),
                    initial_model=initial_vector,
                ))
            else:
                self.servers.append(ParameterServer(
                    i, initial_model=initial_vector,
                ))

        self.retry_policy = config.resolved_retry_policy

        # Virtual timing of the inter-server exchange (the only stage
        # with cross-PS fan-in here; group uploads and dissemination are
        # intra-group). Barrier mode just measures; deadline mode excludes
        # the contributions that missed the deadline, buffering them per
        # PS for bounded-staleness admission.
        self.clock, self._deadline_s = make_round_clock(config)
        self._late_exchanges = StaleBuffer()

        # Codecs on all three legs. The shared reference is trainer-wide:
        # it starts at the initial model every party holds and advances to
        # the mean of the PSs' combined global models each round — the
        # natural "posted" model all groups track up to inter-server
        # disagreement. Error-feedback residuals are per sender: upload
        # residuals advance only on delivered sends, and a per-receiver
        # encode (a Byzantine PS's client-dependent dissemination) carries
        # none.
        self.codec = DeltaCodec(config.resolved_upload_codecs,
                                initial_vector)

        self.history = TrainingHistory()
        self._round_index = 0

    def run_round(self, *, evaluate: bool = True) -> RoundRecord:
        """One grouped round: train, group-aggregate, exchange, disseminate."""
        config = self.config
        t = self._round_index
        messages_before = self.network.stats.messages_by_tag.get("upload", 0)
        bytes_before = self.network.stats.bytes_by_tag.get("upload", 0)
        counters = SendCounters()
        codec = self.codec

        # 1+2: local training, upload to the fixed group PS.
        for client, group in zip(self.clients, self.group_of_client):
            vector = client.local_train(t, config.local_steps)
            payload, residual = codec.encode(vector, client.client_id)
            if send_with_retry(self.network, Message(
                NodeId.client(client.client_id), NodeId.server(group),
                payload, tag="upload", round_index=t,
            ), self.retry_policy, counters):
                codec.adopt("upload", client.client_id, residual)

        # 3: per-group aggregation (honest on every PS).
        for server in self.servers:
            uploads = [codec.decode(m.payload) for m in
                       self.network.receive(NodeId.server(server.server_id))]
            server.aggregate(uploads)
        all_aggregates = np.stack(
            [server.current_aggregate for server in self.servers]
        )

        # 4: inter-server exchange. What PS j *sends* to peers is its
        # dissemination output (tampered on Byzantine PSs); each benign PS
        # combines the contributions delivered to it (its own true
        # aggregate always included — a PS is never late to itself).
        outgoing = [
            server.disseminate(round_index=t,
                               all_server_aggregates=all_aggregates)
            for server in self.servers
        ]
        num_servers = config.num_servers
        late_ids, stage_s = time_leg(self.clock, t, "inter_server",
                                     range(num_servers), self._deadline_s)
        late = frozenset(late_ids)
        # Bounded-staleness admission: a PS late *again* this round is
        # represented by its buffered previous model (the message finally
        # arriving); an on-time PS supersedes and drops its stale buffer.
        admitted_stale = self._late_exchanges.take_admissible(
            t, config.max_staleness, late
        )
        for sid in late_ids:
            self._late_exchanges.put(sid, t, outgoing[sid])
        # One encode per sender per round (the exchange is a broadcast of
        # the same model to every peer): residual-fed for fresh sends,
        # residual-free for stale re-sends.
        exchange_payloads: Dict[int, object] = {
            sid: codec.encode_broadcast(admitted_stale[sid], t)
            for sid in admitted_stale
        }
        for sid in range(num_servers):
            if sid not in late:
                exchange_payloads[sid] = codec.encode_broadcast(
                    outgoing[sid], t, sid, table="exchange"
                )
        global_models: List[np.ndarray] = []
        for server in self.servers:
            # Inter-server traffic: one message per contributing peer.
            for peer in sorted(exchange_payloads):
                if peer == server.server_id:
                    continue
                send_with_retry(self.network, Message(
                    NodeId.server(peer), NodeId.server(server.server_id),
                    exchange_payloads[peer],
                    tag="inter_server", round_index=t,
                ), self.retry_policy, counters)
            # Receivers combine exactly what the wire delivered, decoded.
            delivered = {
                m.sender.index: codec.decode(m.payload)
                for m in self.network.receive(NodeId.server(server.server_id))
            }
            delivered[server.server_id] = server.current_aggregate
            global_models.append(self.inter_server_rule(
                np.stack([delivered[sid] for sid in sorted(delivered)])
            ))

        # 5: group dissemination — Byzantine PSs ignore the exchange and
        # send their tampered model; clients have no second opinion.
        train_loss = float(np.mean(
            [client.last_train_loss for client in self.clients]
        ))
        # Benign groups broadcast one model to all members: encode once
        # per group with the PS's dissemination residual. A Byzantine
        # PS's output is client-dependent, so it is encoded per receiver
        # without residual.
        group_payloads: Dict[int, object] = {
            group: codec.encode_broadcast(global_models[group], t, group,
                                          table="dissemination")
            for group, server in enumerate(self.servers)
            if not server.is_byzantine
        }
        for client, group in zip(self.clients, self.group_of_client):
            server = self.servers[group]
            if server.is_byzantine:
                model = server.disseminate(
                    round_index=t, client_id=client.client_id,
                    all_server_aggregates=all_aggregates,
                )
                payload = codec.encode_broadcast(model, t)
            else:
                payload = group_payloads[group]
            send_with_retry(self.network, Message(
                NodeId.server(group), NodeId.client(client.client_id),
                payload, tag="dissemination", round_index=t,
            ), self.retry_policy, counters)
            received = self.network.receive(NodeId.client(client.client_id))
            if received:
                client.set_model_vector(codec.decode(received[-1].payload))
                client.optimizer.reset_state()

        # Next round's shared reference: the consensus the groups track up
        # to inter-server disagreement.
        if codec.active:
            codec.advance(np.mean(np.stack(global_models), axis=0))

        record = RoundRecord(
            round_index=t,
            train_loss=train_loss,
            upload_messages=(
                self.network.stats.messages_by_tag.get("upload", 0)
                - messages_before
            ),
            upload_bytes=(
                self.network.stats.bytes_by_tag.get("upload", 0) - bytes_before
            ),
            upload_retries=counters.retries,
            upload_failures=counters.failures,
            dissemination_messages=config.num_clients,
            simulated_time_s=stage_s,
            deadline_missed=len(late_ids),
            late_admitted=len(admitted_stale),
        )
        if evaluate:
            record.test_loss, record.test_accuracy = self._evaluate()
        self.history.append(record)
        self._round_index += 1
        return record

    def _evaluate(self) -> "tuple[float, float]":
        """Mean (loss, accuracy) over one client per group, then averaged
        with group sizes as weights — the population-average accuracy."""
        group_sizes = np.bincount(self.group_of_client,
                                  minlength=self.config.num_servers)
        losses, accuracies, weights = [], [], []
        seen_groups = set()
        for client, group in zip(self.clients, self.group_of_client):
            if group in seen_groups:
                continue
            seen_groups.add(group)
            loss, acc = client.evaluate(self.test_dataset)
            losses.append(loss)
            accuracies.append(acc)
            weights.append(group_sizes[group])
        weights_arr = np.asarray(weights, dtype=np.float64)
        weights_arr /= weights_arr.sum()
        return (float(np.dot(losses, weights_arr)),
                float(np.dot(accuracies, weights_arr)))

    def run(self, num_rounds: int, *, eval_every: int = 1) -> TrainingHistory:
        """Run ``num_rounds`` rounds, evaluating every ``eval_every``."""
        if num_rounds <= 0:
            raise ConfigurationError(f"num_rounds must be positive, got {num_rounds}")
        if eval_every <= 0:
            raise ConfigurationError(f"eval_every must be positive, got {eval_every}")
        for offset in range(num_rounds):
            is_last = offset == num_rounds - 1
            self.run_round(
                evaluate=is_last or (self._round_index + 1) % eval_every == 0
            )
        return self.history
