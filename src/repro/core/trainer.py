"""The Fed-MS training loop (Algorithm 1) and the vanilla FedAvg baseline.

:class:`FedMSTrainer` wires together every substrate in the library: clients
(:mod:`repro.core.client`) train locally and upload through the simulated
edge network (:mod:`repro.simulation`) to benign and Byzantine parameter
servers (:mod:`repro.core.server`, :mod:`repro.attacks`); each client then
filters the received global models with the beta-trimmed mean
(:mod:`repro.aggregation`) to obtain its next feasible global model.

The round itself is structured as named phases on a
:class:`~repro.simulation.scheduler.RoundScheduler` (train, upload,
aggregate, disseminate, filter), with an optional
:class:`~repro.simulation.faults.FaultInjector` driven as a per-round hook.
Under faults the loop degrades instead of crashing: failed uploads retry
with bounded backoff and re-sample an alive PS, crashed PSs simply miss
rounds, and a client receiving only ``q < P`` models filters them with the
degraded-quorum trim count (falling back to its previous feasible model
when ``q`` is too small to out-vote the Byzantine PSs).

Two orthogonal robustness layers ride on top (see docs/faults.md): with
``config.aggregation_mode="deadline"`` a deterministic
:class:`~repro.simulation.clock.VirtualClock` times every broadcast and
the round aggregates whatever arrived by the deadline (late broadcasts
are buffered and admitted next round within ``config.max_staleness``);
with ``config.health_scoring`` a per-PS reputation ledger
(:mod:`repro.core.health`) circuit-breaks persistently-bad PSs out of
upload sampling and quorum counting, never below the ``2B+1`` floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set

import numpy as np

from ..aggregation import (
    AggregationRule,
    degraded_trim_count,
    make_rule,
)
from ..attacks.base import Attack
from ..attacks.client_attacks import ClientAttack, ClientAttackContext
from ..common.errors import ConfigurationError
from ..common.rng import RngFactory
from ..data.datasets import ArrayDataset
from ..execution import FilterJob, FilterSpec, WorkerSpec, make_backend
from ..nn.module import Module
from ..nn.schedules import LRSchedule
from ..nn.serialization import to_vector
from ..simulation.faults import FaultInjector
from ..simulation.network import Message, Network, NodeId
from ..simulation.scheduler import RoundScheduler
from .client import Client
from .config import FedMSConfig
from .filtering import FilterOutcome, quorum_floor, resolve_filter
from .health import HealthLedger, HealthPolicy
from .history import RoundRecord, TrainingHistory
from .server import ByzantineParameterServer, ParameterServer
from .upload import UploadStrategy, make_upload_strategy
from .wire import (
    DeltaCodec,
    SendCounters,
    StaleBuffer,
    make_round_clock,
    send_with_retry,
    time_leg,
)

__all__ = ["FedMSTrainer", "make_fedavg_trainer"]

ModelFactory = Callable[[np.random.Generator], Module]


@dataclass
class _RoundState:
    """Working state threaded through the phases of one round."""

    participants: List[Client] = field(default_factory=list)
    active_clients: List[Client] = field(default_factory=list)
    vectors: Dict[int, np.ndarray] = field(default_factory=dict)
    start_vectors: Dict[int, np.ndarray] = field(default_factory=dict)
    train_loss: float = float("nan")
    all_aggregates: Optional[np.ndarray] = None
    broadcast_cache: Dict[int, np.ndarray] = field(default_factory=dict)
    # The wire payload per broadcasting PS; with codecs active the cache
    # above holds its *decoded* round-trip, which is what clients see.
    broadcast_payloads: Dict[int, object] = field(default_factory=dict)
    fault_events: List[str] = field(default_factory=list)
    alive_server_ids: List[int] = field(default_factory=list)
    # Alive minus health-excluded: the PSs that take uploads, broadcast
    # and count toward quorum this round. Equal to ``alive_server_ids``
    # when health scoring is off.
    admitted_server_ids: List[int] = field(default_factory=list)
    excluded_server_ids: List[int] = field(default_factory=list)
    late_server_ids: List[int] = field(default_factory=list)
    deadline_missed: int = 0
    late_admitted: int = 0
    simulated_time_s: float = 0.0
    sends: SendCounters = field(default_factory=SendCounters)
    models_received: Dict[int, int] = field(default_factory=dict)
    degraded_clients: List[int] = field(default_factory=list)
    fallback_clients: List[int] = field(default_factory=list)
    estimated_byzantine: Optional[int] = None
    filtered_model_ids: Set[int] = field(default_factory=set)


class FedMSTrainer:
    """Simulates Fed-MS end to end.

    Parameters
    ----------
    config:
        Topology and hyper-parameters (``K``, ``P``, ``B``, ``E``, beta, ...).
    model_factory:
        Builds one model replica from a random generator. Called once per
        client plus once for the shared initial model ``w_0``.
    client_datasets:
        One local dataset per client (length must equal ``config.num_clients``);
        typically the output of :func:`repro.data.dirichlet_partition`.
    test_dataset:
        Held-out data for accuracy measurements.
    attack:
        The Byzantine behavior deployed on every Byzantine PS. Required when
        ``config.num_byzantine > 0``.
    byzantine_ids:
        Which PSs are Byzantine. Default: a uniformly random subset of size
        ``B`` (their distribution is unknown to the clients, per the threat
        model).
    filter_rule:
        The client-side ``Def()``. Default: the rule named by
        ``config.filter_rule_name`` (the beta-trimmed mean with
        ``beta = config.resolved_trim_ratio`` when unset). Pass
        ``make_rule("mean")`` for the paper's undefended "Vanilla FL"
        comparison; an explicit closure wins over the config name.
    root_dataset:
        Trusted data for the ``loss_based`` filter's root batch; defaults
        to ``test_dataset``. Ignored by every other rule.
    lr_schedule:
        Optional global-step learning-rate schedule (e.g. the Theorem 1
        policy); defaults to a constant ``config.learning_rate``.
    flatten_inputs:
        Set when the model expects flat feature vectors but the datasets
        hold images.
    network:
        The simulated transport; a fresh loss-free :class:`Network` by
        default. Supply one with failure injection for robustness studies.
    fault_injector:
        Optional deterministic fault schedule (PS crashes, stragglers,
        client dropouts, link partitions). The injector is registered as a
        per-round scheduler hook and as a drop rule on the network; the
        degradation knobs (deadline, retry budget) come from
        ``config.faults``.
    client_attack / num_byzantine_clients / byzantine_client_ids:
        The future-work extension: Byzantine *clients* that tamper with the
        local model they upload. Placement defaults to a uniformly random
        subset, like the Byzantine PSs.
    server_rule:
        How benign PSs combine the uploads they receive. Default: the
        paper's plain average; pass a robust rule (e.g.
        ``make_rule("trimmed_mean", trim_ratio=...)``) to defend against
        Byzantine clients.
    """

    def __init__(self, config: FedMSConfig, *, model_factory: ModelFactory,
                 client_datasets: Sequence[ArrayDataset],
                 test_dataset: ArrayDataset,
                 attack: Optional[Attack] = None,
                 byzantine_ids: Optional[Sequence[int]] = None,
                 filter_rule: Optional[AggregationRule] = None,
                 root_dataset: Optional[ArrayDataset] = None,
                 lr_schedule: Optional[LRSchedule] = None,
                 weight_decay: float = 0.0,
                 flatten_inputs: bool = False,
                 network: Optional[Network] = None,
                 fault_injector: Optional[FaultInjector] = None,
                 client_attack: Optional[ClientAttack] = None,
                 num_byzantine_clients: int = 0,
                 byzantine_client_ids: Optional[Sequence[int]] = None,
                 server_rule: Optional[AggregationRule] = None) -> None:
        if len(client_datasets) != config.num_clients:
            raise ConfigurationError(
                f"{len(client_datasets)} client datasets for "
                f"{config.num_clients} clients"
            )
        if config.num_byzantine > 0 and attack is None:
            raise ConfigurationError(
                "config.num_byzantine > 0 requires an attack"
            )
        if num_byzantine_clients > 0 and client_attack is None:
            raise ConfigurationError(
                "num_byzantine_clients > 0 requires a client_attack"
            )
        if 2 * num_byzantine_clients >= config.num_clients \
                and num_byzantine_clients > 0:
            raise ConfigurationError(
                f"Byzantine clients must be a strict minority: "
                f"2*{num_byzantine_clients} >= {config.num_clients}"
            )
        self.config = config
        self.test_dataset = test_dataset
        self.network = network if network is not None else Network()
        self.rngs = RngFactory(config.seed)
        self.upload_strategy: UploadStrategy = make_upload_strategy(config)
        # Def() in every form the round loop needs: the plain closure, a
        # picklable FilterSpec when the backends can fan it out, the beta
        # for degraded-quorum trim-count recomputation (static trimmed
        # mean only — estimating rules re-estimate on the reduced stack),
        # and the info_fn that yields B-hat + rejected rows for recording.
        resolved = resolve_filter(
            config,
            filter_rule=filter_rule,
            model_factory=model_factory,
            root_dataset=(root_dataset if root_dataset is not None
                          else test_dataset),
            flatten_inputs=flatten_inputs,
            root_rng=self.rngs.make("filter/root_batch"),
        )
        self.filter_rule: AggregationRule = resolved.rule
        self._degraded_trim_ratio: Optional[float] = \
            resolved.degraded_trim_ratio
        self._filter_info_fn = resolved.info_fn
        self._resolved_filter = resolved

        self.fault_config = config.resolved_faults
        self.fault_injector = fault_injector
        if fault_injector is not None:
            fault_injector.plan.validate_topology(
                num_clients=config.num_clients,
                num_servers=config.num_servers,
            )
            if fault_injector.round_deadline_s is None:
                fault_injector.round_deadline_s = \
                    self.fault_config.round_deadline_s
            self.network.add_drop_rule(fault_injector.should_drop)
        self.retry_policy = config.resolved_retry_policy

        # Virtual message timing. Every arrival draw is a pure function of
        # (seed, round, leg, sender), so timing never perturbs the training
        # streams and stays bit-identical across execution backends. In
        # barrier mode the clock only *measures* (simulated round time); in
        # deadline mode it decides which broadcasts make the round.
        self.clock, self._deadline_s = make_round_clock(config)
        # Broadcasts that missed a round's deadline, buffered per PS for
        # bounded-staleness admission.
        self._late_broadcasts = StaleBuffer()

        # Per-PS reputation ledger + circuit breaker (docs/faults.md).
        # Runs entirely in the main process on structured evidence, so it
        # cannot break backend bit-identity.
        self._health: Optional[HealthLedger] = (
            HealthLedger(config.num_servers, HealthPolicy.from_config(config))
            if config.health_scoring else None
        )

        # Shared initial model w_0 (Algorithm 1, line 6).
        init_model = model_factory(self.rngs.make("init/global"))
        initial_vector = to_vector(init_model,
                                   include_buffers=config.include_buffers)
        self._initial_vector = initial_vector

        # Upload codecs. Every wire leg carries the *delta* against one
        # shared reference every honest party knows: the previous round's
        # consensus filter output (w_0 before the first round). Upload
        # deltas are then pure local-training progress and decoded
        # broadcasts agree exactly on every coordinate the codec dropped
        # (they all decode to the reference there), so the coordinate-wise
        # trimmed mean is not skewed by per-PS staleness. Attacks tamper
        # with the pre-encode vector (dissemination encodes the PS's
        # already-tampered output), so colluders gain nothing from the
        # codec. Clients keep error-feedback residuals on uploads, PSs on
        # broadcasts; anything the *filter* declines only leaves the
        # reference unchanged — the senders' next deltas still contain it,
        # an automatic retransmission. See docs/upload.md.
        self.codec = DeltaCodec(config.resolved_upload_codecs,
                                initial_vector)

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
                weight_decay=weight_decay,
                include_buffers=config.include_buffers,
                flatten_inputs=flatten_inputs,
                batch_seed=config.seed,
            )
            client.set_model_vector(initial_vector)
            self.clients.append(client)

        # The execution backend runs the embarrassingly-parallel stages
        # (local training, client-side filtering); all backends are
        # bit-identical for the same seed, so this is purely a wall-clock
        # choice. See docs/execution.md.
        self.execution = make_backend(
            config.resolved_execution_backend,
            clients=self.clients,
            spec=WorkerSpec(
                seed=config.seed,
                local_steps=config.local_steps,
                batch_size=config.batch_size,
                learning_rate=config.learning_rate,
                weight_decay=weight_decay,
                include_buffers=config.include_buffers,
                flatten_inputs=flatten_inputs,
                model_dim=int(initial_vector.size),
                num_clients=config.num_clients,
                # Makes the process backend allocate the shared
                # codec-reference vector workers decode against.
                codec_references=self.codec.active,
                model_factory=model_factory,
                datasets=list(client_datasets),
                lr_schedule=lr_schedule,
            ),
            num_workers=config.resolved_num_workers,
        )
        # Picklable description of the Def() filter, when it has one:
        # fan-out-able to workers. Estimating rules and custom closures
        # are applied in-process.
        self._filter_spec: Optional[FilterSpec] = resolved.spec

        self.byzantine_ids = self._resolve_byzantine_ids(byzantine_ids)
        self.client_attack = client_attack
        self.byzantine_client_ids = self._resolve_byzantine_client_ids(
            num_byzantine_clients, byzantine_client_ids
        )
        self._client_attack_rngs = {
            k: self.rngs.make(f"client_attack/{k}")
            for k in self.byzantine_client_ids
        }
        self.servers: List[ParameterServer] = []
        for i in range(config.num_servers):
            if i in self.byzantine_ids:
                assert attack is not None
                self.servers.append(ByzantineParameterServer(
                    i, attack, rng=self.rngs.make(f"attack/server/{i}"),
                    initial_model=initial_vector,
                    aggregation_rule=server_rule,
                ))
            else:
                self.servers.append(ParameterServer(
                    i, initial_model=initial_vector,
                    aggregation_rule=server_rule,
                ))

        self._assignment_rng = self.rngs.make("upload/assignment")
        self._participation_rng = self.rngs.make("participation")
        self._retry_rng = self.rngs.make("upload/retry")
        self.history = TrainingHistory()

        # Algorithm 1's three synchronized stages, as scheduler phases
        # (per-phase wall-clock lands in ``scheduler.phase_seconds``).
        self.scheduler = RoundScheduler()
        if fault_injector is not None:
            self.scheduler.add_round_hook(self._begin_round_faults)
        self.scheduler.add_phase("train", self._phase_train)
        self.scheduler.add_phase("upload", self._phase_upload)
        self.scheduler.add_phase("aggregate", self._phase_aggregate)
        self.scheduler.add_phase("disseminate", self._phase_disseminate)
        self.scheduler.add_phase("filter", self._phase_filter)
        self._round: Optional[_RoundState] = None

    def _resolve_byzantine_ids(self,
                               byzantine_ids: Optional[Sequence[int]]) -> frozenset:
        config = self.config
        if byzantine_ids is None:
            chosen = self.rngs.make("byzantine/placement").choice(
                config.num_servers, size=config.num_byzantine, replace=False
            )
            return frozenset(int(i) for i in chosen)
        ids = frozenset(int(i) for i in byzantine_ids)
        if len(ids) != config.num_byzantine:
            raise ConfigurationError(
                f"byzantine_ids has {len(ids)} distinct ids, expected "
                f"{config.num_byzantine}"
            )
        if ids and (min(ids) < 0 or max(ids) >= config.num_servers):
            raise ConfigurationError(
                f"byzantine_ids out of range [0, {config.num_servers})"
            )
        return ids

    def _resolve_byzantine_client_ids(self, count: int,
                                      ids: Optional[Sequence[int]]
                                      ) -> frozenset:
        config = self.config
        if ids is None:
            if count == 0:
                return frozenset()
            chosen = self.rngs.make("byzantine/client_placement").choice(
                config.num_clients, size=count, replace=False
            )
            return frozenset(int(i) for i in chosen)
        resolved = frozenset(int(i) for i in ids)
        if len(resolved) != count:
            raise ConfigurationError(
                f"byzantine_client_ids has {len(resolved)} distinct ids, "
                f"expected {count}"
            )
        if resolved and (min(resolved) < 0
                         or max(resolved) >= config.num_clients):
            raise ConfigurationError(
                f"byzantine_client_ids out of range [0, {config.num_clients})"
            )
        return resolved

    # -- one global round ----------------------------------------------------

    def run_round(self, *, evaluate: bool = True) -> RoundRecord:
        """Execute local training, aggregation, dissemination and filtering."""
        stats = self.network.stats
        bytes_before = stats.bytes_by_tag.get("upload", 0)
        messages_before = stats.messages_by_tag.get("upload", 0)
        dissemination_before = stats.messages_by_tag.get("dissemination", 0)

        state = self._round = _RoundState()
        t = self.scheduler.run_round()
        # Round deadline: whatever is still queued (e.g. models addressed
        # to offline clients) expires here and is counted as cleared.
        cleared = self.network.clear()

        health_scores: Dict[int, float] = {}
        breaker_states: Dict[int, str] = {}
        if self._health is not None:
            # Fold this round's structured evidence into the ledger; the
            # resulting exclusions take effect at the *next* round's start.
            crashed = (set(range(self.config.num_servers))
                       - set(state.alive_server_ids))
            state.fault_events.extend(self._health.observe_round(
                t,
                crashed=crashed,
                straggling=state.late_server_ids,
                filtered=state.filtered_model_ids,
            ))
            snapshot = self._health.snapshot()
            health_scores = snapshot["scores"]
            breaker_states = snapshot["states"]

        record = RoundRecord(
            round_index=t,
            train_loss=state.train_loss,
            upload_messages=(
                stats.messages_by_tag.get("upload", 0) - messages_before
            ),
            upload_bytes=(
                stats.bytes_by_tag.get("upload", 0) - bytes_before
            ),
            dissemination_messages=(
                stats.messages_by_tag.get("dissemination", 0)
                - dissemination_before
            ),
            upload_retries=state.sends.retries,
            upload_failures=state.sends.failures,
            cleared_messages=cleared,
            alive_servers=len(state.alive_server_ids),
            models_received=dict(state.models_received),
            degraded_clients=sorted(state.degraded_clients),
            fallback_clients=sorted(state.fallback_clients),
            fault_events=list(state.fault_events),
            estimated_byzantine=state.estimated_byzantine,
            filtered_model_ids=sorted(state.filtered_model_ids),
            simulated_time_s=state.simulated_time_s,
            deadline_missed=state.deadline_missed,
            late_admitted=state.late_admitted,
            health_scores=health_scores,
            breaker_states=breaker_states,
            excluded_servers=list(state.excluded_server_ids),
        )
        if evaluate:
            record.test_loss, record.test_accuracy = self._evaluate()
        self.history.append(record)
        self._round = None
        return record

    # -- round hook + phases -------------------------------------------------

    def _begin_round_faults(self, t: int) -> None:
        assert self.fault_injector is not None and self._round is not None
        self._round.fault_events = self.fault_injector.begin_round(t)

    def _alive_server_ids(self) -> List[int]:
        if self.fault_injector is None:
            return list(range(self.config.num_servers))
        return self.fault_injector.alive_servers(self.config.num_servers)

    def _phase_train(self, t: int) -> None:
        """Stage 1 (client side): local training on this round's cohort.

        With partial participation only a sampled subset trains and
        uploads; dropped-out clients sit the round out entirely.
        """
        config = self.config
        state = self._round
        assert state is not None
        state.alive_server_ids = self._alive_server_ids()
        state.admitted_server_ids = list(state.alive_server_ids)
        if self._health is not None:
            # Exclusion is decided at round start from the evidence of
            # *previous* rounds, and the ledger readmits the best-scored
            # open breakers whenever exclusion would push the counted
            # quorum below the 2B+1 floor.
            excluded = self._health.excluded_servers(
                state.alive_server_ids,
                quorum_floor=quorum_floor(config.num_byzantine),
            )
            state.excluded_server_ids = sorted(excluded)
            state.admitted_server_ids = [
                s for s in state.alive_server_ids if s not in excluded
            ]
        if config.participation_fraction < 1.0:
            chosen = self._participation_rng.choice(
                config.num_clients, size=config.participants_per_round,
                replace=False,
            )
            participants = [self.clients[int(i)] for i in np.sort(chosen)]
        else:
            participants = list(self.clients)
        if self.fault_injector is not None:
            participants = [
                client for client in participants
                if self.fault_injector.client_active(client.client_id)
            ]
        state.participants = participants
        jobs = []
        for client in participants:
            # The pre-training vector is the client's previous feasible
            # model — the fallback target when this round's quorum turns
            # out to be too small to filter safely.
            start_vector = client.model_vector()
            state.start_vectors[client.client_id] = start_vector
            jobs.append((client.client_id, start_vector))
        results = self.execution.train_clients(t, jobs)
        for client in participants:
            vector, loss = results[client.client_id]
            # Sync the main-process replica with the trained state (pool
            # backends trained a worker-side replica; for the serial
            # backend this re-loads the values the model already holds).
            client.set_model_vector(vector)
            client.last_train_loss = loss
            if client.client_id in self.byzantine_client_ids:
                assert self.client_attack is not None
                vector = self.client_attack.tamper(ClientAttackContext(
                    round_index=t,
                    client_id=client.client_id,
                    honest_update=vector,
                    global_model=state.start_vectors[client.client_id],
                    rng=self._client_attack_rngs[client.client_id],
                ))
            state.vectors[client.client_id] = vector
        if participants:
            state.train_loss = float(np.mean(
                [client.last_train_loss for client in participants]
            ))

    def _phase_upload(self, t: int) -> None:
        """Stage 2 (client side): sparse upload with bounded retry.

        Health-excluded PSs are removed from the sampling pool: the
        strategy assigns indices into the candidate list, which is the
        full ``range(P)`` when nothing is excluded — so with health
        scoring off (or no open breakers) the draws are bit-identical to
        the unpooled assignment.

        The successful send is the only one counted as an upload message
        (the ``O(K)`` accounting); failed attempts are attributed as drops
        and the retry attempts as ``retries_by_tag["upload"]``. A payload
        is encoded once per target — the reference is shared by every PS,
        so a retry re-sampled onto a different PS resends the same bytes —
        and the error-feedback residual advances only when it delivers.
        """
        state = self._round
        assert state is not None
        excluded = set(state.excluded_server_ids)
        candidates = [s for s in range(self.config.num_servers)
                      if s not in excluded]
        assignment = self.upload_strategy.assign(
            len(state.participants), len(candidates),
            rng=self._assignment_rng,
        )
        for client, targets in zip(state.participants, assignment):
            client_id = client.client_id
            for index in targets:
                payload, residual = self.codec.encode(
                    state.vectors[client_id], client_id
                )
                if send_with_retry(
                    self.network,
                    Message(NodeId.client(client_id),
                            NodeId.server(candidates[index]), payload,
                            tag="upload", round_index=t),
                    self.retry_policy, state.sends,
                    next_recipient=self._retry_recipient,
                ):
                    self.codec.adopt("upload", client_id, residual)

    def _retry_recipient(self, attempt: int,
                         failed: NodeId) -> Optional[NodeId]:
        """Upload retry target: the same PS, then a re-sampled admitted one."""
        assert self._round is not None
        target = self.retry_policy.next_target(
            attempt, failed.index, self._round.admitted_server_ids,
            rng=self._retry_rng,
        )
        return None if target is None else NodeId.server(target)

    def _phase_aggregate(self, t: int) -> None:
        """Stage 2 (server side): honest aggregation on every alive PS.

        Encoded uploads are decoded *before* aggregation — and therefore
        before any downstream ``Def()`` filtering — so robust rules always
        operate on dense updates.

        A crashed PS misses the round entirely — it neither drains its
        queue (uploads to it were already lost in transit) nor appends to
        its aggregate history, so on recovery it resumes from its last
        pre-crash aggregate like a rebooted cache.
        """
        state = self._round
        assert state is not None
        admitted = set(state.admitted_server_ids)
        for server in self.servers:
            # A health-excluded PS sits the round out like a crashed one:
            # it takes no uploads (clients did not sample it) and its
            # aggregate history freezes until readmission.
            if server.server_id not in admitted:
                continue
            uploads = [self.codec.decode(m.payload) for m in
                       self.network.receive(NodeId.server(server.server_id))]
            server.aggregate(uploads)
        # The adversary's view (Safeguard/Backward attacks) keeps the full
        # P-row shape; a crashed PS that never aggregated contributes w_0.
        state.all_aggregates = np.stack([
            server.aggregate_history[-1] if server.aggregate_history
            else self._initial_vector
            for server in self.servers
        ])

    def _phase_disseminate(self, t: int) -> None:
        """Stage 3 (server side): every admitted PS sends to every client.

        The virtual clock assigns each admitted PS's broadcast an arrival
        time. Barrier mode waits for the slowest (that max is the round's
        simulated duration); deadline mode closes the round at the
        deadline — broadcasts arriving later are withheld this round,
        buffered, and admitted next round while within the staleness
        bound, *only* when the sender produced no fresh on-time broadcast
        (a strategically-straggling PS never gets two votes in one round).
        """
        state = self._round
        assert state is not None
        admitted = set(state.admitted_server_ids)
        if self.fault_injector is None:
            state.active_clients = list(self.clients)
        else:
            state.active_clients = [
                client for client in self.clients
                if self.fault_injector.client_active(client.client_id)
            ]
        late_ids, stage_s = time_leg(self.clock, t, "broadcast",
                                     sorted(admitted), self._deadline_s)
        state.late_server_ids = late_ids
        state.deadline_missed = len(late_ids)
        state.simulated_time_s = stage_s + state.sends.backoff_s
        self.scheduler.record_simulated("disseminate", stage_s)
        late = set(late_ids)
        # Buffered late broadcasts still within the staleness bound go out
        # first; senders crashed or excluded this round keep their buffer.
        stale = self._late_broadcasts.take_admissible(
            t, self.config.max_staleness, late,
            absent=set(range(self.config.num_servers)) - admitted,
        )
        for server_id, vector in stale.items():
            payload = self.codec.encode_broadcast(vector, t)
            for client in self.clients:
                self.network.send(Message(
                    NodeId.server(server_id),
                    NodeId.client(client.client_id),
                    payload,
                    tag="dissemination",
                    round_index=t,
                ))
            state.late_admitted += 1
        for client in self.clients:
            for server in self.servers:
                if server.server_id not in admitted \
                        or server.server_id in late:
                    continue
                payload = self._disseminated_payload(
                    server, client.client_id, t, state
                )
                self.network.send(Message(
                    NodeId.server(server.server_id),
                    NodeId.client(client.client_id),
                    payload,
                    tag="dissemination",
                    round_index=t,
                ))
        for server_id in late_ids:
            # The broadcast happened — it just missed the deadline. Buffer
            # the model as of *this* round for next-round stale admission.
            # Client-dependent attacks are flattened to their broadcast
            # form here (one vector per PS); a late tamperer loses its
            # per-client targeting, never gains from straggling.
            vector = self.servers[server_id].disseminate(
                round_index=t, client_id=None,
                all_server_aggregates=state.all_aggregates,
            )
            self._late_broadcasts.put(server_id, t, vector)

    def _phase_filter(self, t: int) -> None:
        """Stage 3 (client side): the Def() filter, quorum-aware.

        Per-client filtering is embarrassingly parallel, so every client
        whose rule has a picklable :class:`FilterSpec` is fanned out
        through the execution backend; custom filter closures run
        in-process.
        """
        state = self._round
        assert state is not None
        config = self.config
        shared_filtered = self._shared_filtered_model(state)
        expected = config.num_servers
        backend_jobs: List[FilterJob] = []
        for client in state.active_clients:
            messages = self.network.receive(NodeId.client(client.client_id))
            received = [self.codec.decode(message.payload)
                        for message in messages]
            quorum = len(received)
            state.models_received[client.client_id] = quorum
            if shared_filtered is not None:
                # Every client received the identical stack; adopt the
                # precomputed filter output instead of recomputing it K
                # times.
                client.set_model_vector(shared_filtered)
                client.optimizer.reset_state()
            elif quorum == 0:
                # A client can miss every global model this round; it
                # rolls back to its previous feasible model rather than
                # keep unfiltered local drift.
                self._fall_back(client, state)
            elif self._filter_info_fn is not None:
                # Estimating rules (adaptive-beta, loss-based) need no
                # expected-P trim count, so a reduced quorum is filtered
                # natively — B-hat is re-estimated on whatever arrived.
                if quorum < expected:
                    state.degraded_clients.append(client.client_id)
                outcome = self._filter_info_fn(np.stack(received))
                self._record_filter_outcome(
                    state, outcome,
                    sender_ids=[m.sender.index for m in messages],
                )
                client.set_model_vector(outcome.vector)
                client.optimizer.reset_state()
            elif quorum < expected and self._degraded_trim_ratio is not None:
                count = degraded_trim_count(
                    quorum, expected, self._degraded_trim_ratio
                )
                if count is None:
                    # Too few models to out-vote the Byzantine PSs
                    # (q <= 2B): keep the previous feasible model rather
                    # than adopt an adversary-controllable aggregate.
                    self._fall_back(client, state)
                else:
                    state.degraded_clients.append(client.client_id)
                    backend_jobs.append((
                        client.client_id,
                        self._filter_job_payload(messages, received),
                        FilterSpec("trim_count", count),
                    ))
            elif self._filter_spec is not None:
                backend_jobs.append((
                    client.client_id,
                    self._filter_job_payload(messages, received),
                    self._filter_spec,
                ))
            else:
                client.filter_received(received, self.filter_rule)
        if backend_jobs:
            # Workers decode encoded payloads against the reference they
            # were encoded with; it advances only after these jobs ran.
            results = self.execution.filter_clients(
                backend_jobs, references=self.codec.reference
            )
            for client_id, vector in results.items():
                client = self.clients[client_id]
                client.set_model_vector(vector)
                client.optimizer.reset_state()
        if self.codec.active:
            # Advance the shared reference to the consensus the filter just
            # produced. Client 0's post-filter model is that consensus on
            # the healthy path (all clients coincide); on degraded rounds
            # any single choice works — the next deltas carry each party's
            # offset from it, so nothing is lost, only re-sent.
            self.codec.advance(self.clients[0].model_vector())

    def _filter_job_payload(self, messages: Sequence[Message],
                            received: List[np.ndarray]) -> object:
        """Backend filter-job payload for one client's received models.

        In-process backends get the dense rows the receiver already
        decoded (memoised, so a broadcast is decoded once for all its
        receivers). With a codec active on the process backend, the
        *encoded* updates cross the executor queue instead — smaller
        transfers is the point — and workers decode them against the
        shared reference.
        """
        if self.codec.active and self.execution.name == "process":
            return [message.payload for message in messages]
        return received

    def _fall_back(self, client: Client, state: _RoundState) -> None:
        """Restore ``client``'s previous feasible model.

        Undoes this round's local training (if the client trained): without
        a safely filterable quorum the client must not let unfiltered local
        drift replace the last model it knows satisfied the filter.
        """
        state.fallback_clients.append(client.client_id)
        start_vector = state.start_vectors.get(client.client_id)
        if start_vector is not None:
            client.set_model_vector(start_vector)
            client.optimizer.reset_state()

    def _disseminated_payload(self, server: ParameterServer, client_id: int,
                              round_index: int, state: _RoundState) -> object:
        """Wire payload ``server`` sends to ``client_id``.

        Attacks that are not client-dependent produce one tampered vector
        per round, so it is computed (and encoded) once and broadcast;
        ``state.broadcast_cache`` then holds the model *as receivers decode
        it* — the encode/decode round-trip when a codec is active — which
        is exactly what the shared-filter fast path must operate on.
        """
        client_dependent = (
            isinstance(server, ByzantineParameterServer)
            and server.attack.is_client_dependent
        )
        if client_dependent:
            model = server.disseminate(
                round_index=round_index, client_id=client_id,
                all_server_aggregates=state.all_aggregates,
            )
            # No broadcast residual: a per-receiver encode must not
            # advance per-round sender state once per client.
            return self.codec.encode_broadcast(model, round_index)
        server_id = server.server_id
        if server_id not in state.broadcast_cache:
            model = server.disseminate(
                round_index=round_index, client_id=None,
                all_server_aggregates=state.all_aggregates,
            )
            payload = self.codec.encode_broadcast(model, round_index,
                                                  server_id)
            state.broadcast_payloads[server_id] = payload
            state.broadcast_cache[server_id] = self.codec.decode(payload)
        return state.broadcast_payloads[server_id]

    def _record_filter_outcome(self, state: _RoundState,
                               outcome: FilterOutcome,
                               sender_ids: Sequence[int]) -> None:
        """Fold one client's estimating-filter verdict into the round.

        ``estimated_byzantine`` keeps the worst (largest) per-client
        estimate; ``filtered_model_ids`` accumulates every PS whose model
        any client rejected.
        """
        if outcome.estimated_byzantine is not None:
            previous = state.estimated_byzantine
            state.estimated_byzantine = (
                outcome.estimated_byzantine if previous is None
                else max(previous, outcome.estimated_byzantine)
            )
        for row in outcome.rejected_rows:
            state.filtered_model_ids.add(int(sender_ids[row]))

    def _shared_filtered_model(self, state: _RoundState
                               ) -> Optional[np.ndarray]:
        """Filter output shared by all clients, when provably identical.

        When every PS broadcast one model this round (no client-dependent
        attack) and the network cannot drop messages, all clients receive
        the same ``P`` models and the filter is a pure function of that
        stack — so it is computed once. Returns ``None`` whenever per-client
        results could differ (inconsistent attacks, lossy networks, or any
        fault injection).
        """
        broadcast_cache = state.broadcast_cache
        if not self.network.is_lossless \
                or len(broadcast_cache) != len(self.servers):
            return None
        stack = np.stack([
            broadcast_cache[server.server_id] for server in self.servers
        ])
        if self._filter_info_fn is not None:
            # Stack rows follow server-id order, so rejected row i is PS i.
            outcome = self._filter_info_fn(stack)
            self._record_filter_outcome(
                state, outcome,
                sender_ids=[server.server_id for server in self.servers],
            )
            return outcome.vector
        return self.filter_rule(stack)

    def _evaluate(self) -> "tuple[float, float]":
        """Mean (loss, accuracy) over the first ``eval_clients`` clients.

        Hot path: after a lossless round without client-dependent attacks
        every client holds the *same* filtered model, so evaluating each
        one repeats identical forward passes. When the sampled clients'
        vectors are bit-equal the test set is scored once.
        """
        eval_clients = self.clients[:self.config.eval_clients]
        if len(eval_clients) > 1:
            reference = eval_clients[0].model_vector()
            if all(np.array_equal(reference, client.model_vector())
                   for client in eval_clients[1:]):
                loss, acc = eval_clients[0].evaluate(self.test_dataset)
                return float(loss), float(acc)
        losses, accuracies = [], []
        for client in eval_clients:
            loss, acc = client.evaluate(self.test_dataset)
            losses.append(loss)
            accuracies.append(acc)
        return float(np.mean(losses)), float(np.mean(accuracies))

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Release execution-backend resources (worker pools, shared memory).

        Idempotent; a trainer on the serial backend has nothing to release.
        Use the trainer as a context manager to get this automatically.
        """
        self.execution.close()

    def __enter__(self) -> "FedMSTrainer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- persistence -----------------------------------------------------------

    def save_checkpoint(self, path: str) -> None:
        """Persist the run so :meth:`load_checkpoint` can resume it.

        Stores the current shared global model (client 0's — after a round
        all clients coincide up to client-dependent attacks), every PS's
        latest aggregate (the state Backward/Safeguard attacks depend on),
        and the round index. RNG streams are derived from (seed, names), so
        a resumed run is reproducible though not bit-identical to an
        uninterrupted one (the streams do not record their position).
        """
        import os

        payload: Dict[str, np.ndarray] = {
            "round_index": np.asarray(self.scheduler.round_index),
            "global_model": self.clients[0].model_vector(),
        }
        for server in self.servers:
            if server.aggregate_history:
                payload[f"server/{server.server_id}/aggregate"] = \
                    server.current_aggregate
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        np.savez(path, **payload)

    def load_checkpoint(self, path: str) -> int:
        """Restore a run saved by :meth:`save_checkpoint`.

        Returns the restored round index. The next :meth:`run_round`
        continues from there.
        """
        import os

        if not os.path.exists(path) and os.path.exists(path + ".npz"):
            path = path + ".npz"
        with np.load(path, allow_pickle=False) as archive:
            round_index = int(archive["round_index"])
            global_model = archive["global_model"]
            for server in self.servers:
                key = f"server/{server.server_id}/aggregate"
                if key in archive.files:
                    server.aggregate_history = [archive[key]]
        for client in self.clients:
            client.set_model_vector(global_model)
            client.optimizer.reset_state()
        self.scheduler.set_round_index(round_index)
        return round_index

    # -- multi-round driver ----------------------------------------------------

    def run(self, num_rounds: int, *, eval_every: int = 1,
            progress: Optional[Callable[[RoundRecord], None]] = None
            ) -> TrainingHistory:
        """Run ``num_rounds`` rounds; evaluate every ``eval_every`` rounds.

        The final round is always evaluated. ``progress``, when given, is
        called with each completed :class:`RoundRecord`.
        """
        if num_rounds <= 0:
            raise ConfigurationError(f"num_rounds must be positive, got {num_rounds}")
        if eval_every <= 0:
            raise ConfigurationError(f"eval_every must be positive, got {eval_every}")
        for offset in range(num_rounds):
            is_last = offset == num_rounds - 1
            should_evaluate = (
                is_last or (self.scheduler.round_index + 1) % eval_every == 0
            )
            record = self.run_round(evaluate=should_evaluate)
            if progress is not None:
                progress(record)
        return self.history


def make_fedavg_trainer(*, model_factory: ModelFactory,
                        client_datasets: Sequence[ArrayDataset],
                        test_dataset: ArrayDataset,
                        local_steps: int = 3, batch_size: int = 32,
                        learning_rate: float = 0.05, seed: int = 0,
                        lr_schedule: Optional[LRSchedule] = None,
                        flatten_inputs: bool = False) -> FedMSTrainer:
    """Classical single-PS FedAvg as a special case of the Fed-MS machinery.

    One benign server, no trimming: every client uploads to the unique PS
    and adopts its average directly — McMahan et al. (2017). Used as the
    non-Byzantine reference in convergence experiments.
    """
    config = FedMSConfig(
        num_clients=len(client_datasets),
        num_servers=1,
        num_byzantine=0,
        local_steps=local_steps,
        batch_size=batch_size,
        learning_rate=learning_rate,
        trim_ratio=0.0,
        seed=seed,
    )
    return FedMSTrainer(
        config,
        model_factory=model_factory,
        client_datasets=client_datasets,
        test_dataset=test_dataset,
        filter_rule=make_rule("mean"),
        lr_schedule=lr_schedule,
        flatten_inputs=flatten_inputs,
    )
