"""Population-scale orchestration: sample, train, aggregate tier by tier.

One :class:`PopulationTrainer` round:

1. **churn/faults** (round hooks) — the :class:`ChurnScheduler` updates the
   active population; an optional
   :class:`~repro.simulation.faults.FaultInjector` (its ``ServerCrash``
   events addressing *aggregator global indices*) activates this round's
   crashes.
2. **sample** — a ``(seed, round)``-derived stream draws the round's
   clients from the active set; only those materialize (model fetches are
   counted as ``model_fetch`` downlink traffic).
3. **train** — the sampled clients run local SGD through the configured
   execution path (serial / thread / process), bit-identical across all
   three, and upload to their static edge aggregator (``tier0_upload``).
4. **edge aggregate** — each edge averages its shard's uploads (previous
   output when it received none); Byzantine edges tamper what they
   *forward*, not what they computed.
5. **tier filter** — each higher tier applies the configured filter rule
   to the models forwarded by its children (``tier<t>_exchange`` traffic),
   with per-tier tolerance ``q_t >= 2*B_{t-1}+1``, degraded-quorum
   fallback, and per-tier ``B-hat``/rejection traces recorded in
   :class:`~repro.core.history.TrainingHistory`. The top of the hierarchy
   is the next global model.

Peak materialized-client state stays ``O(sampled + tiers)`` — asserted by
``benchmarks/test_ext_population.py`` at K up to 5000.

Wire-level extensions, shared with the other trainers through
:mod:`repro.core.wire` (see docs/upload.md and docs/faults.md):
``config.upload_codecs`` compresses the ``tier0_upload`` and
``tier<t>_exchange`` legs (deltas against the round's fetched global
model, with per-sender error feedback); every upload/exchange send
retries per ``config.resolved_retry_policy`` with full
:class:`~repro.simulation.network.TrafficStats` drop/retry attribution;
and with ``config.aggregation_mode="deadline"`` a
:class:`~repro.simulation.clock.VirtualClock` times each exchange leg so
parents combine whatever arrived by the deadline — late forwards are
buffered on the parent and admitted next round within
``config.max_staleness`` (no child contributes twice to one round).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..attacks.base import Attack
from ..common.errors import ConfigurationError
from ..common.rng import RngFactory
from ..core.client import Client
from ..core.config import FedMSConfig
from ..core.filtering import resolve_filter
from ..core.history import RoundRecord, TrainingHistory
from ..core.wire import (
    DeltaCodec,
    SendCounters,
    StaleBuffer,
    make_round_clock,
    send_with_retry,
    time_leg,
)
from ..data.datasets import ArrayDataset
from ..nn.module import Module
from ..nn.schedules import LRSchedule
from ..nn.serialization import to_vector
from ..simulation.faults import FaultInjector, FaultPlan
from ..simulation.network import Message, Network, NodeId
from ..simulation.scheduler import RoundScheduler
from .churn import ChurnPlan, ChurnScheduler
from .clients import ClientPopulation
from .executor import (
    PopulationJob,
    PopulationWorkerParams,
    make_population_executor,
)
from .sampling import sample_clients
from .tiers import TierAggregator, TierOutcome, TierTopology

__all__ = ["PopulationTrainer"]

ModelFactory = Callable[[np.random.Generator], Module]

#: Traffic tags of the sharded topology (see docs/population.md).
FETCH_TAG = "model_fetch"
UPLOAD_TAG = "tier0_upload"


def exchange_tag(tier: int) -> str:
    """Tag of the tier ``t-1 -> t`` forwarding leg."""
    return f"tier{tier}_exchange"


class _RoundState:
    """Mutable scratch shared by the phases of one round."""

    __slots__ = ("round_index", "active_ids", "sampled_ids", "churn_events",
                 "fault_events", "results", "tier_outcomes",
                 "materialized", "sends", "deadline_missed",
                 "late_admitted", "simulated_time_s")

    def __init__(self, round_index: int) -> None:
        self.round_index = round_index
        self.active_ids: List[int] = []
        self.sampled_ids: List[int] = []
        self.churn_events: List[str] = []
        self.fault_events: List[str] = []
        self.results: Dict[int, "tuple"] = {}
        self.tier_outcomes: Dict[int, Dict[int, TierOutcome]] = {}
        self.materialized = 0
        self.sends = SendCounters()
        self.deadline_missed = 0
        self.late_admitted = 0
        self.simulated_time_s = 0.0


class PopulationTrainer:
    """Sampled, churning, tier-aggregated Fed-MS at population scale.

    Requires ``config.population_size`` (matching ``len(shard_specs)``)
    and ``config.tier_spec``. ``config.tier_byzantine`` places Byzantine
    aggregators per tier (an ``attack`` is then required); explicit
    placement can be supplied via ``byzantine_tier_ids`` (tier -> tier-local
    ids). ``churn_plan`` defaults to an empty plan — build one with
    :meth:`ChurnPlan.from_config` or :meth:`ChurnPlan.sample` for a
    changing population. ``fault_plan`` crashes *aggregators* (by global
    index) and drops clients, composing with churn.
    """

    def __init__(self, config: FedMSConfig, *,
                 model_factory: ModelFactory,
                 shard_specs: Sequence[object],
                 test_dataset: ArrayDataset,
                 attack: Optional[Attack] = None,
                 byzantine_tier_ids: Optional[Dict[int, Sequence[int]]] = None,
                 churn_plan: Optional[ChurnPlan] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 root_dataset: Optional[ArrayDataset] = None,
                 lr_schedule: Optional[LRSchedule] = None,
                 flatten_inputs: bool = False,
                 network: Optional[Network] = None) -> None:
        if config.population_size is None:
            raise ConfigurationError(
                "PopulationTrainer needs config.population_size"
            )
        if config.tier_spec is None:
            raise ConfigurationError("PopulationTrainer needs config.tier_spec")
        if len(shard_specs) != config.population_size:
            raise ConfigurationError(
                f"{len(shard_specs)} shard specs for a population of "
                f"{config.population_size}"
            )
        self.config = config
        self.test_dataset = test_dataset
        self.network = network if network is not None else Network()
        self.rngs = RngFactory(config.seed)
        self.topology = TierTopology(config.tier_spec,
                                     config.resolved_tier_byzantine)
        if any(self.topology.byzantine) and attack is None:
            raise ConfigurationError(
                "tier_byzantine places Byzantine aggregators but no attack "
                "was supplied"
            )

        init_model = model_factory(self.rngs.make("population/init/global"))
        self._global_vector = to_vector(
            init_model, include_buffers=config.include_buffers
        )

        self.population = ClientPopulation(
            shard_specs,
            model_factory=model_factory,
            batch_size=config.batch_size,
            rngs=self.rngs,
            batch_seed=config.seed,
            learning_rate=config.learning_rate,
            lr_schedule=lr_schedule,
            include_buffers=config.include_buffers,
            flatten_inputs=flatten_inputs,
        )

        self.byzantine_tier_ids = self._place_byzantine(byzantine_tier_ids,
                                                        attack)
        self.tiers: List[List[TierAggregator]] = []
        for tier, count in enumerate(self.topology.counts):
            row: List[TierAggregator] = []
            chosen = self.byzantine_tier_ids.get(tier, frozenset())
            for index in range(count):
                expected = (len(self.topology.children_of(tier, index))
                            if tier >= 1 else None)
                byzantine = index in chosen
                row.append(TierAggregator(
                    tier, index,
                    global_index=self.topology.global_index(tier, index),
                    trim_budget=self.topology.trim_budget(tier),
                    expected_children=expected,
                    initial_model=self._global_vector,
                    attack=attack if byzantine else None,
                    attack_rng=(self.rngs.make(
                        f"population/attack/tier/{tier}/{index}")
                        if byzantine else None),
                ))
            self.tiers.append(row)

        # Estimating rules (adaptive-beta, loss-based) share one info_fn
        # across tiers; the static path uses each tier's own trim budget
        # instead of the flat config beta, so the resolved rule itself is
        # only consulted through info_fn.
        self._filter = resolve_filter(
            config,
            model_factory=model_factory,
            root_dataset=(root_dataset if root_dataset is not None
                          else test_dataset),
            flatten_inputs=flatten_inputs,
            root_rng=self.rngs.make("population/root"),
        )

        if churn_plan is not None:
            if churn_plan.population_size != config.population_size:
                raise ConfigurationError(
                    f"churn plan covers {churn_plan.population_size} "
                    f"clients, population has {config.population_size}"
                )
            self.churn_plan = churn_plan
        else:
            self.churn_plan = ChurnPlan(
                population_size=config.population_size
            )
        self.churn = ChurnScheduler(self.churn_plan)

        self.injector: Optional[FaultInjector] = None
        if fault_plan is not None and not fault_plan.is_empty:
            fault_plan.validate_topology(
                num_clients=config.population_size,
                num_servers=self.topology.total_aggregators,
            )
            self.injector = FaultInjector(
                fault_plan,
                round_deadline_s=config.resolved_faults.round_deadline_s,
            )
            self.network.add_drop_rule(self.injector.should_drop)

        self.retry_policy = config.resolved_retry_policy

        # Virtual timing of the tier-exchange legs. Barrier mode only
        # measures (per-round simulated time); deadline mode decides which
        # child forwards make each parent's round — late forwards are
        # buffered per parent (keyed by its global index) for
        # bounded-staleness admission. Draws live on their own named
        # streams, so they never perturb training randomness.
        self.clock, self._deadline_s = make_round_clock(config)
        self._late_forwards: Dict[int, StaleBuffer] = defaultdict(StaleBuffer)

        # Upload codecs on the client->edge and tier-exchange legs. Every
        # encoded payload is the delta against the round's fetched global
        # model (the reference all parties honestly share — clients pull it
        # over the reliable model_fetch plane). Exchange legs use the
        # trim-compatible broadcast pipeline so sibling forwards stay
        # coordinate-aligned under the parent's trimmed filter. Error
        # feedback: per-client residuals on uploads, per-child residuals
        # (keyed by global index) on exchange forwards, both adopted only
        # when the payload actually delivers.
        self.codec = DeltaCodec(config.resolved_upload_codecs,
                                self._global_vector)

        max_sample = max(1, round(config.sample_fraction
                                  * config.population_size))
        self.execution = make_population_executor(
            config.resolved_execution_backend,
            params=PopulationWorkerParams(
                model_factory=model_factory,
                batch_size=config.batch_size,
                local_steps=config.local_steps,
                learning_rate=config.learning_rate,
                seed=config.seed,
                lr_schedule=lr_schedule,
                include_buffers=config.include_buffers,
                flatten_inputs=flatten_inputs,
            ),
            num_workers=config.resolved_num_workers,
            max_useful=max_sample,
        )

        self._eval_client = Client(
            0,
            model_factory(self.rngs.make("population/eval")),
            test_dataset,
            batch_size=256,
            rng=np.random.default_rng(0),
            include_buffers=config.include_buffers,
            flatten_inputs=flatten_inputs,
        )

        self.history = TrainingHistory()
        self.scheduler = RoundScheduler()
        self.scheduler.add_round_hook(self._begin_round)
        self.scheduler.add_phase("sample", self._phase_sample)
        self.scheduler.add_phase("train", self._phase_train)
        self.scheduler.add_phase("edge_aggregate", self._phase_edge_aggregate)
        self.scheduler.add_phase("tier_filter", self._phase_tier_filter)
        self.scheduler.add_phase("finalize", self._phase_finalize)
        self._state: Optional[_RoundState] = None

    # -- setup helpers -------------------------------------------------------

    def _place_byzantine(self, explicit, attack) -> Dict[int, frozenset]:
        placed: Dict[int, frozenset] = {}
        for tier, budget in enumerate(self.topology.byzantine):
            if explicit is not None and tier in explicit:
                ids = frozenset(int(i) for i in explicit[tier])
                if len(ids) != budget:
                    raise ConfigurationError(
                        f"tier {tier}: {len(ids)} explicit Byzantine ids "
                        f"for a budget of {budget}"
                    )
                if any(not 0 <= i < self.topology.counts[tier] for i in ids):
                    raise ConfigurationError(
                        f"tier {tier}: Byzantine ids outside "
                        f"[0, {self.topology.counts[tier]})"
                    )
                placed[tier] = ids
            elif budget > 0:
                chosen = self.rngs.make(
                    f"population/byzantine/tier/{tier}"
                ).choice(self.topology.counts[tier], size=budget,
                         replace=False)
                placed[tier] = frozenset(int(i) for i in chosen)
        if explicit is not None:
            extra = set(explicit) - set(placed)
            if extra:
                raise ConfigurationError(
                    f"byzantine_tier_ids names tiers {sorted(extra)} whose "
                    f"budget is 0"
                )
        return placed

    @property
    def global_model_vector(self) -> np.ndarray:
        """The current global model (the top aggregator's output)."""
        return self._global_vector.copy()

    def _aggregator_alive(self, tier: int, index: int) -> bool:
        if self.injector is None:
            return True
        return self.injector.server_alive(
            self.topology.global_index(tier, index)
        )

    # -- round phases --------------------------------------------------------

    def _begin_round(self, t: int) -> None:
        state = _RoundState(t)
        state.churn_events = self.churn.begin_round(t)
        if self.injector is not None:
            state.fault_events = self.injector.begin_round(t)
        self._state = state

    def _phase_sample(self, t: int) -> None:
        state = self._state
        assert state is not None
        active = self.churn.active_ids()
        if self.injector is not None:
            active = [cid for cid in active
                      if self.injector.client_active(cid)]
        state.active_ids = active
        state.sampled_ids = sample_clients(
            active, self.config.sample_fraction,
            seed=self.config.seed, round_index=t,
        )
        top_global = self.topology.global_index(self.topology.num_tiers - 1, 0)
        for cid in state.sampled_ids:
            self.population.materialize(cid, t)
            # Model fetch is the reliable control plane: the sampled
            # client pulls the current global model when it checks in.
            self.network.send(Message(
                NodeId.server(top_global), NodeId.client(cid),
                self._global_vector, tag=FETCH_TAG, round_index=t,
            ))
            self.network.receive(NodeId.client(cid))
        state.materialized = self.population.materialized_count
        self.network.stats.record_materialized(state.materialized)

    def _phase_train(self, t: int) -> None:
        state = self._state
        assert state is not None
        jobs = [
            PopulationJob(
                client_id=cid,
                start_vector=self._global_vector,
                shard=self.population.descriptors[cid].shard,
                client=self.population.materialize(cid, t),
            )
            for cid in state.sampled_ids
        ]
        state.results = self.execution.train(
            t, self.config.local_steps, jobs
        )
        for cid in state.sampled_ids:
            vector, _ = state.results[cid]
            edge = self.topology.edge_of_client(cid)
            payload, residual = self.codec.encode(vector, cid)
            if send_with_retry(self.network, Message(
                NodeId.client(cid),
                NodeId.server(self.topology.global_index(0, edge)),
                payload, tag=UPLOAD_TAG, round_index=t,
            ), self.retry_policy, state.sends):
                self.codec.adopt("upload", cid, residual)

    def _phase_edge_aggregate(self, t: int) -> None:
        state = self._state
        assert state is not None
        outcomes: Dict[int, TierOutcome] = {}
        for edge in self.tiers[0]:
            inbox = self.network.receive(
                NodeId.server(edge.global_index)
            )
            if not self._aggregator_alive(0, edge.index):
                continue
            uploads = [self.codec.decode(m.payload) for m in inbox]
            senders = [m.sender.index for m in inbox]
            outcomes[edge.index] = edge.combine(uploads, senders)
        state.tier_outcomes[0] = outcomes

    def _phase_tier_filter(self, t: int) -> None:
        state = self._state
        assert state is not None
        for tier in range(1, self.topology.num_tiers):
            below = self.tiers[tier - 1]
            produced = state.tier_outcomes[tier - 1]
            # What each live child forwards upward this round; Byzantine
            # children tamper here, with adaptive knowledge of their
            # tier's honest outputs.
            peer_outputs = np.stack([child.current_output
                                     for child in below])
            forwarded: Dict[int, np.ndarray] = {
                child.index: child.outgoing(t, peer_outputs=peer_outputs)
                for child in below if child.index in produced
            }
            # Virtual timing of the exchange leg. The per-(round, leg,
            # child) arrival draws are order-independent, so this neither
            # perturbs training randomness nor varies across execution
            # backends. Barrier mode waits out the slowest forward;
            # deadline mode moves on when the deadline fires — a late
            # child's forward is withheld (it would not have arrived) and
            # buffered on its parent for bounded-staleness admission.
            leg = exchange_tag(tier)
            late, stage_s = time_leg(self.clock, t, leg, sorted(forwarded),
                                     self._deadline_s)
            late_ids = frozenset(late)
            state.deadline_missed += len(late)
            state.simulated_time_s += stage_s
            self.scheduler.record_simulated(leg, stage_s)
            outcomes: Dict[int, TierOutcome] = {}
            base_gid = self.topology.global_index(tier - 1, 0)
            for parent in self.tiers[tier]:
                children = self.topology.children_of(tier, parent.index)
                buffer = self._late_forwards[parent.global_index]
                stale = buffer.take_admissible(
                    t, self.config.max_staleness, late_ids,
                    absent=[c for c in children if c not in forwarded],
                )
                # Admitted stale forwards go on the wire now — the late
                # message finally arrives this round — encoded with this
                # round's salt but without advancing the child's live
                # residual (the buffered vector is a re-send, not fresh).
                for child_index, vector in stale.items():
                    send_with_retry(self.network, Message(
                        NodeId.server(base_gid + child_index),
                        NodeId.server(parent.global_index),
                        self.codec.encode_broadcast(vector, t),
                        tag=leg, round_index=t,
                    ), self.retry_policy, state.sends)
                    state.late_admitted += 1
                for child_index in children:
                    if child_index not in forwarded:
                        continue
                    if child_index in late_ids:
                        buffer.put(child_index, t, forwarded[child_index])
                        continue
                    child_gid = base_gid + child_index
                    payload, residual = self.codec.encode(
                        forwarded[child_index], child_gid, table="forward",
                        salt=t,
                    )
                    if send_with_retry(self.network, Message(
                        NodeId.server(child_gid),
                        NodeId.server(parent.global_index),
                        payload, tag=leg, round_index=t,
                    ), self.retry_policy, state.sends):
                        self.codec.adopt("forward", child_gid, residual)
                inbox = self.network.receive(
                    NodeId.server(parent.global_index)
                )
                if not self._aggregator_alive(tier, parent.index):
                    continue
                vectors = [self.codec.decode(m.payload) for m in inbox]
                children_ids = [m.sender.index - base_gid for m in inbox]
                outcomes[parent.index] = parent.combine(
                    vectors, children_ids, info_fn=self._filter.info_fn,
                )
            state.tier_outcomes[tier] = outcomes
        top = self.tiers[-1][0]
        self._global_vector = top.current_output.copy()
        # Next round's shared reference is the new global model — clients
        # fetch it at check-in, edges and parents track it here, so every
        # leg's deltas stay mutually decodable.
        self.codec.advance(self._global_vector)

    def _phase_finalize(self, t: int) -> None:
        state = self._state
        assert state is not None
        self.population.release_all()

    # -- round records -------------------------------------------------------

    def _build_record(self, state: _RoundState) -> RoundRecord:
        stats = self.network.stats
        losses = [state.results[cid][1] for cid in state.sampled_ids]
        train_loss = float(np.mean(losses)) if losses else float("nan")
        tier_est: Dict[int, int] = {}
        tier_rejected: Dict[int, List[int]] = {}
        tier_degraded: Dict[int, List[int]] = {}
        tier_fallback: Dict[int, List[int]] = {}
        for tier, outcomes in state.tier_outcomes.items():
            for index, outcome in sorted(outcomes.items()):
                gid = self.topology.global_index(tier, index)
                if outcome.estimated_byzantine is not None:
                    tier_est[tier] = max(tier_est.get(tier, 0),
                                         outcome.estimated_byzantine)
                if outcome.rejected_children:
                    tier_rejected.setdefault(tier, []).extend(
                        self.topology.global_index(tier - 1, child)
                        for child in outcome.rejected_children
                    )
                if outcome.used_fallback:
                    tier_fallback.setdefault(tier, []).append(gid)
                elif outcome.degraded:
                    tier_degraded.setdefault(tier, []).append(gid)
            if self.injector is not None:
                # Crashed aggregators produced nothing: their output is
                # implicitly stale, which is a fallback in all but name.
                for agg in self.tiers[tier]:
                    if (agg.index not in outcomes
                            and not self._aggregator_alive(tier, agg.index)):
                        tier_fallback.setdefault(tier, []).append(
                            agg.global_index
                        )
        for rejected in tier_rejected.values():
            rejected.sort()
        for fell_back in tier_fallback.values():
            fell_back.sort()
        alive = None
        if self.injector is not None:
            alive = len(self.injector.alive_servers(
                self.topology.total_aggregators
            ))
        return RoundRecord(
            round_index=state.round_index,
            train_loss=train_loss,
            upload_messages=stats.messages_by_tag.get(UPLOAD_TAG, 0)
            - self._uploads_before[0],
            upload_bytes=stats.bytes_by_tag.get(UPLOAD_TAG, 0)
            - self._uploads_before[1],
            dissemination_messages=stats.messages_by_tag.get(FETCH_TAG, 0)
            - self._uploads_before[2],
            upload_retries=state.sends.retries,
            upload_failures=state.sends.failures,
            alive_servers=alive,
            simulated_time_s=state.simulated_time_s,
            deadline_missed=state.deadline_missed,
            late_admitted=state.late_admitted,
            fault_events=state.fault_events,
            estimated_byzantine=max(tier_est.values()) if tier_est else None,
            num_active_clients=len(state.active_ids),
            num_sampled_clients=len(state.sampled_ids),
            materialized_clients=state.materialized,
            churn_events=state.churn_events,
            tier_estimated_byzantine=tier_est,
            tier_filtered_model_ids=tier_rejected,
            tier_degraded_aggregators=tier_degraded,
            tier_fallback_aggregators=tier_fallback,
        )

    # -- public API ----------------------------------------------------------

    def run_round(self, *, evaluate: bool = True) -> RoundRecord:
        """Execute one full population round; returns its record."""
        stats = self.network.stats
        self._uploads_before = (
            stats.messages_by_tag.get(UPLOAD_TAG, 0),
            stats.bytes_by_tag.get(UPLOAD_TAG, 0),
            stats.messages_by_tag.get(FETCH_TAG, 0),
        )
        self.scheduler.run_round()
        state = self._state
        assert state is not None
        record = self._build_record(state)
        if evaluate:
            record.test_loss, record.test_accuracy = self._evaluate()
        self.history.append(record)
        self._state = None
        return record

    def run(self, num_rounds: int, *, eval_every: int = 1) -> TrainingHistory:
        """Run ``num_rounds`` rounds, evaluating every ``eval_every``."""
        if num_rounds <= 0:
            raise ConfigurationError(
                f"num_rounds must be positive, got {num_rounds}"
            )
        if eval_every <= 0:
            raise ConfigurationError(
                f"eval_every must be positive, got {eval_every}"
            )
        for offset in range(num_rounds):
            is_last = offset == num_rounds - 1
            next_round = self.scheduler.round_index + 1
            self.run_round(evaluate=is_last or next_round % eval_every == 0)
        return self.history

    def _evaluate(self) -> "tuple[float, float]":
        self._eval_client.set_model_vector(self._global_vector)
        return self._eval_client.evaluate(self.test_dataset)

    def close(self) -> None:
        """Release the execution pool (if any)."""
        self.execution.close()

    def __enter__(self) -> "PopulationTrainer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
