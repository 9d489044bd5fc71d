"""The wire layer every trainer topology shares.

Fed-MS tolerates Byzantine PSs only if every topology handles each leg the
same way — the flat trainer's upload and dissemination, the hierarchical
trainer's group upload, inter-server exchange and group dissemination, and
the population trainer's client->edge upload and tier exchanges. Each leg
has three parts, implemented once here:

- :func:`send_with_retry` — bounded retry with backoff on a lost send,
  every dropped attempt charged to the message's tag;
- :class:`DeltaCodec` — codec payloads as deltas against one shared
  reference, with per-sender error-feedback residuals and a memoised
  receiver-side decode;
- :class:`StaleBuffer` — bounded-staleness admission of late arrivals,
  never two votes from one sender in one round;

plus :func:`make_round_clock` / :func:`time_leg`, the deadline in effect
and the virtual timing of one fan-in leg. See docs/upload.md and
docs/faults.md.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import (
    AbstractSet,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..simulation.clock import VirtualClock, split_by_deadline
from ..simulation.network import Message, Network, NodeId
from .codecs import EncodedUpdate, broadcast_variant, make_codec_pipeline
from .upload import RetryPolicy

__all__ = ["SendCounters", "send_with_retry", "DeltaCodec", "StaleBuffer",
           "make_round_clock", "time_leg"]

#: ``(attempt, last_recipient) -> next recipient`` (``None`` gives up).
NextRecipient = Callable[[int, NodeId], Optional[NodeId]]


@dataclass
class SendCounters:
    """Retry bookkeeping of one round, summed over every leg."""

    retries: int = 0
    backoff_s: float = 0.0
    failures: int = 0


def send_with_retry(network: Network, message: Message, policy: RetryPolicy,
                    counters: SendCounters, *,
                    next_recipient: Optional[NextRecipient] = None) -> bool:
    """Send ``message``, retrying per ``policy`` while it is lost.

    Every attempt goes through :meth:`Network.send`, so each dropped one is
    charged to the message's tag (messages and bytes) and only the
    delivering attempt counts as delivered traffic; each retry is counted
    in ``retries_by_tag``. Without ``next_recipient`` a retry re-offers the
    identical message (static topologies: a client's group PS, a child's
    parent). With it, retry ``attempt`` goes to
    ``next_recipient(attempt, last_recipient)`` — the flat trainer's
    re-sampled alive PS — and a ``None`` answer gives up early. Exhausting
    the policy counts one failure.
    """
    if network.send(message):
        return True
    for attempt in range(1, policy.max_retries + 1):
        network.stats.record_retry(message.tag)
        counters.retries += 1
        counters.backoff_s += policy.backoff_s(attempt)
        if next_recipient is not None:
            recipient = next_recipient(attempt, message.recipient)
            if recipient is None:
                break
            message = Message(message.sender, recipient, message.payload,
                              tag=message.tag,
                              round_index=message.round_index)
        if network.send(message):
            return True
    counters.failures += 1
    return False


class DeltaCodec:
    """Codec payloads as deltas against one shared reference.

    Every honest party knows the reference (the last consensus model), so
    a payload carries only ``vector - reference``, and receivers decode
    ``reference + delta``. Two pipelines: ``pipeline`` for point-to-point
    uploads and ``broadcast_pipeline``, its trim-compatible variant (see
    :func:`~repro.core.codecs.broadcast_variant`), salted with the round
    index so every sender transmits the same coordinate support.

    Error feedback (EF-SGD, Stich et al. 2018; the double-compression
    scheme of Tang et al. 2019 for broadcasts): each sender folds what its
    last encoding truncated into its next delta, kept in named residual
    tables (``residuals[table][sender]``). A point-to-point send adopts its
    residual only on delivery (:meth:`encode` + :meth:`adopt`); a
    one-per-round broadcast advances it at once (:meth:`encode_broadcast`
    with a ``key``); stale re-sends and per-receiver encodes carry none.

    With the identity pipeline payloads are the dense vectors themselves
    and nothing is kept.
    """

    def __init__(self, specs: Optional[Sequence[str]],
                 reference: np.ndarray) -> None:
        self.pipeline = make_codec_pipeline(specs)
        self.broadcast_pipeline = broadcast_variant(self.pipeline)
        self.active = not self.pipeline.is_identity
        self.reference: Optional[np.ndarray] = (
            np.array(reference) if self.active else None
        )
        self.residuals: Dict[str, Dict[int, np.ndarray]] = defaultdict(dict)
        # id(payload) -> (payload, dense vector); holding the payload keeps
        # its id from being reused before the memo is cleared.
        self._decoded: Dict[int, Tuple[EncodedUpdate, np.ndarray]] = {}

    def encode(self, vector: np.ndarray, key: Optional[int], *,
               table: str = "upload", salt: Optional[int] = None
               ) -> Tuple[object, Optional[np.ndarray]]:
        """Encode one send; returns ``(payload, residual)``.

        The delta is topped up with sender ``key``'s residual from
        ``table``; the returned residual is what this encoding truncated,
        and the caller adopts it (:meth:`adopt`) only once the payload
        delivers — a lost send communicates nothing. ``salt`` selects the
        broadcast pipeline; ``key=None`` encodes without any residual.
        """
        if not self.active:
            return vector, None
        assert self.reference is not None
        delta = vector - self.reference
        residual = None if key is None else self.residuals[table].get(key)
        if residual is not None:
            delta = delta + residual
        if salt is None:
            encoded = self.pipeline.encode(delta)
        else:
            encoded = self.broadcast_pipeline.encode(delta, salt=salt)
        if key is None:
            return encoded, None
        decoded_delta = encoded.decode()
        self._decoded[id(encoded)] = (encoded, self.reference + decoded_delta)
        return encoded, delta - decoded_delta

    def adopt(self, table: str, key: Optional[int],
              residual: Optional[np.ndarray]) -> None:
        """Make ``residual`` sender ``key``'s error feedback in ``table``."""
        if residual is not None:
            self.residuals[table][key] = residual

    def encode_broadcast(self, vector: np.ndarray, salt: int,
                         key: Optional[int] = None, *,
                         table: str = "broadcast") -> object:
        """Broadcast-pipeline payload for ``vector``.

        With ``key`` this is the sender's one broadcast of the round and
        its residual advances now, whatever delivers. Without, it is a
        residual-free encode — a stale re-send, or a per-receiver encode
        that must not advance per-round sender state once per receiver.
        """
        payload, residual = self.encode(vector, key, table=table, salt=salt)
        self.adopt(table, key, residual)
        return payload

    def decode(self, payload: object) -> np.ndarray:
        """Dense vector a receiver reconstructs from a wire payload.

        Memoised until the next :meth:`advance`: a payload broadcast to
        many receivers is decoded once.
        """
        if not isinstance(payload, EncodedUpdate):
            return payload  # type: ignore[return-value]
        entry = self._decoded.get(id(payload))
        if entry is None or entry[0] is not payload:
            assert self.reference is not None
            entry = (payload, self.reference + payload.decode())
            self._decoded[id(payload)] = entry
        return entry[1]

    def advance(self, reference: np.ndarray) -> None:
        """Move the shared reference to this round's consensus."""
        if self.active:
            self.reference = np.array(reference)
        self._decoded.clear()


class StaleBuffer:
    """Late arrivals held for bounded-staleness admission.

    One entry per sender: the most recent arrival that missed a deadline,
    with the round it was sent in.
    """

    def __init__(self) -> None:
        self._entries: Dict[int, Tuple[int, np.ndarray]] = {}

    def put(self, sender: int, round_index: int, vector: np.ndarray) -> None:
        """Buffer ``sender``'s late arrival, replacing any older one."""
        self._entries[sender] = (round_index, np.array(vector))

    def take_admissible(self, round_index: int, max_staleness: int,
                        late: AbstractSet[int],
                        absent: Iterable[int] = ()) -> Dict[int, np.ndarray]:
        """Pop the buffered arrivals admissible in ``round_index``.

        A buffer from round ``t0`` older than ``max_staleness`` rounds
        expires. Otherwise a sender in ``absent`` (crashed, excluded, no
        output this round) keeps its buffer; a sender that is ``late``
        again is represented by its buffer, which is admitted; any other
        sender was on time, and its fresh arrival supersedes the buffer —
        so no sender ever has two votes in one round.
        """
        absent = frozenset(absent)
        admitted: Dict[int, np.ndarray] = {}
        for sender in sorted(self._entries):
            origin, vector = self._entries[sender]
            if round_index - origin > max_staleness:
                del self._entries[sender]
            elif sender not in absent:
                del self._entries[sender]
                if sender in late:
                    admitted[sender] = vector
        return admitted


def make_round_clock(config) -> Tuple[VirtualClock, Optional[float]]:
    """The virtual clock a config prescribes and its deadline, if any.

    Barrier mode has no deadline (the clock only measures); deadline mode
    uses ``config.deadline_s`` when set, else the
    ``config.deadline_quantile`` of the straggler-free latency.
    """
    clock = VirtualClock(
        config.seed,
        straggler_rate=config.straggler_rate,
        straggler_factor=config.straggler_factor,
    )
    if not config.deadline_mode:
        return clock, None
    if config.deadline_s is not None:
        return clock, config.deadline_s
    return clock, clock.deadline_for_quantile(config.deadline_quantile)


def time_leg(clock: VirtualClock, round_index: int, leg: str,
             senders: Iterable[int], deadline_s: Optional[float]
             ) -> Tuple[List[int], float]:
    """Time one fan-in leg: ``(late senders, simulated stage seconds)``.

    Arrival draws are per ``(round, leg, sender)``, so timing never
    perturbs training randomness or varies across execution backends.
    Barrier mode (``deadline_s=None``) waits out the slowest sender and
    has no late ones.
    """
    arrivals = clock.arrivals(round_index, leg, senders)
    late = ([] if deadline_s is None
            else split_by_deadline(arrivals, deadline_s)[1])
    return late, clock.stage_seconds(arrivals, deadline_s=deadline_s)
