"""Tests for the shared wire layer: retry, delta codec, stale buffer."""

import numpy as np
import pytest

from repro.core.codecs import EncodedUpdate
from repro.core.upload import RetryPolicy
from repro.core.wire import (
    DeltaCodec,
    SendCounters,
    StaleBuffer,
    send_with_retry,
)
from repro.simulation.network import Message, Network, NodeId


def message(payload=None, *, tag="upload", recipient=0):
    return Message(NodeId.client(0), NodeId.server(recipient),
                   np.zeros(8) if payload is None else payload,
                   tag=tag, round_index=0)


class AttemptLog:
    """Drop rule that records every attempt and drops the first ``n``."""

    def __init__(self, drop_first=0, drop_to=None):
        self.drop_first = drop_first
        self.drop_to = drop_to
        self.attempts = []

    def __call__(self, msg):
        self.attempts.append(msg)
        if self.drop_to is not None:
            return msg.recipient == self.drop_to
        return len(self.attempts) <= self.drop_first


class TestSendWithRetry:
    def test_per_tag_balance_offered_equals_delivered_plus_dropped(self):
        log = AttemptLog()
        network = Network(drop_probability=0.5, drop_rule=log,
                          rng=np.random.default_rng(0))
        counters = SendCounters()
        outcomes = [
            send_with_retry(network, message(tag=tag), RetryPolicy(),
                            counters)
            for tag in ("upload", "inter_server") for _ in range(40)
        ]
        stats = network.stats
        for tag in ("upload", "inter_server"):
            offered = [m for m in log.attempts if m.tag == tag]
            assert len(offered) == (stats.messages_by_tag[tag]
                                    + stats.dropped_by_tag[tag])
            assert sum(m.size_bytes for m in offered) == (
                stats.bytes_by_tag[tag] + stats.dropped_bytes_by_tag[tag])
            # Only the delivering attempt counts as delivered traffic.
            assert stats.messages_by_tag[tag] == sum(
                outcomes[i] for i in range(len(outcomes))
                if (i < 40) == (tag == "upload"))
        assert counters.retries == stats.retries_total
        assert counters.failures == outcomes.count(False) > 0

    def test_counts_retries_backoff_and_failure(self):
        network = Network(drop_rule=lambda msg: True)
        counters = SendCounters()
        policy = RetryPolicy(max_retries=3, base_backoff_s=0.1)
        assert not send_with_retry(network, message(), policy, counters)
        assert counters.retries == 3
        assert counters.failures == 1
        assert counters.backoff_s == pytest.approx(0.1 + 0.2 + 0.4)
        assert network.stats.retries_by_tag["upload"] == 3
        assert network.stats.dropped_by_tag["upload"] == 4

    def test_transient_loss_retries_the_same_message(self):
        log = AttemptLog(drop_first=1)
        network = Network(drop_rule=log)
        counters = SendCounters()
        sent = message()
        assert send_with_retry(network, sent, RetryPolicy(), counters)
        assert counters.retries == 1 and counters.failures == 0
        assert all(attempt is sent for attempt in log.attempts)

    def test_next_recipient_retargets(self):
        log = AttemptLog(drop_to=NodeId.server(0))
        network = Network(drop_rule=log)
        calls = []

        def next_recipient(attempt, failed):
            calls.append((attempt, failed))
            return failed if attempt == 1 else NodeId.server(2)

        counters = SendCounters()
        assert send_with_retry(network, message(recipient=0), RetryPolicy(),
                               counters, next_recipient=next_recipient)
        assert calls == [(1, NodeId.server(0)), (2, NodeId.server(0))]
        assert [m.recipient for m in log.attempts] == [
            NodeId.server(0), NodeId.server(0), NodeId.server(2)]
        assert network.pending_count(NodeId.server(2)) == 1
        assert counters.retries == 2

    def test_next_recipient_none_gives_up(self):
        network = Network(drop_rule=lambda msg: True)
        counters = SendCounters()
        assert not send_with_retry(network, message(), RetryPolicy(),
                                   counters,
                                   next_recipient=lambda attempt, f: None)
        assert counters.retries == 1 and counters.failures == 1
        assert network.stats.dropped_by_tag["upload"] == 1


def make_codec(dim=64):
    return DeltaCodec(("topk(0.1)",), np.zeros(dim))


class TestDeltaCodec:
    def test_identity_passes_vectors_through(self):
        codec = DeltaCodec(None, np.zeros(4))
        vector = np.arange(4.0)
        payload, residual = codec.encode(vector, 0)
        assert payload is vector and residual is None
        assert codec.encode_broadcast(vector, 3, 0) is vector
        assert codec.decode(payload) is vector
        assert not codec.active and codec.reference is None

    def test_residual_unchanged_after_undelivered_send(self):
        codec = make_codec()
        rng = np.random.default_rng(0)
        network = Network(drop_rule=lambda msg: msg.sender.index == 3)
        for client_id in (0, 3):
            payload, residual = codec.encode(rng.normal(size=64), client_id)
            if send_with_retry(network, Message(
                NodeId.client(client_id), NodeId.server(0), payload,
                tag="upload", round_index=0,
            ), RetryPolicy(), SendCounters()):
                codec.adopt("upload", client_id, residual)
        assert set(codec.residuals["upload"]) == {0}
        before = codec.residuals["upload"][0].copy()
        codec.encode(rng.normal(size=64), 0)  # encoded, never sent
        np.testing.assert_array_equal(codec.residuals["upload"][0], before)

    def test_residual_feeds_the_next_delta(self):
        codec = make_codec()
        vector = np.random.default_rng(1).normal(size=64)
        payload, residual = codec.encode(vector, 0)
        np.testing.assert_array_equal(residual, vector - payload.decode())
        codec.adopt("upload", 0, residual)
        again, _ = codec.encode(vector, 0)
        np.testing.assert_array_equal(
            again.decode(), codec.pipeline.encode(vector + residual).decode())

    def test_broadcast_residual_advances_once_per_round(self):
        codec = make_codec()
        rng = np.random.default_rng(2)
        model = rng.normal(size=64)
        codec.encode_broadcast(model, 0, 5)
        after_broadcast = codec.residuals["broadcast"][5].copy()
        # Per-receiver encodes and stale re-sends carry no residual.
        for _ in range(10):
            codec.encode_broadcast(rng.normal(size=64), 0)
        assert set(codec.residuals["broadcast"]) == {5}
        np.testing.assert_array_equal(codec.residuals["broadcast"][5],
                                      after_broadcast)
        codec.encode_broadcast(model, 1, 5)
        assert not np.array_equal(codec.residuals["broadcast"][5],
                                  after_broadcast)

    def test_decode_is_memoised(self, monkeypatch):
        calls = []
        original = EncodedUpdate.decode

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(EncodedUpdate, "decode", counting)
        codec = make_codec()
        vector = np.random.default_rng(3).normal(size=64)
        fed = codec.encode_broadcast(vector, 0, 1)
        plain = codec.encode_broadcast(vector, 0)
        dense = [codec.decode(fed) for _ in range(20)]
        assert all(d is dense[0] for d in dense)
        assert [codec.decode(plain) is codec.decode(plain)
                for _ in range(20)] == [True] * 20
        assert len(calls) == 2  # one per payload, for 40+ receivers
        np.testing.assert_array_equal(dense[0], codec.reference + fed.decode())

    def test_advance_moves_reference_and_clears_memo(self):
        codec = make_codec()
        vector = np.random.default_rng(4).normal(size=64)
        payload = codec.encode_broadcast(vector, 0)
        first = codec.decode(payload)
        new_reference = np.ones(64)
        codec.advance(new_reference)
        new_reference[:] = 7.0  # the codec holds its own copy
        np.testing.assert_array_equal(codec.reference, np.ones(64))
        np.testing.assert_array_equal(codec.decode(payload), first + 1.0)


# (buffered (sender, round) puts, then take_admissible steps
#  (round, max_staleness, late, absent, admitted {sender: origin round}))
STALE_CASES = {
    # An on-time sender supersedes its buffer, which is discarded: no
    # sender ever has two votes in one round.
    "no_double_vote": ([(0, 0)], [(1, 1, set(), (), {}),
                                  (1, 5, {0}, (), {})]),
    "admitted_when_late_again": ([(0, 0)], [(1, 1, {0}, (), {0: 0})]),
    "staleness_expiry": ([(0, 0)], [(3, 1, {0}, (), {})]),
    # A crashed/excluded sender keeps its buffer; back and late again,
    # the buffer delivers.
    "absent_sender_keeps_buffer": ([(0, 1)], [(2, 5, {0}, {0}, {}),
                                              (3, 5, {0}, (), {0: 1})]),
    "newer_late_arrival_replaces_older": ([(0, 0), (0, 1)],
                                          [(2, 1, {0}, (), {0: 1})]),
}


class TestStaleBuffer:
    @pytest.mark.parametrize("case", sorted(STALE_CASES))
    def test_take_admissible(self, case):
        puts, steps = STALE_CASES[case]
        buffer = StaleBuffer()
        for sender, origin in puts:
            buffer.put(sender, origin, np.full(4, float(origin)))
        for round_index, max_staleness, late, absent, expected in steps:
            admitted = buffer.take_admissible(round_index, max_staleness,
                                              late, absent)
            assert set(admitted) == set(expected)
            for sender, origin in expected.items():
                np.testing.assert_array_equal(admitted[sender],
                                              np.full(4, float(origin)))

    def test_put_copies_the_vector(self):
        buffer = StaleBuffer()
        vector = np.zeros(3)
        buffer.put(2, 0, vector)
        vector[:] = 9.0
        np.testing.assert_array_equal(
            buffer.take_admissible(1, 1, {2})[2], np.zeros(3))
