"""Tests for upload strategies and their communication-cost contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import ConfigurationError, RngFactory
from repro.core import (
    FedMSConfig,
    FullUpload,
    MultiUpload,
    RetryPolicy,
    SparseUpload,
    make_upload_strategy,
)


class TestSparseUpload:
    def test_one_server_per_client(self):
        assignment = SparseUpload().assign(20, 5, rng=RngFactory(0).make("u"))
        assert len(assignment) == 20
        assert all(len(targets) == 1 for targets in assignment)
        assert all(0 <= targets[0] < 5 for targets in assignment)

    def test_cost_is_k(self):
        assert SparseUpload().uploads_per_round(50, 10) == 50

    def test_roughly_uniform_over_servers(self):
        assignment = SparseUpload().assign(5000, 10, rng=RngFactory(0).make("u"))
        counts = np.bincount([t[0] for t in assignment], minlength=10)
        assert counts.min() > 350  # E = 500 per server
        assert counts.max() < 650

    def test_deterministic_given_seed(self):
        a = SparseUpload().assign(10, 3, rng=RngFactory(1).make("u"))
        b = SparseUpload().assign(10, 3, rng=RngFactory(1).make("u"))
        assert a == b


class TestFullUpload:
    def test_every_server_per_client(self):
        assignment = FullUpload().assign(4, 3, rng=RngFactory(0).make("u"))
        assert all(targets == [0, 1, 2] for targets in assignment)

    def test_cost_is_k_times_p(self):
        assert FullUpload().uploads_per_round(50, 10) == 500


class TestMultiUpload:
    def test_distinct_servers(self):
        assignment = MultiUpload(3).assign(20, 5, rng=RngFactory(0).make("u"))
        for targets in assignment:
            assert len(targets) == 3
            assert len(set(targets)) == 3

    def test_cost_scales_with_count(self):
        assert MultiUpload(3).uploads_per_round(50, 10) == 150

    def test_rejects_count_above_servers(self):
        with pytest.raises(ConfigurationError):
            MultiUpload(6).assign(2, 5, rng=RngFactory(0).make("u"))

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ConfigurationError):
            MultiUpload(0)


def _config(**kwargs):
    kwargs.setdefault("num_clients", 6)
    kwargs.setdefault("num_servers", 4)
    kwargs.setdefault("num_byzantine", 0)
    return FedMSConfig(**kwargs)


class TestFactory:
    def test_builds_each_kind_from_config(self):
        assert isinstance(
            make_upload_strategy(_config(upload_strategy="sparse")),
            SparseUpload,
        )
        assert isinstance(
            make_upload_strategy(_config(upload_strategy="full")),
            FullUpload,
        )
        multi = make_upload_strategy(
            _config(upload_strategy="multi", uploads_per_client=2)
        )
        assert isinstance(multi, MultiUpload)
        assert multi.count == 2

    def test_unknown_name_rejected_at_config_time(self):
        with pytest.raises(ConfigurationError):
            _config(upload_strategy="smoke_signals")

    def test_rejects_non_config_argument(self):
        with pytest.raises(ConfigurationError):
            make_upload_strategy(42)


class TestCostContract:
    @settings(max_examples=30, deadline=None)
    @given(num_clients=st.integers(1, 60), num_servers=st.integers(1, 12))
    def test_assignment_length_matches_declared_cost(self, num_clients,
                                                     num_servers):
        """For every strategy, the declared uploads_per_round equals the
        number of (client, server) pairs the assignment actually creates —
        the invariant the comm-cost benchmark relies on."""
        rng = RngFactory(0).make(f"u/{num_clients}/{num_servers}")
        strategies = [SparseUpload(), FullUpload()]
        if num_servers >= 2:
            strategies.append(MultiUpload(2))
        for strategy in strategies:
            assignment = strategy.assign(num_clients, num_servers, rng=rng)
            actual = sum(len(targets) for targets in assignment)
            assert actual == strategy.uploads_per_round(num_clients, num_servers)


class TestRetryPolicy:
    def test_backoff_grows_geometrically(self):
        policy = RetryPolicy(max_retries=3, base_backoff_s=0.1,
                             backoff_factor=2.0)
        assert policy.backoff_s(1) == pytest.approx(0.1)
        assert policy.backoff_s(2) == pytest.approx(0.2)
        assert policy.backoff_s(3) == pytest.approx(0.4)

    def test_backoff_rejects_attempt_zero(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy().backoff_s(0)

    def test_first_retry_hits_same_server(self):
        policy = RetryPolicy()
        rng = RngFactory(0).make("retry")
        assert policy.next_target(1, 3, [0, 1, 2, 3], rng=rng) == 3

    def test_later_retries_resample_alive_servers(self):
        policy = RetryPolicy()
        rng = RngFactory(0).make("retry")
        targets = {policy.next_target(2, 3, [0, 1, 2, 3], rng=rng)
                   for _ in range(50)}
        assert targets == {0, 1, 2}  # failed PS 3 is excluded

    def test_falls_back_to_failed_server_when_alone(self):
        policy = RetryPolicy()
        rng = RngFactory(0).make("retry")
        assert policy.next_target(2, 3, [3], rng=rng) == 3

    def test_no_alive_servers(self):
        policy = RetryPolicy()
        rng = RngFactory(0).make("retry")
        assert policy.next_target(2, 3, [], rng=rng) is None

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_backoff_s=-0.1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_factor=0.5)
