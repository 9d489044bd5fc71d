"""Correctness checks on what a benchmark run observed.

Every check returns a list of human-readable failures; an empty list means
the run's outputs are correct. The checks read only what the program
reports (round records and traffic counters), so a program change that
breaks an invariant -- a wrong byte count, a vote below the quorum floor,
a non-reproducible round -- fails the run instead of producing a number.
"""

from __future__ import annotations

import math
from typing import List, Sequence

__all__ = ["check_run", "check_trace", "episode_fingerprint"]

#: The fig2 task has 10 classes; "well above chance" means at least this.
MIN_FIG2_ACCURACY = 0.2


def episode_fingerprint(episode) -> List[tuple]:
    """Per-round values an episode must reproduce bit for bit."""
    return [
        (s.record.round_index, s.record.train_loss, s.record.test_accuracy,
         s.record.simulated_time_s, s.delivered_bytes, s.dropped_bytes,
         s.retries)
        for s in episode.samples
    ]


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float) \
            and math.isnan(a) and math.isnan(b):
        return True
    return a == b


def check_determinism(episodes: Sequence) -> List[str]:
    """Every later episode replays a prefix of the first one."""
    failures: List[str] = []
    reference = episode_fingerprint(episodes[0])
    for number, episode in enumerate(episodes[1:], start=1):
        for row, expected in zip(episode_fingerprint(episode), reference):
            if not all(_same(a, b) for a, b in zip(row, expected)):
                failures.append(
                    f"episode {number} round {row[0]} differs from episode 0:"
                    f" {row} != {expected}")
                break
    return failures


def check_traffic(episode) -> List[str]:
    """Byte and message accounting balances on every leg.

    Offered bytes must equal delivered plus dropped, per-tag counters must
    sum to the totals, the per-round deltas the benchmark took must sum to
    the same totals, and retries must match what the rounds reported.
    """
    failures: List[str] = []
    t = episode.traffic
    pairs = [
        ("bytes_total", "bytes_by_tag"),
        ("messages_total", "messages_by_tag"),
        ("dropped_bytes_total", "dropped_bytes_by_tag"),
        ("dropped_total", "dropped_by_tag"),
        ("retries_total", "retries_by_tag"),
    ]
    for total, by_tag in pairs:
        if t[total] != sum(t[by_tag].values()):
            failures.append(f"{total}={t[total]} but {by_tag} sums to "
                            f"{sum(t[by_tag].values())}")
    if t["offered_bytes_total"] != t["bytes_total"] + t["dropped_bytes_total"]:
        failures.append(
            f"offered bytes {t['offered_bytes_total']} != delivered "
            f"{t['bytes_total']} + dropped {t['dropped_bytes_total']}")
    samples = episode.samples
    for field, total in (("delivered_bytes", "bytes_total"),
                         ("dropped_bytes", "dropped_bytes_total"),
                         ("delivered_messages", "messages_total"),
                         ("dropped_messages", "dropped_total"),
                         ("retries", "retries_total")):
        observed = sum(getattr(s, field) for s in samples)
        if observed != t[total]:
            failures.append(f"per-round {field} sum to {observed}, "
                            f"counters say {t[total]}")
    reported = sum(s.record.upload_retries for s in samples)
    if reported != t["retries_total"]:
        failures.append(f"rounds report {reported} retries, counters say "
                        f"{t['retries_total']}")
    missed = sum(s.record.deadline_missed for s in samples)
    admitted = sum(s.record.late_admitted for s in samples)
    if admitted > missed:
        failures.append(f"late_admitted {admitted} > deadline_missed {missed}")
    return failures


def check_quorum(episode, num_byzantine: int) -> List[str]:
    """No client adopts a filter output counted below min(2B+1, alive)."""
    failures: List[str] = []
    for s in episode.samples:
        record = s.record
        alive = record.alive_servers
        floor = min(2 * num_byzantine + 1, alive)
        if alive - len(record.excluded_servers) < floor:
            failures.append(
                f"round {record.round_index}: {len(record.excluded_servers)} "
                f"of {alive} alive PSs excluded, below the floor {floor}")
        fallback = set(record.fallback_clients)
        for client, quorum in record.models_received.items():
            if client not in fallback and quorum < floor:
                failures.append(
                    f"round {record.round_index}: client {client} filtered "
                    f"{quorum} models, below the floor {floor}")
    return failures


def check_fig2(episode, num_clients: int, num_servers: int,
               accuracy_round: int) -> List[str]:
    """The paper's sparse upload (K uploads and K*P disseminations per
    round) and a final accuracy well above chance."""
    failures: List[str] = []
    for s in episode.samples:
        record = s.record
        if record.upload_messages != num_clients:
            failures.append(f"round {record.round_index}: "
                            f"{record.upload_messages} uploads, expected "
                            f"{num_clients}")
        expected = num_clients * num_servers
        if record.dissemination_messages != expected:
            failures.append(f"round {record.round_index}: "
                            f"{record.dissemination_messages} "
                            f"disseminations, expected {expected}")
    if episode.complete:
        accuracy = episode.samples[accuracy_round - 1].record.test_accuracy
        if accuracy is None or not accuracy >= MIN_FIG2_ACCURACY:
            failures.append(f"final accuracy {accuracy} is not well above "
                            f"the 10% chance level")
    return failures


def check_population(episode) -> List[str]:
    """Peak materialised clients never exceed the largest sampled cohort."""
    largest = max(s.record.num_sampled_clients for s in episode.samples)
    peak = episode.traffic["peak_materialized_clients"]
    if peak > largest:
        return [f"peak materialised clients {peak} exceeds the largest "
                f"sampled cohort {largest}"]
    return []


def check_run(workload, config, episodes: Sequence) -> List[str]:
    """All checks that apply to ``workload`` over a run's episodes."""
    failures = check_determinism(episodes)
    for number, episode in enumerate(episodes):
        found: List[str] = []
        indices = [s.record.round_index for s in episode.samples]
        if indices != list(range(len(indices))):
            found.append(f"round indices are not 0..n-1: {indices[:5]}...")
        if any(not math.isfinite(s.record.train_loss)
               for s in episode.samples):
            found.append("non-finite training loss")
        found += check_traffic(episode)
        if workload.population:
            found += check_population(episode)
        else:
            found += check_quorum(episode, config.num_byzantine)
        if workload.name == "fig2-noise":
            found += check_fig2(episode, config.num_clients,
                                config.num_servers, workload.rounds)
        failures += [f"episode {number}: {failure}" for failure in found]
    return failures


def check_trace(traced: Sequence, counters: dict) -> List[str]:
    """The traced rounds' phases cover their time within 5%, and the bytes
    offered at ``Network.send`` match the program's traffic counters."""
    failures: List[str] = []
    total = sum(s.seconds for s in traced)
    covered = sum(sum(s.phases.values()) for s in traced) / total
    if abs(1.0 - covered) > 0.05:
        failures.append(f"phases cover {covered:.1%} of the traced round "
                        f"time, not within 5%")
    offered = sum(s.delivered_bytes + s.dropped_bytes for s in traced)
    seen = counters.get("network.offered_bytes", 0.0)
    if seen != offered:
        failures.append(f"bytes offered at Network.send {seen:.0f} != "
                        f"delivered + dropped counters {offered}")
    return failures
