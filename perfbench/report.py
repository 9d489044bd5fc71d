"""Turn an :class:`~measure.Observation` into the benchmark's metrics.

``END_TO_END`` and ``PER_LAYER`` are the metric tables ``BENCHMARK.json``
publishes (the benchmark's tests keep the two in step). Each per-layer
entry also names the end-to-end metric it should move and the workload it
should move it on, written down before any optimisation is measured.

Per-layer times are seconds per traced round. A ``_s`` metric is the
layer's self time (its spans minus their child spans on the same thread),
except those marked inclusive, which are wall time around a whole stage.
"""

from __future__ import annotations

import math
import resource
import statistics
from typing import Dict, List, Tuple

__all__ = ["END_TO_END", "PER_LAYER", "PHASES", "end_to_end_metrics",
           "per_layer_metrics", "tail"]

#: (name, unit, better, bound)
#: Bounds cover the spread across seeds: on inconsistent-wire the seed's
#: deadline calibration and Byzantine placement decide how many broadcasts
#: make each round, which moves its work, bytes, time and ratios by up to
#: about 13% from seed to seed (same-seed repeats agree within about 7%).
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("round_s_p50", "s", "lower", 0.25),
    ("client_steps_per_s", "steps/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("wire_bytes_per_round", "bytes", "lower", 0.25),
    ("simulated_round_s", "s", "lower", 0.25),
    ("final_test_accuracy", "ratio", "higher", 0.25),
    ("upload_success_ratio", "ratio", "higher", 0.05),
    ("filter_quorum_ratio", "ratio", "higher", 0.25),
)

#: Scheduler phases of the flat and population trainers.
PHASES = ("train", "upload", "aggregate", "disseminate", "filter",
          "sample", "edge_aggregate", "tier_filter", "finalize")

_FIG2, _WIRE, _POP = "fig2-noise", "inconsistent-wire", "population-churn"
_ALL = f"{_FIG2},{_WIRE},{_POP}"
_ROUND, _TRAIN = "round_s_p50", "client_steps_per_s,round_s_p50"

#: (name, unit, better, moves, on): the end-to-end metric(s) a change to
#: this layer should move, and the workload(s) it should move them on.
PER_LAYER: Tuple[Tuple[str, str, str, str, str], ...] = (
    *((name, unit, "lower", _TRAIN, _FIG2) for name, unit in (
        ("nn.forward_s", "s/round"), ("nn.backward_s", "s/round"),
        ("nn.sgd_step_s", "s/round"), ("nn.to_vector_s", "s/round"),
        ("nn.from_vector_s", "s/round"), ("nn.vector_copy_bytes", "B/round"),
        ("data.sample_batch_s", "s/round"),
        ("data.sample_batch_calls", "1/round"))),
    ("data.shard_materialize_s", "s/round", "lower", _TRAIN, _POP),
    *((name, unit, "lower", "client_steps_per_s", _POP) for name, unit in (
        ("client.local_train_s", "s/round"),
        ("client.local_train_calls", "1/round"),
        ("client.evaluate_s", "s/round"))),
    ("execution.train_clients_s", "s/round", "lower", _ROUND, _WIRE),
    ("execution.train_busy_s", "s/round", "lower", _ROUND, _WIRE),
    ("execution.train_efficiency", "ratio", "higher", _ROUND, _WIRE),
    ("execution.filter_clients_s", "s/round", "lower", _ROUND, _WIRE),
    ("execution.filter_jobs", "1/round", "lower", _ROUND, _WIRE),
    ("aggregation.filter_s", "s/round", "lower", _ROUND, _WIRE),
    ("aggregation.filter_calls", "1/round", "lower", _ROUND, _WIRE),
    ("aggregation.filter_rows", "1/round", "lower", _ROUND, _WIRE),
    ("attacks.tamper_s", "s/round", "lower", _ROUND, _WIRE),
    ("attacks.tamper_calls", "1/round", "lower", _ROUND, _WIRE),
    *((name, unit, "lower", f"{_ROUND},wire_bytes_per_round", _WIRE)
      for name, unit in (("codecs.encode_s", "s/round"),
                         ("codecs.encode_calls", "1/round"),
                         ("codecs.decode_s", "s/round"),
                         ("codecs.decode_calls", "1/round"))),
    ("codecs.compression_ratio", "ratio", "higher",
     f"{_ROUND},wire_bytes_per_round", _WIRE),
    *((name, unit, "lower", "peak_rss_mb", _FIG2) for name, unit in (
        ("server.aggregate_s", "s/round"), ("server.disseminate_s", "s/round"),
        ("server.history_bytes", "B"))),
    *((name, unit, "lower", "wire_bytes_per_round,upload_success_ratio",
       _WIRE) for name, unit in (
        ("network.send_calls", "1/round"), ("network.send_s", "s/round"),
        ("network.delivered_bytes", "B/round"),
        ("network.offered_bytes", "B/round"),
        ("network.dropped_bytes", "B/round"),
        ("network.upload_retries", "1/round"))),
    *((name, unit, better, "simulated_round_s,filter_quorum_ratio",
       f"{_WIRE},{_POP}") for name, unit, better in (
        ("clock.arrivals_s", "s/round", "lower"),
        ("clock.deadline_missed", "1/round", "lower"),
        ("clock.late_admitted", "1/round", "higher"),
        ("health.observe_round_s", "s/round", "lower"),
        ("health.excluded_servers", "1/round", "lower"))),
    *((f"phase.{phase}_s", "s/round", "lower", _ROUND,
       f"{_FIG2},{_WIRE}" if phase in PHASES[:5] else _POP)
      for phase in PHASES),
    ("phase.unaccounted_s", "s/round", "lower", _ROUND, _ALL),
    *((name, unit, "lower", _TRAIN, _POP) for name, unit in (
        ("population.sample_s", "s/round"),
        ("population.materialize_s", "s/round"),
        ("population.materialize_calls", "1/round"),
        ("population.executor_train_s", "s/round"),
        ("population.tier_combine_s", "s/round"),
        ("population.tier_combine_calls", "1/round"),
        ("population.tier_fallbacks", "1/round"),
        ("population.peak_materialized_clients", "count"),
        ("population.churn_s", "s/round"))),
    ("round.tail_s", "s", "lower", _ROUND, _ALL),
    ("round.tail_percentile", "%", "higher", _ROUND, _ALL),
    ("round.tail_samples", "count", "higher", _ROUND, _ALL),
    ("trace.overhead_ratio", "ratio", "lower", _ROUND, _ALL),
)

#: Spans reported inclusive of their children (wall time of a stage).
_INCLUSIVE = {"client.evaluate", "execution.train_clients",
              "execution.filter_clients", "population.executor_train"}


def tail(seconds: List[float]) -> Tuple[float, float, int]:
    """The highest whole percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples)``; with fewer than 11 samples
    the median stands in.
    """
    ordered = sorted(seconds)
    n = len(ordered)
    if n < 11:
        return statistics.median(ordered), 50.0, n
    percentile = math.floor(100.0 * (n - 10) / n)
    index = max(0, math.ceil(percentile / 100.0 * n) - 1)
    return ordered[index], float(percentile), n


def _quorum_ratio(workload, config, samples) -> float:
    """Share of filter decisions that had a safe quorum."""
    if workload.population:
        total = len(samples) * sum(config.tier_spec)
        fell_back = sum(len(ids) for s in samples
                        for ids in s.record.tier_fallback_aggregators.values())
    else:
        total = sum(len(s.record.models_received) for s in samples)
        fell_back = sum(len(s.record.fallback_clients) for s in samples)
    return (total - fell_back) / total


def end_to_end_metrics(workload, observation) -> Dict[str, float]:
    """The nine end-to-end metrics. Host times are divided by the host
    slowness measured right before each of them (see hostspeed.py)."""
    first = observation.episodes[0]
    timed = observation.timed
    seconds = [s.seconds / s.slowness for s in timed]
    setups = [t / k for t, k in zip(observation.setup_seconds,
                                    observation.setup_slowness)]
    traffic = first.traffic
    tag = workload.upload_tag
    delivered = traffic["messages_by_tag"].get(tag, 0)
    attempted = delivered + traffic["dropped_by_tag"].get(tag, 0)
    accuracy = timed[workload.rounds - 1].record.test_accuracy
    return {
        "setup_s": statistics.median(setups),
        "round_s_p50": statistics.median(seconds),
        "client_steps_per_s": (sum(s.client_steps for s in timed)
                               / sum(seconds)),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wire_bytes_per_round": statistics.fmean(
            s.delivered_bytes for s in timed),
        "simulated_round_s": statistics.fmean(
            s.record.simulated_time_s for s in timed),
        "final_test_accuracy": float(accuracy),
        "upload_success_ratio": delivered / attempted if attempted else 0.0,
        "filter_quorum_ratio": _quorum_ratio(workload, observation.config,
                                             timed),
    }


def per_layer_metrics(workload, observation) -> Dict[str, float]:
    tracer = observation.tracer
    traced = observation.traced
    rounds = len(traced)
    spans = tracer.summary()
    counters = tracer.counters()
    out: Dict[str, float] = {}

    def span(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0.0)

    for name, *_ in PER_LAYER:
        if name.endswith("_calls"):
            out[name] = span(name[:-len("_calls")], "calls") / rounds
        elif name.endswith("_s") and name[:-2] in spans:
            layer = name[:-2]
            field = "total_s" if layer in _INCLUSIVE else "self_s"
            out[name] = span(layer, field) / rounds
        elif name in counters:
            out[name] = counters[name] / rounds

    for phase in PHASES:
        out[f"phase.{phase}_s"] = sum(s.phases.get(phase, 0.0)
                                      for s in traced) / rounds
    out["phase.unaccounted_s"] = (
        sum(s.seconds - sum(s.phases.values()) for s in traced) / rounds)

    # Busy time of the execution layer's workers: the local training they
    # ran (population rounds train outside it, through their own executor).
    wall = span("execution.train_clients", "total_s")
    busy = span("client.local_train", "total_s") if wall else 0.0
    out["execution.train_busy_s"] = busy / rounds
    out["execution.train_efficiency"] = (
        busy / (wall * observation.num_workers) if wall else 0.0)
    dense = counters.get("codecs.dense_bytes", 0.0)
    encoded = counters.get("codecs.encoded_bytes", 0.0)
    # No encoding means the wire carried dense vectors: ratio 1.
    out["codecs.compression_ratio"] = dense / encoded if encoded else 1.0
    out["server.history_bytes"] = float(max(
        e.history_bytes for e in observation.episodes if e.traced))
    out["network.upload_retries"] = sum(s.retries for s in traced) / rounds
    out["clock.deadline_missed"] = sum(
        s.record.deadline_missed for s in traced) / rounds
    out["clock.late_admitted"] = sum(
        s.record.late_admitted for s in traced) / rounds
    out["health.excluded_servers"] = sum(
        len(s.record.excluded_servers) for s in traced) / rounds
    out["population.tier_fallbacks"] = sum(
        len(ids) for s in traced
        for ids in s.record.tier_fallback_aggregators.values()) / rounds
    out["population.peak_materialized_clients"] = float(max(
        e.traffic["peak_materialized_clients"]
        for e in observation.episodes if e.traced))

    untraced = [s.seconds for s in observation.timed]
    value, percentile, count = tail(untraced)
    out["round.tail_s"] = value
    out["round.tail_percentile"] = percentile
    out["round.tail_samples"] = float(count)
    # Host-speed normalised on both sides, so a change of host speed
    # between the two halves does not read as tracing cost.
    out["trace.overhead_ratio"] = (
        statistics.median(s.seconds / s.slowness for s in traced)
        / statistics.median(s.seconds / s.slowness
                            for s in observation.timed))
    for name, *_ in PER_LAYER:
        out.setdefault(name, 0.0)
    return out
