"""The measurement loop: timed set-ups, then one long episode of rounds.

A run first constructs the trainer several times, closing each one (the
set-up samples). It then trains one trainer round after round until
``seconds`` of wall clock have passed, and always for at least
``workload.rounds`` rounds, so the seed-determined final accuracy is read
at the same round on every run. Finally a fresh trainer replays the first
rounds: a run is a pure function of its seed, so the replay must match
bit for bit. The host-speed kernel (hostspeed.py) runs right before every
timed construction and round, outside the timed region.

With tracing, one trainer runs untraced for half the window (its rounds
give the untraced round time and the tail); then the tracer is installed
and a fresh trainer runs traced for the other half. The traced episode
doubles as the replay.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from hostspeed import HostSpeed
from tracing import Tracer
from workloads import Workload

__all__ = ["Episode", "Observation", "RoundSample", "run_workload"]

#: Rounds the replay (or the traced episode, at least) runs.
REPLAY_ROUNDS = 2


@dataclass
class RoundSample:
    """What the benchmark observed about one completed round."""

    seconds: float
    record: object  # repro.core.history.RoundRecord
    delivered_bytes: int
    dropped_bytes: int
    delivered_messages: int
    dropped_messages: int
    retries: int
    phases: Dict[str, float]
    client_steps: int
    #: Host slowness measured right before the round (see hostspeed.py).
    slowness: float


@dataclass
class Episode:
    """The rounds of one freshly constructed trainer."""

    samples: List[RoundSample]
    traffic: Dict[str, object]
    complete: bool
    traced: bool
    history_bytes: int = 0


@dataclass
class Observation:
    """Everything a run measured."""

    setup_seconds: List[float]
    setup_slowness: List[float]
    episodes: List[Episode]
    config: object
    num_workers: int
    tracer: Optional[Tracer] = None

    @property
    def timed(self) -> List[RoundSample]:
        """Rounds of the first, untraced episode."""
        return self.episodes[0].samples

    @property
    def traced(self) -> List[RoundSample]:
        return [s for e in self.episodes if e.traced for s in e.samples]


def _history_bytes(trainer) -> int:
    """Bytes the parameter servers hold in their aggregate histories."""
    servers = getattr(trainer, "servers", ())
    return sum(int(a.nbytes) for server in servers
               for a in getattr(server, "aggregate_history", ()))


def _run_episode(trainer, workload: Workload, *, until: float,
                 min_rounds: int, tracer: Optional[Tracer],
                 host: HostSpeed) -> Episode:
    """Rounds until ``until`` (a ``perf_counter`` time), at least
    ``min_rounds`` of them; spans are recorded when ``tracer`` is given."""
    stats = trainer.network.stats
    scheduler = trainer.scheduler
    samples: List[RoundSample] = []
    history_bytes = 0
    offset = 0
    while offset < min_rounds or time.perf_counter() < until:
        evaluate = ((offset + 1) % workload.eval_every == 0
                    or offset + 1 == workload.rounds)
        before = (stats.bytes_total, stats.dropped_bytes_total,
                  stats.messages_total, stats.dropped_total,
                  stats.retries_total)
        phases_before = dict(scheduler.phase_seconds)
        slowness = host.slowness()
        if tracer is not None:
            tracer.round_id = offset
        started = time.perf_counter()
        record = trainer.run_round(evaluate=evaluate)
        seconds = time.perf_counter() - started
        if tracer is not None:
            tracer.round_id = -1
        offset += 1
        samples.append(RoundSample(
            seconds=seconds,
            record=record,
            delivered_bytes=stats.bytes_total - before[0],
            dropped_bytes=stats.dropped_bytes_total - before[1],
            delivered_messages=stats.messages_total - before[2],
            dropped_messages=stats.dropped_total - before[3],
            retries=stats.retries_total - before[4],
            phases={name: value - phases_before.get(name, 0.0)
                    for name, value in scheduler.phase_seconds.items()},
            client_steps=workload.client_steps(trainer, record),
            slowness=slowness,
        ))
        history_bytes = max(history_bytes, _history_bytes(trainer))
    return Episode(samples=samples, traffic=stats.snapshot(),
                   complete=len(samples) >= workload.rounds,
                   traced=tracer is not None,
                   history_bytes=history_bytes)


def run_workload(workload: Workload, inputs: dict, *, seconds: float,
                 trace: bool) -> Observation:
    """Measure ``workload`` on ``inputs`` for about ``seconds``."""
    setup_seconds: List[float] = []
    setup_slowness: List[float] = []
    host = HostSpeed(workload.calibration)

    def construct():
        # Earlier trainers are closed and dropped by the caller; collect
        # them now so their memory is free before the timed construction.
        gc.collect()
        gc.collect()
        setup_slowness.append(host.slowness())
        started = time.perf_counter()
        trainer = workload.build(inputs)
        setup_seconds.append(time.perf_counter() - started)
        return trainer

    def episode(until: float, min_rounds: int, traced: bool) -> Episode:
        trainer = construct()
        try:
            return _run_episode(trainer, workload, until=until,
                                min_rounds=min_rounds,
                                tracer=tracer if traced else None, host=host)
        finally:
            trainer.close()

    for _ in range(workload.extra_setups):
        trainer = construct()
        config = trainer.config
        num_workers = getattr(trainer.execution, "num_workers", 1)
        trainer.close()
    del trainer

    tracer = Tracer() if trace else None
    if tracer is None:
        deadline = time.perf_counter() + seconds
        episodes = [episode(deadline, workload.rounds, traced=False),
                    episode(0.0, REPLAY_ROUNDS, traced=False)]
    else:
        half = seconds / 2
        episodes = [episode(time.perf_counter() + half, REPLAY_ROUNDS,
                            traced=False)]
        tracer.install()
        try:
            episodes.append(episode(time.perf_counter() + half,
                                    REPLAY_ROUNDS, traced=True))
        finally:
            tracer.uninstall()
    return Observation(setup_seconds=setup_seconds,
                       setup_slowness=setup_slowness, episodes=episodes,
                       config=config, num_workers=num_workers,
                       tracer=tracer)
