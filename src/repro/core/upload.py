"""Upload strategies: which PSs each client sends its local model to.

The paper's **sparse uploading** strategy has every client choose one PS
uniformly at random, so the aggregation-phase cost is ``K`` model transfers
per round — equal to classical single-PS FedAvg and ``P`` times cheaper than
the trivial upload-to-all scheme. ``FullUpload`` and ``MultiUpload``
implement the alternatives for the communication-cost benchmark.

Under faults an upload can fail (the chosen PS crashed, the link
partitioned, the packet was lost); :class:`RetryPolicy` bounds how a client
responds — retry the same PS once, then re-sample an alive PS, with
exponential backoff — so availability problems degrade throughput
gracefully instead of silently shrinking every PS's aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..common.errors import ConfigurationError

__all__ = ["UploadStrategy", "SparseUpload", "FullUpload", "MultiUpload",
           "RetryPolicy", "make_upload_strategy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry-with-backoff for failed uploads.

    Attempt 0 is the original send. On failure, attempt 1 re-sends to the
    *same* PS after ``base_backoff_s`` (the loss may be a transient packet
    drop); attempts 2..``max_retries`` re-sample a uniformly random alive
    PS — the failed PS is likely down, and uniform re-sampling preserves
    the sparse strategy's uniform-choice property over the alive set.
    """

    max_retries: int = 2
    base_backoff_s: float = 0.05
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.base_backoff_s < 0:
            raise ConfigurationError(
                f"base_backoff_s must be >= 0, got {self.base_backoff_s}"
            )
        if self.backoff_factor < 1.0:
            raise ConfigurationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )

    def backoff_s(self, attempt: int) -> float:
        """Simulated wait before retry ``attempt`` (1-based)."""
        if attempt < 1:
            raise ConfigurationError(
                f"attempt must be >= 1, got {attempt}"
            )
        return self.base_backoff_s * self.backoff_factor ** (attempt - 1)

    def next_target(self, attempt: int, failed_target: int,
                    alive_servers: Sequence[int], *,
                    rng: np.random.Generator) -> Optional[int]:
        """PS to contact on retry ``attempt``; ``None`` when none is alive.

        Prefers re-sampling among alive PSs other than the one that just
        failed; falls back to the failed PS itself if it is the only one
        alive (its failure may have been a transient link loss).
        """
        if attempt == 1:
            return failed_target
        candidates = [s for s in alive_servers if s != failed_target]
        if not candidates:
            return failed_target if failed_target in alive_servers else None
        return int(candidates[rng.integers(0, len(candidates))])


class UploadStrategy:
    """Assigns each client the set of PSs it uploads to this round."""

    #: Registry name; subclasses override.
    name: str = ""

    def assign(self, num_clients: int, num_servers: int, *,
               rng: np.random.Generator) -> List[List[int]]:
        """Server indices per client: ``result[k]`` lists client ``k``'s PSs."""
        raise NotImplementedError

    def uploads_per_round(self, num_clients: int, num_servers: int) -> int:
        """Total number of model transfers in one aggregation phase."""
        raise NotImplementedError


class SparseUpload(UploadStrategy):
    """The paper's strategy: one uniformly random PS per client.

    Communication cost: ``K`` transfers per round.
    """

    name = "sparse"

    def assign(self, num_clients: int, num_servers: int, *,
               rng: np.random.Generator) -> List[List[int]]:
        picks = rng.integers(0, num_servers, size=num_clients)
        return [[int(pick)] for pick in picks]

    def uploads_per_round(self, num_clients: int, num_servers: int) -> int:
        return num_clients


class FullUpload(UploadStrategy):
    """Every client uploads to every PS.

    Communication cost: ``K x P`` transfers per round — the naive scheme the
    sparse strategy replaces.
    """

    name = "full"

    def assign(self, num_clients: int, num_servers: int, *,
               rng: np.random.Generator) -> List[List[int]]:
        everyone = list(range(num_servers))
        return [list(everyone) for _ in range(num_clients)]

    def uploads_per_round(self, num_clients: int, num_servers: int) -> int:
        return num_clients * num_servers


class MultiUpload(UploadStrategy):
    """Each client uploads to ``count`` distinct uniformly chosen PSs.

    Interpolates between sparse (``count=1``) and full (``count=P``);
    communication cost ``K x count``.
    """

    name = "multi"

    def __init__(self, count: int) -> None:
        if count <= 0:
            raise ConfigurationError(f"count must be positive, got {count}")
        self.count = count

    def assign(self, num_clients: int, num_servers: int, *,
               rng: np.random.Generator) -> List[List[int]]:
        if self.count > num_servers:
            raise ConfigurationError(
                f"cannot choose {self.count} distinct PSs out of {num_servers}"
            )
        return [
            sorted(int(s) for s in
                   rng.choice(num_servers, size=self.count, replace=False))
            for _ in range(num_clients)
        ]

    def uploads_per_round(self, num_clients: int, num_servers: int) -> int:
        return num_clients * self.count


def make_upload_strategy(config) -> UploadStrategy:
    """Build an upload strategy from a :class:`FedMSConfig`.

    The strategy name and ``uploads_per_client`` are read from the config
    (duck-typed on the ``upload_strategy`` attribute, so this module stays
    import-free of ``repro.core.config``).
    """
    if not hasattr(config, "upload_strategy"):
        raise ConfigurationError(f"expected a FedMSConfig, got {config!r}")
    name = config.upload_strategy
    count = config.uploads_per_client
    if name == "sparse":
        return SparseUpload()
    if name == "full":
        return FullUpload()
    if name == "multi":
        return MultiUpload(count)
    raise ConfigurationError(
        f"unknown upload strategy {name!r}; expected sparse/full/multi"
    )
