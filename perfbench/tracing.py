"""In-memory spans around calls into the program's layers.

The benchmark does not trace inside ``src/``: it wraps public functions
and methods of each layer from here, at run time, and records one span per
call -- name, start, end, parent span and round id -- in per-thread
columnar buffers (so worker-thread spans need no lock). Counters measured
at the same boundaries (bytes copied, rows filtered, ...) accumulate per
thread too. :meth:`Tracer.save` writes every span out when the run ends.

A probe whose target no longer exists (a refactor removed or renamed it)
is reported as absent rather than failing, so identical benchmark code
runs on a parent commit and on a refactor of it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

__all__ = ["Probe", "PROBES", "Tracer"]

# counter(args, kwargs, result) -> ((name, value), ...): counters measured
# at one call, added to the per-thread totals.
Counter = Callable[[tuple, dict, object], Iterable[Tuple[str, float]]]


@dataclass(frozen=True)
class Probe:
    """One traced boundary: ``target`` is ``"module:attr"`` or
    ``"module:Class.method"``.

    ``subclasses`` also wraps every subclass that overrides the method;
    ``collapse`` records only the outermost of nested same-name spans on a
    thread (recursive ``forward``/``backward`` through containers).
    """

    span: str
    target: str
    subclasses: bool = False
    collapse: bool = False
    counter: Optional[Counter] = None


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs.get(name)


def _count_to_vector(args, kwargs, result):
    return (("nn.vector_copy_bytes", result.nbytes),)


def _count_from_vector(args, kwargs, result):
    return (("nn.vector_copy_bytes",
             np.asarray(_arg(args, kwargs, 1, "vector")).nbytes),)


def _count_filter_rows(args, kwargs, result):
    return (("aggregation.filter_rows",
             np.shape(_arg(args, kwargs, 0, "stack"))[0]),)


def _count_filter_jobs(args, kwargs, result):
    return (("execution.filter_jobs", len(_arg(args, kwargs, 1, "jobs"))),)


def _count_encode(args, kwargs, result):
    return (("codecs.dense_bytes", 8 * result.dim),
            ("codecs.encoded_bytes", result.encoded_nbytes))


def _count_send(args, kwargs, result):
    size = _arg(args, kwargs, 1, "message").size_bytes
    return (("network.offered_bytes", size),
            ("network.delivered_bytes" if result else
             "network.dropped_bytes", size))


#: Every boundary the traced run wraps, by layer.
PROBES: Tuple[Probe, ...] = (
    # nn
    Probe("nn.forward", "repro.nn.module:Module.__call__", collapse=True),
    Probe("nn.backward", "repro.nn.module:Module.backward",
          subclasses=True, collapse=True),
    Probe("nn.sgd_step", "repro.nn.optim:SGD.step"),
    Probe("nn.to_vector", "repro.nn.serialization:to_vector",
          counter=_count_to_vector),
    Probe("nn.from_vector", "repro.nn.serialization:from_vector",
          counter=_count_from_vector),
    # data
    Probe("data.sample_batch", "repro.data.datasets:DataLoader.sample_batch"),
    Probe("data.shard_materialize",
          "repro.population.shards:BlobShardSpec.materialize"),
    # core.client
    Probe("client.local_train", "repro.core.client:Client.local_train"),
    Probe("client.evaluate", "repro.core.client:Client.evaluate"),
    # execution
    Probe("execution.train_clients",
          "repro.execution.backend:ExecutionBackend.train_clients",
          subclasses=True, collapse=True),
    Probe("execution.filter_clients",
          "repro.execution.backend:ExecutionBackend.filter_clients",
          subclasses=True, collapse=True, counter=_count_filter_jobs),
    # aggregation
    Probe("aggregation.filter", "repro.aggregation.rules:trimmed_mean",
          collapse=True, counter=_count_filter_rows),
    Probe("aggregation.filter",
          "repro.aggregation.rules:trimmed_mean_by_count",
          collapse=True, counter=_count_filter_rows),
    # attacks
    Probe("attacks.tamper", "repro.attacks.base:Attack.tamper",
          subclasses=True, collapse=True),
    # core.codecs
    Probe("codecs.encode", "repro.core.codecs:CodecPipeline.encode",
          counter=_count_encode),
    Probe("codecs.decode", "repro.core.codecs:EncodedUpdate.decode"),
    # core.server
    Probe("server.aggregate", "repro.core.server:ParameterServer.aggregate"),
    Probe("server.disseminate",
          "repro.core.server:ParameterServer.disseminate",
          subclasses=True, collapse=True),
    # simulation.network
    Probe("network.send", "repro.simulation.network:Network.send",
          counter=_count_send),
    # simulation.clock and core.health
    Probe("clock.arrivals", "repro.simulation.clock:VirtualClock.arrivals"),
    Probe("health.observe_round",
          "repro.core.health:HealthLedger.observe_round"),
    # population
    Probe("population.sample", "repro.population.sampling:sample_clients"),
    Probe("population.materialize",
          "repro.population.clients:ClientPopulation.materialize"),
    Probe("population.executor_train",
          "repro.population.executor:PopulationExecutor.train",
          subclasses=True, collapse=True),
    Probe("population.tier_combine",
          "repro.population.tiers:TierAggregator.combine"),
    Probe("population.churn",
          "repro.population.churn:ChurnScheduler.begin_round"),
)


class _ThreadBuffer:
    """Columnar span storage owned by one thread."""

    __slots__ = ("name", "start", "end", "parent", "round", "stack",
                 "open_names", "counters")

    def __init__(self) -> None:
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.round = array("i")
        self.stack: List[int] = []
        self.open_names: Dict[int, int] = {}
        self.counters: Dict[str, float] = {}


class Tracer:
    """Installs :data:`PROBES`, records spans, summarises them."""

    def __init__(self, probes: Tuple[Probe, ...] = PROBES) -> None:
        self.probes = probes
        self.round_id = -1
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._buffers: List[_ThreadBuffer] = []
        self._buffers_lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        self.absent: List[str] = []

    # -- recording ----------------------------------------------------------

    def _buffer(self) -> _ThreadBuffer:
        buffer = getattr(self._local, "buffer", None)
        if buffer is None:
            buffer = _ThreadBuffer()
            self._local.buffer = buffer
            with self._buffers_lock:
                self._buffers.append(buffer)
        return buffer

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, probe: Probe):
        name_id = self._name_id(probe.span)
        collapse = probe.collapse
        counter = probe.counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buffer = tracer._buffer()
            if collapse and buffer.open_names.get(name_id):
                return fn(*args, **kwargs)
            index = len(buffer.name)
            buffer.name.append(name_id)
            buffer.parent.append(buffer.stack[-1] if buffer.stack else -1)
            buffer.round.append(tracer.round_id)
            buffer.end.append(0.0)
            buffer.stack.append(index)
            buffer.open_names[name_id] = buffer.open_names.get(name_id, 0) + 1
            buffer.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                buffer.end[index] = time.perf_counter()
                buffer.stack.pop()
                buffer.open_names[name_id] -= 1
            if counter is not None and tracer.round_id >= 0:
                counters = buffer.counters
                for key, value in counter(args, kwargs, result):
                    counters[key] = counters.get(key, 0.0) + value
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every probe target that exists; note the absent ones."""
        for probe in self.probes:
            if not self._install_probe(probe):
                self.absent.append(probe.target)

    def _install_probe(self, probe: Probe) -> bool:
        module_name, _, attr_path = probe.target.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        if "." not in attr_path:
            original = getattr(module, attr_path, None)
            if not callable(original):
                return False
            traced = self._wrap(original, probe)
            # Rebind every ``from ... import name`` copy in the package too.
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").split(".")[0] != "repro":
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, key, traced)
            return True
        class_name, _, method = attr_path.partition(".")
        cls = getattr(module, class_name, None)
        if not isinstance(cls, type) or not callable(getattr(cls, method,
                                                             None)):
            return False
        owners = [cls]
        if probe.subclasses:
            pending = list(cls.__subclasses__())
            while pending:
                sub = pending.pop()
                pending.extend(sub.__subclasses__())
                if method in vars(sub):
                    owners.append(sub)
        for owner in owners:
            if method in vars(owner):
                self._patch(owner, method,
                            self._wrap(vars(owner)[method], probe))
        return True

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every wrapped attribute (newest first)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def columns(self) -> Dict[str, np.ndarray]:
        """All spans as flat columns; ``parent`` indexes the same arrays and
        ``thread`` numbers the recording threads."""
        parts: Dict[str, List[np.ndarray]] = {
            key: [] for key in ("name", "start", "end", "parent", "round",
                                "thread")}
        offset = 0
        for thread, buffer in enumerate(self._buffers):
            parent = np.array(buffer.parent, dtype=np.int64)
            parts["parent"].append(np.where(parent >= 0, parent + offset, -1))
            parts["name"].append(np.array(buffer.name, dtype=np.int32))
            parts["start"].append(np.array(buffer.start))
            parts["end"].append(np.array(buffer.end))
            parts["round"].append(np.array(buffer.round, dtype=np.int32))
            parts["thread"].append(np.full(len(parent), thread, np.int32))
            offset += len(parent)
        return {key: np.concatenate(arrays) if arrays else np.zeros(0)
                for key, arrays in parts.items()}

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_s``, ``self_s``.

        Only spans recorded inside a round (round id >= 0) count. Self time
        is a span's duration minus the durations of its direct children on
        the same thread.
        """
        cols = self.columns()
        duration = cols["end"] - cols["start"]
        has_parent = cols["parent"] >= 0
        child_time = np.bincount(cols["parent"][has_parent],
                                 weights=duration[has_parent],
                                 minlength=duration.size)
        self_time = duration - child_time
        in_round = cols["round"] >= 0
        out: Dict[str, Dict[str, float]] = {}
        for name_id, name in enumerate(self.names):
            mask = (cols["name"] == name_id) & in_round
            out[name] = {"calls": float(mask.sum()),
                         "total_s": float(duration[mask].sum()),
                         "self_s": float(self_time[mask].sum())}
        return out

    def counters(self) -> Dict[str, float]:
        merged: Dict[str, float] = {}
        for buffer in self._buffers:
            for key, value in buffer.counters.items():
                merged[key] = merged.get(key, 0.0) + value
        return merged

    def save(self, path: str, meta: Dict[str, object]) -> None:
        """Write every span (and the name table) to an ``.npz`` file."""
        cols = self.columns()
        np.savez(path, names=np.array(self.names, dtype=object).astype(str),
                 meta=np.array(json.dumps(meta)), **cols)
