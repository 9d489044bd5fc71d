"""Fed-MS repository benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig2-noise --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The line before it
carries provenance (cores, BLAS vendor and threads, backend and workers,
versions, seed, commit). Spans of a traced run and each run's full result
are written under ``perfbench/out/``. The exit code is 0 only when every
correctness check passed; a checkout without ``src/repro`` exits 2.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _import_program():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise ImportError(f"no repro package under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise ImportError(f"repro imported from {repro.__file__}, "
                          f"not from {src}")
    return repro


def _blas_info() -> dict:
    """BLAS vendor and effective thread count, read without extra packages."""
    import numpy as np

    info = {"vendor": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                info["threads"] = int(getter())
                return info
    return info


def _commit() -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def provenance(args, observation) -> dict:
    import numpy as np

    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
    blas = _blas_info()
    config = observation.config
    workers = observation.num_workers
    threads = blas["threads"] or 1
    timed = observation.timed
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "size": args.size,
        "nproc": cores,
        "blas_vendor": blas["vendor"],
        "blas_threads": blas["threads"],
        "backend": config.resolved_execution_backend,
        "workers": workers,
        "oversubscribed": workers * threads > cores,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(),
        "machine": platform.machine(),
        # Host times before the host-speed normalisation (hostspeed.py).
        "host_slowness_p50": statistics.median(s.slowness for s in timed),
        "raw_round_s_p50": statistics.median(s.seconds for s in timed),
        "raw_setup_s": statistics.median(observation.setup_seconds),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # ``tiny`` shrinks the inputs for the benchmark's own tests.
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    try:
        _import_program()
    except ImportError as error:
        print(f"perfbench: cannot import the program: {error}",
              file=sys.stderr)
        return 2
    # Imported only once repro is importable from this checkout.
    from checks import check_run, check_trace
    from measure import run_workload
    from report import END_TO_END, PER_LAYER
    from report import end_to_end_metrics, per_layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    inputs = workload.make_inputs(args.seed, args.size)
    observation = run_workload(workload, inputs, seconds=args.seconds,
                               trace=bool(args.trace))
    failures = check_run(workload, observation.config, observation.episodes)
    if args.trace:
        failures += check_trace(observation.traced,
                                observation.tracer.counters())
        values = per_layer_metrics(workload, observation)
        table = [(name, unit) for name, unit, *_ in PER_LAYER]
    else:
        values = end_to_end_metrics(workload, observation)
        table = [(name, unit) for name, unit, *_ in END_TO_END]

    samples = [s for e in observation.episodes for s in e.samples]
    result = {
        "correct": not failures,
        "attempted": len(samples),
        "failed": min(len(failures), len(samples)),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in table},
    }
    prov = provenance(args, observation)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}"
    details = {"provenance": prov, "failures": failures, "result": result,
               "setup_seconds": observation.setup_seconds,
               "setup_slowness": observation.setup_slowness,
               "round_seconds": [s.seconds for s in samples],
               "round_slowness": [s.slowness for s in samples]}
    if observation.tracer is not None:
        details["absent_probes"] = observation.tracer.absent
        observation.tracer.save(str(OUT / f"{stem}-spans.npz"), prov)
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1))
    for failure in failures[:20]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(json.dumps({"provenance": prov,
                      "absent_probes": details.get("absent_probes", [])}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
