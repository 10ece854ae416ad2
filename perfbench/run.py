"""The repository benchmark: cold Table II routes, ECO revisions, a warm service.

Run from the repository root::

    python3 perfbench/run.py --workload contest_cold --seed 0 --seconds 20 --trace 0

``--workload`` is one of ``contest_cold``, ``eco_revisions`` and
``serve_warm`` (perfbench/NOTES.md says what each drives and why).  The
seed makes every input; the program receives only the generated inputs.

The run sets its workload up :data:`SETUP_REPEATS` times, routes each
distinct input once outside every timer and checks it with
``repro.api.evaluate``, then drives a closed loop for ``--seconds``.
Every timed op must reproduce its input's checked fingerprint; one that
does not, fails, raises or comes back degraded counts as failed.
Timings are scaled to a reference host speed by the probe of
``perfbench/hostspeed.py``, except the service's op timings, and the
run record keeps them as measured under ``raw``.

Standard output ends with two JSON lines: the run record (environment,
op counts, tail percentiles, the digest of the reference fingerprints),
then the result ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, measured untraced;
with ``--trace 1`` they are the per-layer ones of ``perfbench/layers.py``.
Both lines are also written under ``perfbench-out/``, with the traced
run's spans.  A checkout without the program's source exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

#: Setups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench-out"


def environment() -> Dict[str, Any]:
    """Host and library facts every run records."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "configuration": blas.get("openblas configuration"),
        },
        "blas_threads": {
            name: os.environ.get(name, "unset")
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def reference_digest(references) -> str:
    """One SHA-256 over every reference fingerprint and delay (ungated)."""
    lines = [
        f"{key}:{references[key].fingerprint}:{references[key].delay!r}"
        for key in sorted(references)
    ]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("contest_cold", "eco_revisions", "serve_warm"),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import hostspeed
    import layers
    import measure
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    scratch = OUT_DIR / f"scratch-{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, scratch)
    setup_times: List[float] = []
    setup_scales: List[float] = []
    generate_times: List[float] = []
    evaluate_times: List[float] = []
    try:
        for _ in range(SETUP_REPEATS):
            workload.close()
            gc.collect()
            before = hostspeed.probe()
            start = time.perf_counter()
            generate_times.append(workload.setup())
            setup_times.append(time.perf_counter() - start)
            setup_scales.append(hostspeed.scale([before, hostspeed.probe()]))
        references = workload.verify(evaluate_times)
        if args.trace:
            values, record, events = layers.traced_run(
                workload, references, args.seconds
            )
            values["benchgen.generate_s"] = statistics.median(generate_times)
            values["drc.evaluate_s"] = statistics.fmean(evaluate_times)
            units = layers.LAYER_UNITS
        else:
            values, record = measure.measure(workload, references, args.seconds)
            values["setup_s"] = statistics.median(
                seconds * scale for seconds, scale in zip(setup_times, setup_scales)
            )
            record["raw"]["setup_s"] = statistics.median(setup_times)
            delays = [ref.delay for ref in references.values() if ref.delay]
            values["delay_geomean"] = measure.geomean(delays) if delays else 0.0
            values["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            )
            units = measure.END_TO_END_UNITS
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)

    bad_references = {k: r.detail for k, r in references.items() if not r.ok}
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        setup_s_repeats=setup_times,
        setup_scales=setup_scales,
        reference_probe_s=hostspeed.REFERENCE_PROBE_S,
        references={
            key: {"fingerprint": ref.fingerprint, "delay": ref.delay}
            for key, ref in sorted(references.items())
        },
        bad_references=bad_references,
        reference_digest=reference_digest(references),
        **environment(),
    )
    result = {
        "correct": record["failed"] == 0 and not bad_references,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        with (OUT_DIR / f"{stem}-spans.jsonl").open("w") as handle:
            for event in events:
                handle.write(json.dumps(event, sort_keys=True) + "\n")
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=2, sort_keys=True)
    )
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
