#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

Usage::

    python3 perfbench/run.py --workload trials --seed 1 --seconds 10 --trace 0

Workloads (the seed makes every input; the program only sees the inputs):

* ``trials`` - ``repro.simulate`` over paper-shaped multi-trial cells;
* ``sweep`` - ``run_cluster_sweep`` with 2 workers over many cheap shards;
* ``service-small`` - a closed loop of small submits with a ``request_id``
  and interleaved ``stats`` reads against the service in its own process;
* ``service-bulk`` - a closed loop of large pipelined submits against it;
* ``service-open`` - an open loop on a rate ladder against the service.  It
  is not in ``BENCHMARK.json``: its p99 and highest rate hinge on whether
  one of the service's gen-2 collector pauses (tens of ms) lands in a
  step, so ten-second runs do not agree.  Run it to study that path; its
  highest rate meeting the latency limit is ``max_rate_hz`` in the
  envelope.

With ``--trace 0`` the last stdout line holds every end-to-end metric of
``BENCHMARK.json``; with ``--trace 1`` every per-layer metric, measured
with the benchmark's wrappers installed around each layer, plus
``trace_overhead`` against an untraced pass in the same run.  A layer a
workload does not run reads 0 and is named in the envelope's
``layers_not_run``.  The line before the result is the reproducibility
envelope, which also holds the raw (unpaced) figures.  The end-to-end
metrics mean, per workload:

==============  ============  ============  ============  ==============
metric          trials        sweep         service-      service-bulk
                                            small
==============  ============  ============  ============  ==============
balls_per_s     balls placed  balls placed  jobs          jobs
                              in shards     dispatched    dispatched
latency_p50_ms  one pass of   sweep call    one request   one large
                simulate()    to its first                submit, from
                over all      streamed row                its wave's
                cells                                     send
latency_p99_ms  slowest of    p90 of the    p99 of 1024-request windows,
                the first 3   first 20      median window
                passes        first rows
==============  ============  ============  ==============================

Times are paced (see ``common.Pace``): each timed operation is scaled by
the speed of a fixed calibration loop measured next to it, because the
shared hosts this runs on change speed by up to 2x within minutes.  Every
latency figure is a statistic over a fixed number of samples or a fixed
window, so a faster program does not report a higher percentile.  Failed
operations are reported as ``failed`` of ``attempted`` (and as the
per-layer ``fail_rate``), because a metric that is zero on a correct run
cannot carry a relative bound.
"""

import argparse
import importlib
import json
import sys

import common

MODULES = {
    "trials": "trials",
    "sweep": "sweep",
    "service-open": "service",
    "service-small": "service",
    "service-bulk": "service",
}


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="only set the workload up (timed from outside for setup_s)",
    )
    args = parser.parse_args()

    common.use_source_tree()
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    module = importlib.import_module(MODULES[args.workload])
    if args.setup_probe:
        module.setup(args.workload, args.seed)
        return 0
    result = module.run(args.workload, args.seed, args.seconds, bool(args.trace))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = result["layers"] if args.trace else result["e2e"]
    source.setdefault("peak_rss_mb", common.peak_rss_mb())
    if args.trace:
        source.setdefault("fail_rate", result["failed"] / max(result["attempted"], 1))
    metrics, absent = {}, []
    for entry in wanted:
        name = entry["name"]
        if name not in source:
            if not args.trace:
                raise SystemExit(f"perfbench: {args.workload} did not measure {name}")
            absent.append(name)  # a layer this workload does not run
        metrics[name] = (float(source.get(name, 0.0)), entry["unit"])
    info = common.envelope(
        args.workload,
        args.seed,
        result.get("samples", {}),
        dict(result.get("info", {}), trace=args.trace, layers_not_run=absent),
    )
    common.emit(result["correct"], result["attempted"], result["failed"], metrics, info)
    return 0


if __name__ == "__main__":
    sys.exit(main())
