"""Command-line entry point: ``repro`` (alias ``repro-experiment``).

Examples
--------
List the available experiments::

    repro --list

Run a scaled-down Table 1 and print it as markdown::

    repro table1 --scale 0.1

Run the Figure 3(a) sweep at 5% scale and write the rows to CSV::

    repro figure3a --scale 0.05 --output out/figure3a.csv

Run an arbitrary declarative spec (simulation or dispatch; see
:mod:`repro.api`) straight from a JSON file — ``-`` reads stdin::

    repro --spec runs/adaptive_1m.json
    echo '{"protocol": "adaptive", "n_balls": 100000, "n_bins": 10000,
           "seed": 1}' | repro --spec -

Fan a sweep out over 4 cluster workers, streaming per-trial record rows to
JSONL (``--resume`` continues a truncated file; see :mod:`repro.cluster`)::

    repro sweep --workers 4 --out results.jsonl
    repro sweep --workers 4 --out results.jsonl --resume
    repro sweep --preset table1 --scale 0.05 --workers 2 --out smoke.jsonl

Run the live dispatch service (newline-delimited JSON over TCP; see
:mod:`repro.service`), checkpointing to a file and restoring from it::

    repro serve --policy adaptive --n-servers 10000 --seed 7 --port 7077
    repro serve --restore state.json --checkpoint state.json --port 7077

Run it supervised — auto-checkpoint every 5 s, restart from the latest
snapshot on a crash, drain + final checkpoint on SIGTERM (see
:mod:`repro.resilience`)::

    repro serve --checkpoint state.json --checkpoint-interval 5 --supervise
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Sequence

from repro.core.backend import describe_backends, get_backend, use_backend
from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.reporting.tables import format_markdown_table, write_csv

__all__ = ["build_parser", "build_sweep_parser", "build_serve_parser", "main"]


def _add_version_flag(parser: argparse.ArgumentParser) -> None:
    """``--version`` on every entry point (main parser and subcommands)."""
    from repro._version import __version__

    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
    )


#: Experiments whose runners fan out over cluster workers (``--workers``).
_FAN_OUT_EXPERIMENTS = frozenset({"table1", "figure3a", "figure3b"})


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        description=(
            "Reproduce the tables and figures of 'Balls-into-Bins with Nearly "
            "Optimal Load Distribution' (SPAA 2013)."
        ),
    )
    _add_version_flag(parser)
    parser.add_argument(
        "experiment",
        nargs="?",
        choices=sorted(EXPERIMENTS),
        help="experiment identifier (see --list)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiments and exit"
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=0.1,
        help="problem-size scale factor in (0, 1]; 1.0 is paper scale (default 0.1)",
    )
    parser.add_argument(
        "--trials", type=int, default=None, help="override the number of trials"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "cluster worker processes the table1 / figure3 cells fan out "
            "over (default 1: in-process; same rows either way)"
        ),
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="write tabular results to this CSV file instead of printing markdown",
    )
    parser.add_argument(
        "--json", action="store_true", help="print raw JSON instead of a table"
    )
    parser.add_argument(
        "--spec",
        type=str,
        default=None,
        metavar="FILE",
        help=(
            "run a declarative JSON spec (repro.api.SimulationSpec / "
            "DispatchSpec) instead of a named experiment; '-' reads stdin"
        ),
    )
    parser.add_argument(
        "--backend",
        type=str,
        default=None,
        metavar="NAME",
        help=(
            "kernel backend for the run (see --list-backends); results are "
            "bit-identical across backends, this only picks the execution "
            "strategy.  Specs with their own 'backend' field keep it."
        ),
    )
    parser.add_argument(
        "--list-backends",
        action="store_true",
        help="list registered kernel backends and exit",
    )
    return parser


def build_sweep_parser() -> argparse.ArgumentParser:
    """Argument parser for the ``repro sweep`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro sweep",
        description=(
            "Run a sweep's (protocol, problem-size) cells as shards — "
            "optionally fanned out over worker processes with retry on "
            "worker death — streaming per-trial record rows to JSONL."
        ),
    )
    _add_version_flag(parser)
    parser.add_argument(
        "--preset",
        choices=("figure3", "table1"),
        default="figure3",
        help=(
            "base sweep: the Figure 3 (adaptive vs threshold) grid or the "
            "Table 1 cell (default: figure3)"
        ),
    )
    parser.add_argument(
        "--protocols",
        type=str,
        default=None,
        metavar="A,B,...",
        help="override the preset's protocols (comma-separated registry names)",
    )
    parser.add_argument(
        "--n-bins", type=int, default=None, help="override the preset's bin count"
    )
    parser.add_argument(
        "--balls",
        type=str,
        default=None,
        metavar="M1,M2,...",
        help="override the preset's ball-count grid (comma-separated)",
    )
    parser.add_argument(
        "--trials", type=int, default=None, help="override trials per cell"
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the master seed"
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=0.01,
        help=(
            "problem-size scale factor in (0, 1]; 1.0 is paper scale "
            "(default 0.01 — the CLI default sweep should finish in seconds)"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help=(
            "cluster worker processes (one shard in flight per worker); "
            "0 (default) runs the shards in-process — same rows, no fan-out"
        ),
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="FILE.jsonl",
        help="stream per-trial record rows to this JSONL file as shards finish",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "scan --out first and skip shards whose rows are already "
            "complete (partial tail shards are dropped and re-run)"
        ),
    )
    parser.add_argument(
        "--backend",
        type=str,
        default=None,
        metavar="NAME",
        help="kernel backend for every shard (rides on each shard's spec)",
    )
    parser.add_argument(
        "--max-shard-retries",
        type=int,
        default=3,
        help="worker deaths tolerated per shard before aborting (default 3)",
    )
    parser.add_argument(
        "--shard-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "treat a worker that sends no frame for this long as hung "
            "(kill + retry the shard like a worker death); workers "
            "heartbeat at a quarter of the deadline, so long shards "
            "survive.  Default: wait forever"
        ),
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the summary rows as JSON instead of a markdown table",
    )
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    """Argument parser for the ``repro serve`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Run the live dispatch service: a TCP server speaking "
            "newline-delimited JSON (submit / stats / checkpoint / drain / "
            "shutdown) around one stateful dispatcher, micro-batching "
            "submissions per event-loop tick.  See repro.service."
        ),
    )
    _add_version_flag(parser)
    parser.add_argument(
        "--host", default="127.0.0.1", help="interface to listen on"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (0 binds an ephemeral port and prints it)",
    )
    parser.add_argument(
        "--policy",
        default="adaptive",
        help="dispatch policy (default adaptive; see repro.scheduler)",
    )
    parser.add_argument(
        "--n-servers", type=int, default=1000, help="server count (default 1000)"
    )
    parser.add_argument(
        "--d", type=int, default=2, help="probes per round (default 2)"
    )
    parser.add_argument(
        "--k", type=int, default=1, help="adaptive accept slack (default 1)"
    )
    parser.add_argument(
        "--w-max",
        type=float,
        default=None,
        help="maximum job size (weighted policies)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="probe-stream seed"
    )
    parser.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help="kernel backend for the dispatch engines (see repro --list-backends)",
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=100_000,
        help="backpressure bound on queued jobs (default 100000)",
    )
    parser.add_argument(
        "--overflow",
        choices=("block", "shed"),
        default="block",
        help="queue-full behaviour: block submitters or shed submissions",
    )
    parser.add_argument(
        "--checkpoint",
        type=Path,
        default=None,
        metavar="FILE.json",
        help="write dispatcher state here on every checkpoint request",
    )
    parser.add_argument(
        "--restore",
        type=Path,
        default=None,
        metavar="FILE.json",
        help=(
            "resume from this checkpoint file (bit-identical continuation; "
            "construction flags like --policy are taken from the checkpoint)"
        ),
    )
    parser.add_argument(
        "--checkpoint-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "write a checkpoint automatically every SECONDS (requires "
            "--checkpoint); SIGTERM always writes a final one"
        ),
    )
    parser.add_argument(
        "--supervise",
        action="store_true",
        help=(
            "run under a supervisor that restarts a crashed service from "
            "the latest checkpoint (requires --checkpoint; restores from "
            "it automatically when it exists)"
        ),
    )
    parser.add_argument(
        "--max-restarts",
        type=int,
        default=5,
        help="restarts allowed under --supervise before giving up (default 5)",
    )
    return parser


def _serve_dispatcher_factory(args: argparse.Namespace):
    """The cold-start dispatcher a ``repro serve`` invocation describes."""
    from repro.scheduler.dispatcher import Dispatcher

    def factory() -> "Dispatcher":
        return Dispatcher(
            args.n_servers,
            policy=args.policy,
            d=args.d,
            k=args.k,
            w_max=args.w_max,
            seed=args.seed,
            backend=args.backend,
        )

    return factory


def _main_serve_supervised(
    parser: argparse.ArgumentParser, args: argparse.Namespace, checkpoint_path: str
) -> int:
    """``repro serve --supervise`` — keep the service alive across crashes."""
    import signal
    import threading

    from repro.resilience import ServiceSupervisor

    supervisor = ServiceSupervisor(
        _serve_dispatcher_factory(args),
        checkpoint_path=checkpoint_path,
        checkpoint_interval=args.checkpoint_interval,
        max_restarts=args.max_restarts,
        host=args.host,
        port=args.port,
        service_kwargs={
            "max_queue_jobs": args.max_queue,
            "overflow": args.overflow,
        },
    )
    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop.set())
    try:
        supervisor.start()
    except ConfigurationError as exc:
        parser.error(str(exc))
    host, port = supervisor.address
    print(
        f"repro service listening on {host}:{port} under supervision "
        f"(source={supervisor.restore_sources[-1]}, "
        f"checkpoint={checkpoint_path})",
        file=sys.stderr,
        flush=True,
    )
    while not stop.wait(0.2):
        if supervisor.failed.is_set():
            print(
                f"error: service exceeded --max-restarts={args.max_restarts}; "
                f"giving up",
                file=sys.stderr,
            )
            supervisor.stop()
            return 1
    # SIGTERM/SIGINT: drain, final checkpoint, clean exit.
    supervisor.stop()
    return 0


def _main_serve(argv: Sequence[str]) -> int:
    """``repro serve ...`` — run the live dispatch service until shutdown."""
    import asyncio
    import signal

    from repro.errors import CheckpointError
    from repro.service import DispatchService

    parser = build_serve_parser()
    args = parser.parse_args(argv)
    checkpoint_path = None if args.checkpoint is None else str(args.checkpoint)
    if args.checkpoint_interval is not None and checkpoint_path is None:
        parser.error("--checkpoint-interval requires --checkpoint")
    if args.supervise:
        if checkpoint_path is None:
            parser.error("--supervise requires --checkpoint")
        if args.restore is not None:
            parser.error(
                "--supervise restores from --checkpoint automatically; "
                "drop --restore (or copy the file over the --checkpoint path)"
            )
        return _main_serve_supervised(parser, args, checkpoint_path)
    try:
        if args.restore is not None:
            kwargs: dict[str, Any] = {}
            if checkpoint_path is not None:
                kwargs["checkpoint_path"] = checkpoint_path
            service = DispatchService.from_checkpoint(
                str(args.restore),
                max_queue_jobs=args.max_queue,
                overflow=args.overflow,
                checkpoint_interval=args.checkpoint_interval,
                **kwargs,
            )
        else:
            service = DispatchService(
                _serve_dispatcher_factory(args)(),
                max_queue_jobs=args.max_queue,
                overflow=args.overflow,
                checkpoint_path=checkpoint_path,
                checkpoint_interval=args.checkpoint_interval,
            )
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConfigurationError as exc:
        parser.error(str(exc))

    async def _serve() -> None:
        host, port = await service.serve(args.host, args.port)
        dispatcher = service.dispatcher
        print(
            f"repro service listening on {host}:{port} "
            f"(policy={dispatcher.policy}, n_servers={dispatcher.n_servers}, "
            f"jobs_dispatched={dispatcher.jobs_dispatched})",
            file=sys.stderr,
            flush=True,
        )
        loop = asyncio.get_running_loop()
        try:
            # SIGTERM = graceful drain: dispatch everything accepted, write
            # a final checkpoint, then stop cleanly.
            loop.add_signal_handler(
                signal.SIGTERM,
                lambda: loop.create_task(service.graceful_shutdown()),
            )
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # platform without loop signal handlers; Ctrl-C still works
        await service.wait_closed()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        return 130
    return 0


def _sweep_config(args: argparse.Namespace):
    """Materialise the SweepConfig a ``repro sweep`` invocation describes."""
    from dataclasses import replace

    from repro.experiments.config import (
        FIGURE3_DEFAULT,
        TABLE1_DEFAULT,
        SweepConfig,
    )

    if args.preset == "figure3":
        sweep = FIGURE3_DEFAULT
    else:
        cell = TABLE1_DEFAULT
        sweep = SweepConfig(
            protocols=(cell.protocol,),
            n_bins=cell.n_bins,
            ball_grid=(cell.n_balls,),
            trials=cell.trials,
            seed=cell.seed,
            params={cell.protocol: dict(cell.params)},
        )
    if args.protocols is not None:
        names = tuple(p.strip() for p in args.protocols.split(",") if p.strip())
        sweep = replace(sweep, protocols=names)
    if args.n_bins is not None:
        sweep = replace(sweep, n_bins=args.n_bins)
    if args.balls is not None:
        grid = tuple(int(m) for m in args.balls.split(",") if m.strip())
        sweep = replace(sweep, ball_grid=grid)
    if args.trials is not None:
        sweep = replace(sweep, trials=args.trials)
    if args.seed is not None:
        sweep = replace(sweep, seed=args.seed)
    if args.backend is not None:
        sweep = replace(sweep, backend=args.backend)
    if args.scale != 1.0:
        sweep = sweep.scaled(args.scale)
    return sweep


def _main_sweep(argv: Sequence[str]) -> int:
    """``repro sweep ...`` — cluster-sharded sweep with JSONL streaming."""
    from repro.cluster import run_cluster_sweep
    from repro.errors import ClusterError
    from repro.experiments.runner import summarize_shard_records

    parser = build_sweep_parser()
    args = parser.parse_args(argv)
    if args.resume and args.out is None:
        parser.error("--resume requires --out")
    try:
        sweep = _sweep_config(args)
        specs = sweep.specs()
        stats: dict[str, int] = {}
        records = run_cluster_sweep(
            specs,
            workers=args.workers,
            out=None if args.out is None else str(args.out),
            resume=args.resume,
            max_shard_retries=args.max_shard_retries,
            shard_deadline=args.shard_deadline,
            stats=stats,
        )
        rows = summarize_shard_records(specs, records)
    except ConfigurationError as exc:
        parser.error(str(exc))
    except ClusterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.json:
        print(json.dumps(rows, default=str, indent=2))
    else:
        print(format_markdown_table(rows))
    summary = (
        f"{len(records)} rows from {len(specs)} shards "
        f"({stats.get('shards_resumed', 0)} resumed, "
        f"{stats.get('retries', 0)} retried, "
        f"{stats.get('worker_deaths', 0)} worker deaths, "
        f"{stats.get('worker_hangs', 0)} hangs)"
    )
    if args.out is not None:
        summary += f" -> {args.out}"
    print(summary, file=sys.stderr)
    return 0


def _flatten_result(result: Any) -> list[dict[str, Any]]:
    """Best-effort conversion of an experiment result into table rows."""
    if isinstance(result, list) and result and isinstance(result[0], dict):
        return result
    if isinstance(result, dict) and isinstance(result.get("rows"), list):
        return result["rows"]
    return [{"result": json.dumps(result, default=str)}]


def _run_spec(path: str) -> Any:
    """Load a JSON spec from ``path`` (``-`` = stdin) and simulate it."""
    from repro.api import simulate, spec_from_json

    if path == "-":
        text = sys.stdin.read()
    else:
        text = Path(path).read_text()
    result = simulate(spec_from_json(text))
    # Summary view (arrays=False): tables and CSV want the flat scalars,
    # not a 10^4-entry loads column.
    if isinstance(result, list):
        return [r.as_record(arrays=False) for r in result]
    return [result.as_record(arrays=False)]


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "sweep":
        return _main_sweep(list(argv[1:]))
    if argv and argv[0] == "serve":
        return _main_serve(list(argv[1:]))
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_backends:
        print(format_markdown_table(describe_backends()))
        return 0

    if args.backend is not None:
        try:
            backend_scope = use_backend(get_backend(args.backend))
        except ConfigurationError as exc:
            parser.error(str(exc))
    else:
        backend_scope = nullcontext()

    if args.spec is not None:
        try:
            with backend_scope:
                rows = _run_spec(args.spec)
        except ConfigurationError as exc:
            parser.error(str(exc))
        if args.json:
            print(json.dumps(rows, default=str, indent=2))
        elif args.output is not None:
            write_csv(args.output, rows)
            print(f"wrote {len(rows)} rows to {args.output}")
        else:
            print(format_markdown_table(rows))
        return 0

    if args.list or args.experiment is None:
        rows = [
            {
                "id": spec.experiment_id,
                "paper": spec.paper_reference,
                "description": spec.description,
                "bench": spec.bench_target,
            }
            for spec in EXPERIMENTS.values()
        ]
        print(format_markdown_table(rows, ["id", "paper", "description", "bench"]))
        return 0

    kwargs: dict[str, Any] = {}
    if args.trials is not None:
        kwargs["trials"] = args.trials
    if args.workers is not None:
        # Other runners forward stray kwargs to protocol constructors.
        if args.experiment not in _FAN_OUT_EXPERIMENTS:
            parser.error(
                "--workers applies only to: "
                + ", ".join(sorted(_FAN_OUT_EXPERIMENTS))
            )
        kwargs["workers"] = args.workers
    try:
        with backend_scope:
            result = run_experiment(args.experiment, scale=args.scale, **kwargs)
    except (ConfigurationError, ExperimentError) as exc:
        parser.error(str(exc))

    if args.json:
        print(json.dumps(result, default=str, indent=2))
        return 0

    rows = _flatten_result(result)
    if args.output is not None:
        write_csv(args.output, rows)
        print(f"wrote {len(rows)} rows to {args.output}")
    else:
        print(format_markdown_table(rows))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
