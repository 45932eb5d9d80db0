"""Tests for the experiment registry and the repro-experiment CLI."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.cli import build_parser, main
from repro.experiments.registry import EXPERIMENTS, get_experiment, run_experiment


class TestRegistry:
    def test_all_paper_artefacts_registered(self):
        assert {
            "table1",
            "figure3a",
            "figure3b",
            "theorem31",
            "theorem41",
            "smoothness",
            "weighted",
        } == set(EXPERIMENTS)

    def test_run_weighted_small(self):
        rows = run_experiment("weighted", scale=0.01, trials=1)
        protocols = {row["protocol"] for row in rows}
        assert protocols == {
            "weighted-adaptive",
            "weighted-threshold",
            "weighted-greedy",
            "weighted-left",
            "weighted-memory",
        }
        assert {row["weight_dist"] for row in rows} == {
            "pareto",
            "exponential",
            "bimodal",
        }
        assert all(row["mean_weighted_max_load"] > 0 for row in rows)

    def test_run_weighted_rejects_zero_trials(self):
        with pytest.raises(ConfigurationError, match="trials"):
            run_experiment("weighted", scale=0.01, trials=0)

    def test_every_spec_names_a_bench_target(self):
        for spec in EXPERIMENTS.values():
            assert spec.bench_target.startswith("benchmarks/")

    def test_get_unknown_raises(self):
        with pytest.raises(ExperimentError):
            get_experiment("nope")

    def test_run_experiment_scale_validation(self):
        with pytest.raises(ExperimentError):
            run_experiment("table1", scale=0.0)
        with pytest.raises(ExperimentError):
            run_experiment("table1", scale=2.0)

    def test_run_table1_small(self):
        rows = run_experiment("table1", scale=0.02, trials=2)
        assert any(row["protocol"] == "adaptive" for row in rows)

    def test_run_figure3a_small(self):
        result = run_experiment("figure3a", scale=0.01)
        assert set(result["series"]) == {"adaptive", "threshold"}
        assert len(result["grid"]) == 5

    def test_run_smoothness_small(self):
        rows = run_experiment("smoothness", scale=0.3, trials=1)
        assert all("adaptive_gap_mean" in row for row in rows)


class TestCli:
    def test_parser_accepts_known_experiment(self):
        args = build_parser().parse_args(["table1", "--scale", "0.05"])
        assert args.experiment == "table1"
        assert args.scale == 0.05

    def test_list_option(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "figure3a" in out

    def test_no_arguments_lists(self, capsys):
        assert main([]) == 0
        assert "figure3b" in capsys.readouterr().out

    def test_run_table1_markdown(self, capsys):
        assert main(["table1", "--scale", "0.02", "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert "| protocol |" in out
        assert "adaptive" in out

    def test_run_with_csv_output(self, tmp_path, capsys):
        target = tmp_path / "out.csv"
        code = main(["theorem31", "--scale", "0.1", "--trials", "1", "--output", str(target)])
        assert code == 0
        assert target.exists()
        assert "probes_per_ball_mean" in target.read_text()

    def test_json_output(self, capsys):
        assert main(["theorem31", "--scale", "0.1", "--trials", "1", "--json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert isinstance(parsed, list)

    @pytest.mark.parametrize(
        "argv,stdin,message",
        [
            (["table1", "--trials", "0"], None, "trials must be at least 1"),
            (["table1", "--workers", "0"], None, "workers must be at least 1"),
            (["figure3a", "--scale", "0"], None, "scale must be in (0, 1]"),
            (["figure3a", "--scale", "2"], None, "scale must be in (0, 1]"),
            (
                ["--spec", "-"],
                '{"protocol": "adaptive", "n_balls": -1, "n_bins": 5}',
                "n_balls",
            ),
        ],
        ids=["trials-0", "workers-0", "scale-0", "scale-2", "spec-negative-balls"],
    )
    def test_bad_input_is_a_usage_error(self, argv, stdin, message):
        """Bad input exits with code 2 and a message, never a traceback."""
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments.cli", *argv],
            input=stdin,
            capture_output=True,
            text=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert proc.returncode == 2, proc.stderr
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr
