"""Tests for the protocol interface and registry (repro.core.protocol)."""

from __future__ import annotations

import pytest

import repro  # noqa: F401  (ensures baselines are registered)
from repro.core.protocol import (
    AllocationProtocol,
    available_protocols,
    get_protocol,
    make_protocol,
    register_protocol,
)
from repro.errors import ConfigurationError


class TestRegistry:
    def test_paper_protocols_registered(self):
        names = set(available_protocols())
        assert {"adaptive", "threshold"} <= names

    def test_table1_baselines_registered(self):
        names = set(available_protocols())
        assert {"single-choice", "greedy", "left", "memory", "rebalancing"} <= names

    def test_parallel_protocols_registered(self):
        import repro.parallel  # noqa: F401

        names = set(available_protocols())
        assert {"parallel-collision", "parallel-greedy"} <= names

    def test_get_unknown_raises(self):
        with pytest.raises(ConfigurationError):
            get_protocol("does-not-exist")

    def test_make_protocol_passes_params(self):
        protocol = make_protocol("greedy", d=3)
        assert protocol.params()["d"] == 3

    def test_make_protocol_rejects_bad_params(self):
        # Unknown constructor keywords surface as ConfigurationError (naming
        # the protocol), not the bare TypeError of a direct constructor call.
        with pytest.raises(ConfigurationError, match="adaptive"):
            make_protocol("adaptive", not_a_real_option=1)

    def test_register_requires_name(self):
        class Nameless(AllocationProtocol):
            name = "abstract"

            def allocate(self, n_balls, n_bins, seed=None, *, probe_stream=None, record_trace=False):
                raise NotImplementedError

        with pytest.raises(ConfigurationError):
            register_protocol(Nameless)

    def test_register_duplicate_name_raises(self):
        class Duplicate(AllocationProtocol):
            name = "adaptive"

            def allocate(self, n_balls, n_bins, seed=None, *, probe_stream=None, record_trace=False):
                raise NotImplementedError

        with pytest.raises(ConfigurationError):
            register_protocol(Duplicate)

    def test_reregistering_same_class_is_idempotent(self):
        cls = get_protocol("adaptive")
        assert register_protocol(cls) is cls


class TestProtocolInterface:
    def test_validate_size(self):
        with pytest.raises(ConfigurationError):
            AllocationProtocol.validate_size(10, 0)
        with pytest.raises(ConfigurationError):
            AllocationProtocol.validate_size(-1, 10)
        AllocationProtocol.validate_size(0, 1)  # should not raise

    def test_describe_includes_name_and_params(self):
        protocol = make_protocol("greedy", d=4)
        description = protocol.describe()
        assert description["name"] == "greedy"
        assert description["d"] == 4

    def test_base_init_rejects_unknown_params(self):
        with pytest.raises(ConfigurationError, match="single-choice"):
            make_protocol("single-choice", bogus=1)

    @pytest.mark.parametrize("name", available_protocols())
    def test_streaming_protocols_have_one_code_path(self, name):
        """A streaming protocol's one-shot run is its session, never a copy."""
        cls = get_protocol(name)
        if cls.streaming:
            assert cls.allocate is AllocationProtocol.allocate, name
        else:
            assert cls.allocate is not AllocationProtocol.allocate, name
