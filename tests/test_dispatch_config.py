"""One config rule for the dispatcher, and the untrusted inputs it guards.

The :class:`~repro.scheduler.Dispatcher` constructor,
:class:`~repro.api.DispatchSpec` and :meth:`Dispatcher.from_state
<repro.scheduler.Dispatcher.from_state>` used to carry three drifted copies
of the configuration check: the constructor truncated ``d=2.5`` to 2,
accepted ``n_servers=True`` (one server) and a ``block_size=2.5`` whose
checkpoint ``from_state`` refused, and raised ``TypeError`` for
``w_max="3"``; the spec's allocation-free mirror built a ``d``-entry group
map, so a 104-byte spec with ``d = 10**15`` raised ``MemoryError``.  Each
entry of the table below must be refused by all three entry points with a
:class:`~repro.errors.ConfigurationError` naming the field.

A checkpoint is an arbitrary initial state, so ``from_state`` is also
fuzzed: a genuine state with keys deleted or replaced by JSON values gives
a dispatcher or a ``ConfigurationError``.  Sizes are drawn small or at
least ``10**15``, so a stray allocation proportional to a value fails at
once with ``MemoryError`` instead of paging the host.
"""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import DispatchSpec
from repro.core.backend import get_backend
from repro.errors import ConfigurationError
from repro.scheduler import Dispatcher

N_SERVERS = 12
#: The policy parameters, which a spec keeps in ``params``.
POLICY_PARAMS = ("d", "k", "w_max")

#: (config overrides, the field the error must name).
BAD_CONFIGS = [
    ({"n_servers": 10.7}, "n_servers"),
    ({"n_servers": True}, "n_servers"),
    ({"n_servers": 0}, "n_servers"),
    ({"n_servers": "12"}, "n_servers"),
    ({"policy": "nope"}, "policy"),
    ({"policy": None}, "policy"),
    ({"d": 2.5}, "d"),
    ({"d": 0}, "d"),
    ({"d": True}, "d"),
    ({"k": 1.9}, "k"),
    ({"k": -1}, "k"),
    ({"w_max": "3"}, "w_max"),
    ({"w_max": 0.0}, "w_max"),
    ({"w_max": float("inf")}, "w_max"),
    ({"w_max": float("nan")}, "w_max"),
    ({"w_max": True}, "w_max"),
    ({"block_size": 2.5}, "block_size"),
    ({"block_size": 0}, "block_size"),
    ({"small_burst": 3.5}, "small_burst"),
    ({"small_burst": -1}, "small_burst"),
    ({"policy": "left", "d": 5}, "d"),
    ({"policy": "weighted-left", "d": 13}, "d"),
    ({"backend": "bogus"}, "backend"),
    ({"backend": 5}, "backend"),
]
BAD_IDS = [
    "-".join(f"{key}={value!r}" for key, value in overrides.items())
    for overrides, _ in BAD_CONFIGS
]


def build_with(overrides: dict) -> Dispatcher:
    config = {"n_servers": N_SERVERS, "policy": "adaptive", **overrides}
    return Dispatcher(config.pop("n_servers"), **config)


def spec_with(overrides: dict) -> DispatchSpec:
    fields = {"n_servers": N_SERVERS, "policy": "adaptive"}
    params = {}
    for key, value in overrides.items():
        (params if key in POLICY_PARAMS else fields)[key] = value
    return DispatchSpec(params=params, **fields)


def genuine_state(policy: str = "adaptive", **kwargs) -> dict:
    dispatcher = Dispatcher(N_SERVERS, policy=policy, seed=3, **kwargs)
    sizes = np.random.default_rng(1).uniform(0.1, 1.0, 30)
    dispatcher.dispatch_batch(sizes, total_jobs=100)
    return json.loads(json.dumps(dispatcher.state_dict()))


def restore_with(overrides: dict) -> Dispatcher:
    state = genuine_state()
    state["config"].update(overrides)
    return Dispatcher.from_state(state)


class TestOneConfigRule:
    @pytest.mark.parametrize("overrides, field_name", BAD_CONFIGS, ids=BAD_IDS)
    @pytest.mark.parametrize(
        "entry, named",
        [
            (build_with, "{}"),
            (spec_with, "{}"),
            (restore_with, "dispatcher-state config.{}"),
        ],
        ids=["constructor", "spec", "from-state"],
    )
    def test_every_entry_point_refuses_and_names_the_field(
        self, entry, named, overrides, field_name
    ):
        with pytest.raises(ConfigurationError) as excinfo:
            entry(overrides)
        assert named.format(field_name) in str(excinfo.value)

    def test_constructor_takes_numpy_integers_and_backend_instances(self):
        dispatcher = Dispatcher(
            np.int64(N_SERVERS),
            policy="memory",
            d=np.int32(3),
            k=np.int64(2),
            w_max=np.float32(2.0),
            block_size=np.int64(8),
            small_burst=np.int16(4),
            backend=get_backend("scalar"),
            seed=5,
        )
        config = dispatcher.state_dict()["config"]
        assert config == {
            "n_servers": N_SERVERS,
            "policy": "memory",
            "d": 3,
            "k": 2,
            "w_max": 2.0,
            "block_size": 8,
            "small_burst": 4,
            "backend": "scalar",
        }
        assert all(type(config[key]) is int for key in ("n_servers", "d", "k"))
        restored = Dispatcher.from_state(json.loads(json.dumps(dispatcher.state_dict())))
        assert restored.state_dict()["config"] == config

    def test_spec_stores_json_integers(self):
        spec = DispatchSpec(
            "greedy", np.int64(8), params={"d": np.int64(3)}, block_size=np.int32(4)
        )
        assert spec == DispatchSpec("greedy", 8, params={"d": 3}, block_size=4)
        assert DispatchSpec.from_json(spec.to_json()) == spec

    def test_spec_backend_is_a_name(self):
        # The constructor takes a backend instance; a spec must serialise.
        with pytest.raises(ConfigurationError, match="backend"):
            DispatchSpec("adaptive", N_SERVERS, backend=get_backend("scalar"))

    def test_spec_builds_the_dispatcher_it_describes(self):
        spec = DispatchSpec(
            "memory", N_SERVERS, seed=9, params={"d": 2, "k": 3}, small_burst=0
        )
        built = spec.build_dispatcher()
        by_hand = Dispatcher(N_SERVERS, policy="memory", seed=9, d=2, k=3, small_burst=0)
        sizes = np.ones(50)
        assert np.array_equal(built.dispatch_batch(sizes), by_hand.dispatch_batch(sizes))
        assert built.state_dict() == by_hand.state_dict()

    @pytest.mark.parametrize(
        "n_servers, accepted",
        [(2 * 10**15, True), (2 * 10**15 + 1, False)],
        ids=["equal-groups", "unequal-groups"],
    )
    def test_huge_left_spec_is_checked_without_allocating(self, n_servers, accepted):
        tracemalloc.start()
        try:
            if accepted:
                DispatchSpec("left", n_servers, params={"d": 10**15})
            else:
                with pytest.raises(ConfigurationError, match="policy/params: d"):
                    DispatchSpec("left", n_servers, params={"d": 10**15})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_huge_left_state_is_refused_before_allocating(self):
        state = genuine_state("left")
        state["config"].update(n_servers=2 * 10**15, d=10**15)
        state["probe_stream"]["n_bins"] = 2 * 10**15
        with pytest.raises(ConfigurationError, match="do not match n_servers"):
            Dispatcher.from_state(state)


# --------------------------------------------------------------------- #
# from_state fuzz
# --------------------------------------------------------------------- #
#: Every policy with the extras its genuine state is built with.
POLICIES = {
    "adaptive": {},
    "threshold": {},
    "greedy": {"d": 3},
    "left": {"d": 3},
    "memory": {"k": 2},
    "single": {},
    "weighted": {"w_max": 1.0},
    "weighted-left": {"d": 2},
}
GENUINE = {policy: json.dumps(genuine_state(policy, **extra)) for policy, extra in POLICIES.items()}
SIZES = st.integers(-3, 64) | st.integers(10**15, 10**19) | st.integers(-(10**19), -(10**15))
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | SIZES
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["adaptive", "left", "memory", "numpy", "random", "fixed"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


def key_paths(node: dict, prefix: tuple = ()) -> list[tuple]:
    """Every key of a state document, nested ones included, as a path."""
    paths = []
    for key, value in node.items():
        paths.append(prefix + (key,))
        if isinstance(value, dict):
            paths.extend(key_paths(value, prefix + (key,)))
    return paths


class TestFromStateFuzz:
    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(data=st.data())
    def test_edited_genuine_state_restores_or_is_refused(self, data):
        state = json.loads(GENUINE[data.draw(st.sampled_from(sorted(GENUINE)), "policy")])
        for _ in range(data.draw(st.integers(1, 3), "edits")):
            path = data.draw(st.sampled_from(key_paths(state)), "path")
            parent = state
            for key in path[:-1]:
                parent = parent.get(key) if isinstance(parent, dict) else None
            if not isinstance(parent, dict):
                continue  # an earlier edit replaced this branch
            if data.draw(st.booleans(), "delete"):
                parent.pop(path[-1], None)
            else:
                parent[path[-1]] = data.draw(JSON_VALUES, "value")
        try:
            restored = Dispatcher.from_state(state)
        except ConfigurationError:
            return
        assert restored.n_servers == N_SERVERS
