"""Registry round-trip: every registered scheme survives
``config() -> scheduler_from_config -> config()`` byte-identically.

The policy kernel assembles each scheme's config mapping from its
policies' ``config_fragment()`` dicts in axis order (queue, reservation,
backfill, preemption), and the grid executor, result cache and worker
dispatch all key on the JSON rendering of that mapping.  A scheme whose
rebuilt config differs -- even only in key order -- would silently miss
its own cache entries and break trace provenance, so the contract here
is *byte* equality of the sorted-less JSON dump, not just dict equality.

Layers:

* every scheme constructor of the package -- each public function
  returning a :class:`PolicyKernel`, and each scheduler class outside
  the kernel -- is in the scheme table under the id it builds, takes
  exactly its config keys, describes itself, and its default instance's
  config is JSON before any run and round-trips;
* every scheme id builds from a bare ``{"scheme": id}`` config
  (constructor defaults) to pinned bytes, and round-trips;
* integer arguments (``2`` for ``2.0``, ``1`` for ``True``) are
  canonicalised where the policy records them, so they round-trip too;
* malformed configs raise :class:`ValueError` naming scheme and key;
* a Hypothesis sweep draws constructor parameters per scheme family and
  round-trips the parameterised configs, with an exhaustiveness guard
  that fails when a new scheme joins the table without declaring
  strategies.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
from typing import Callable

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.cluster.machine import Cluster
from repro.core.selective_suspension import SelectiveSuspensionScheduler
from repro.core.tss import CategoryLimits, TunableSelectiveSuspensionScheduler
from repro.schedulers.base import Scheduler
from repro.schedulers.policy import PolicyKernel
from repro.schedulers.registry import SCHEMES, known_schemes, scheduler_from_config
from repro.sim.driver import SchedulingSimulation
from repro.workload.job import fresh_copies
from repro.workload.synthetic import generate_trace


def _json(config: dict[str, object]) -> str:
    # insertion order preserved: this is the byte stream cache keys see
    return json.dumps(config)


def _scheme_constructors() -> list[Callable[..., Scheduler]]:
    """Every scheme constructor defined anywhere in the package: the
    public functions annotated to return a :class:`PolicyKernel`, and
    the concrete scheduler classes other than the kernel itself."""
    found: set[Callable[..., Scheduler]] = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and not name.startswith("_")
                and obj.__module__ == module.__name__
                and obj.__annotations__.get("return") in ("PolicyKernel", PolicyKernel)
            ):
                found.add(obj)
    todo = [Scheduler]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("repro.") and not inspect.isabstract(sub):
                found.add(sub)
    found.discard(PolicyKernel)  # the generic composition, not a scheme
    return sorted(found, key=lambda build: build.__name__)


def check_scheme_contract(build: Callable[..., Scheduler]) -> None:
    """Fail unless *build* is the table entry for the id it builds,
    ``describe()`` and ``config()`` take no arguments, the config is
    JSON before any run (no lambda, set or driver state), its keys are
    exactly the constructor's, and it rebuilds byte for byte."""
    scheduler = build()
    assert SCHEMES.get(scheduler.scheme_id) is build, (
        f"{build.__name__} (scheme id {scheduler.scheme_id!r}) is missing from "
        "SCHEMES; parallel workers and the cache cannot rebuild it"
    )
    assert isinstance(scheduler.describe(), str)
    config = scheduler.config()
    encoded = _json(dict(config))
    assert set(inspect.signature(build).parameters) == set(config) - {"scheme"}, (
        f"{build.__name__}: keyword arguments and config keys differ; a knob "
        "missing from config() would go stale in the result cache"
    )
    rebuilt = scheduler_from_config(config)
    assert type(rebuilt) is type(scheduler)
    assert _json(dict(rebuilt.config())) == encoded


@pytest.mark.parametrize("build", _scheme_constructors(), ids=lambda build: build.__name__)
def test_every_scheme_class_is_in_the_table(build: Callable[..., Scheduler]) -> None:
    """Each scheme constructor, function or class, keeps the contract
    the registry, the result cache and the pool workers rely on."""
    check_scheme_contract(build)


#: ``json.dumps`` of each scheme's default ``config()``, pinned before the
#: scheme table replaced the hand-written registry builders.  These bytes
#: feed every cache fingerprint: while they hold, existing result caches
#: stay warm.
DEFAULT_CONFIG_JSON = {
    "conservative": '{"scheme": "conservative"}',
    "easy": '{"scheme": "easy"}',
    "fcfs": '{"scheme": "fcfs"}',
    "gang": '{"scheme": "gang", "quantum": 600.0}',
    "is": '{"scheme": "is", "timeslice": 600.0, "sweep_interval": 60.0}',
    "relaxed": '{"scheme": "relaxed", "relaxation": 0.5}',
    "speculative": (
        '{"scheme": "speculative", "speculation_window": 900.0, "max_kills": 2}'
    ),
    "ss": (
        '{"scheme": "ss", "suspension_factor": 2.0, "preemption_interval": 60.0, '
        '"width_rule": true}'
    ),
    "ss-easy": (
        '{"scheme": "ss-easy", "suspension_factor": 2.0, '
        '"preemption_interval": 60.0, "width_rule": true}'
    ),
    "tss": (
        '{"scheme": "tss", "suspension_factor": 2.0, "preemption_interval": 60.0, '
        '"width_rule": true, "limits": {"mode": "online", "margin": 1.5}}'
    ),
    "tss-conservative": (
        '{"scheme": "tss-conservative", "suspension_factor": 2.0, '
        '"preemption_interval": 60.0, "width_rule": true, '
        '"limits": {"mode": "online", "margin": 1.5}}'
    ),
}


@pytest.mark.parametrize("scheme", known_schemes())
def test_default_config_round_trips(scheme: str) -> None:
    first = scheduler_from_config({"scheme": scheme})
    config = dict(first.config())
    assert _json(config) == DEFAULT_CONFIG_JSON[scheme], (
        f"{scheme}: default config bytes changed; cached results would miss"
    )
    rebuilt = scheduler_from_config(config)
    assert _json(dict(rebuilt.config())) == _json(config), (
        f"{scheme}: rebuilt config differs from the original"
    )


@pytest.mark.parametrize(
    ("build", "canonical"),
    [
        (
            lambda: SelectiveSuspensionScheduler(suspension_factor=2),
            lambda: SelectiveSuspensionScheduler(suspension_factor=2.0),
        ),
        (
            lambda: SelectiveSuspensionScheduler(width_rule=1),
            lambda: SelectiveSuspensionScheduler(width_rule=True),
        ),
        (
            lambda: TunableSelectiveSuspensionScheduler(
                limits=CategoryLimits(online=True, margin=2)
            ),
            lambda: TunableSelectiveSuspensionScheduler(
                limits=CategoryLimits(online=True, margin=2.0)
            ),
        ),
        (
            lambda: TunableSelectiveSuspensionScheduler(
                limits=CategoryLimits(table={("Short", "Narrow"): 3}, margin=2)
            ),
            lambda: TunableSelectiveSuspensionScheduler(
                limits=CategoryLimits(table={("Short", "Narrow"): 3.0}, margin=2.0)
            ),
        ),
    ],
    ids=["sf-int", "width-rule-int", "online-margin-int", "calibrated-ints"],
)
def test_int_arguments_round_trip_to_canonical_bytes(build, canonical) -> None:
    config = dict(build().config())
    assert _json(config) == _json(dict(canonical().config()))
    rebuilt = scheduler_from_config(config)
    assert _json(dict(rebuilt.config())) == _json(config)


@pytest.mark.parametrize(
    ("config", "key"),
    [
        ({"scheme": "ss", "suspension_factr": 5.0}, "suspension_factr"),
        ({"scheme": "easy", "relaxation": 0.9}, "relaxation"),
        ({"scheme": "tss", "limits": "online"}, "limits"),
        ({"scheme": "tss-conservative", "limits": None}, "limits"),
        ({"scheme": "tss", "limits": {"mode": "online", "table": {}}}, "limits"),
        ({"scheme": "is", "sweep_interval": 0}, "sweep_interval"),
        ({"scheme": "is", "sweep_interval": -60.0}, "sweep_interval"),
    ],
    ids=[
        "misspelt-key",
        "foreign-key",
        "limits-string",
        "limits-null",
        "limits-bad-key",
        "is-zero-sweep-interval",
        "is-negative-sweep-interval",
    ],
)
def test_malformed_config_fails_loudly(config: dict[str, object], key: str) -> None:
    with pytest.raises(ValueError) as info:
        scheduler_from_config(config)
    assert repr(config["scheme"]) in str(info.value)
    assert repr(key) in str(info.value)


#: (scheme, key) of every timer knob: a tick interval or the IS timeslice
_TIMER_KNOBS = [
    ("ss", "preemption_interval"),
    ("tss", "preemption_interval"),
    ("ss-easy", "preemption_interval"),
    ("tss-conservative", "preemption_interval"),
    ("is", "timeslice"),
    ("is", "sweep_interval"),
]


@pytest.mark.parametrize(("scheme", "key"), _TIMER_KNOBS)
@pytest.mark.parametrize(
    "value",
    [float("nan"), float("inf"), float("-inf"), 0.0, -60.0],
    ids=["nan", "inf", "-inf", "zero", "negative"],
)
def test_timer_knobs_must_be_positive_and_finite(
    scheme: str, key: str, value: float
) -> None:
    """A NaN timeslice turns IS protection off, an infinite interval
    places no tick, and a NaN interval fails mid-run on its first tick:
    each is refused when the scheme is built."""
    with pytest.raises(ValueError) as info:
        scheduler_from_config({"scheme": scheme, key: value})
    assert repr(scheme) in str(info.value)
    assert repr(key) in str(info.value)


#: (scheme, key, the edge values it accepts) for every knob that is not
#: a timer: SF = inf never suspends, relaxation = inf never bounds the
#: head's delay, and zero relaxation or kills are ordinary settings
_BOUNDED_KNOBS = [
    ("ss", "suspension_factor", {"inf"}),
    ("tss", "suspension_factor", {"inf"}),
    ("ss-easy", "suspension_factor", {"inf"}),
    ("tss-conservative", "suspension_factor", {"inf"}),
    ("relaxed", "relaxation", {"inf", "zero"}),
    ("speculative", "speculation_window", set()),
    ("speculative", "max_kills", {"zero"}),
    ("gang", "quantum", set()),
]
_EDGE_VALUES = {
    "nan": float("nan"),
    "inf": float("inf"),
    "-inf": float("-inf"),
    "zero": 0.0,
    "negative": -2.0,
}


@pytest.mark.parametrize(("scheme", "key", "legal"), _BOUNDED_KNOBS)
@pytest.mark.parametrize("edge", sorted(_EDGE_VALUES))
def test_non_finite_knobs_are_refused_unless_documented(
    scheme: str, key: str, legal: set[str], edge: str
) -> None:
    """NaN used to build and land in ``config()`` (and so in cache
    fingerprints); each edge value is refused naming scheme and key,
    except the documented legal ones, which build and round-trip."""
    config = {"scheme": scheme, key: _EDGE_VALUES[edge]}
    if edge in legal:
        built = scheduler_from_config(config).config()
        assert built[key] == config[key]
        assert scheduler_from_config(built).config() == built
        return
    with pytest.raises(ValueError) as info:
        scheduler_from_config(config)
    assert repr(scheme) in str(info.value)
    assert repr(key) in str(info.value)


@pytest.mark.parametrize(
    "limits",
    [
        {"mode": "online", "margin": float("nan")},
        {"mode": "calibrated", "table": {"VS|N": float("nan")}},
        {"mode": "calibrated", "table": {"VS|N": 0.0}},
        *({"mode": "online", "margin": m} for m in (0.0, -1.0, float("inf"), float("-inf"))),
    ],
    ids=["margin-nan", "table-nan", "table-zero", "margin-0", "margin--1", "margin-inf",
         "margin--inf"],
)
def test_tss_limits_refuse_nan_and_bad_margins(limits: dict[str, object]) -> None:
    """A NaN margin or table value used to build and reach ``config()``;
    a table value of inf stays legal (never protected)."""
    with pytest.raises(ValueError, match="'limits'"):
        scheduler_from_config({"scheme": "tss", "limits": limits})
    with pytest.raises(ValueError):
        CategoryLimits.from_config(limits)
    never = {"mode": "calibrated", "margin": 1.5, "table": {"VS|N": float("inf")}}
    assert scheduler_from_config({"scheme": "tss", "limits": never}).config()["limits"] == never


def test_infinite_sf_and_relaxation_run_as_documented() -> None:
    jobs = generate_trace("SDSC", n_jobs=120, seed=3)
    configs = [
        {"scheme": "ss", "suspension_factor": float("inf")},
        {"scheme": "relaxed", "relaxation": float("inf")},
    ]
    for config in configs:
        sim = SchedulingSimulation(Cluster(128), scheduler_from_config(config))
        result = sim.run(fresh_copies(jobs))
        assert len(result.jobs) == len(jobs)
        assert result.total_suspensions == 0


_SWEEP_PARAMS = {
    "suspension_factor": st.floats(
        min_value=1.0, max_value=10.0, allow_nan=False, allow_infinity=False
    ),
    "preemption_interval": st.floats(
        min_value=1.0, max_value=3600.0, allow_nan=False, allow_infinity=False
    ),
    "width_rule": st.booleans(),
}

#: scheme id -> config-key strategies; must cover known_schemes() exactly
SCHEME_PARAMS: dict[str, dict[str, st.SearchStrategy]] = {
    "fcfs": {},
    "easy": {},
    "conservative": {},
    "relaxed": {
        "relaxation": st.floats(
            min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
        )
    },
    "speculative": {
        "speculation_window": st.floats(
            min_value=1.0, max_value=7200.0, allow_nan=False, allow_infinity=False
        ),
        "max_kills": st.integers(min_value=0, max_value=10),
    },
    "gang": {
        "quantum": st.floats(
            min_value=1.0, max_value=7200.0, allow_nan=False, allow_infinity=False
        )
    },
    "is": {
        "timeslice": st.floats(
            min_value=1.0, max_value=7200.0, allow_nan=False, allow_infinity=False
        ),
        "sweep_interval": st.floats(
            min_value=1.0, max_value=3600.0, allow_nan=False, allow_infinity=False
        ),
    },
    "ss": dict(_SWEEP_PARAMS),
    "tss": dict(_SWEEP_PARAMS),
    "ss-easy": dict(_SWEEP_PARAMS),
    "tss-conservative": dict(_SWEEP_PARAMS),
}


def test_strategy_table_covers_every_registered_scheme() -> None:
    assert set(SCHEME_PARAMS) == set(known_schemes()), (
        "a scheme joined the table without round-trip strategies (or one "
        "was removed without pruning SCHEME_PARAMS)"
    )


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_parameterised_config_round_trips(data: st.DataObject) -> None:
    scheme = data.draw(st.sampled_from(sorted(SCHEME_PARAMS)), label="scheme")
    config: dict[str, object] = {"scheme": scheme}
    for key, strategy in SCHEME_PARAMS[scheme].items():
        config[key] = data.draw(strategy, label=key)
    first = scheduler_from_config(config)
    emitted = dict(first.config())
    for key, value in config.items():
        assert emitted[key] == value, f"{scheme}: constructor dropped {key}"
    rebuilt = scheduler_from_config(emitted)
    assert _json(dict(rebuilt.config())) == _json(emitted)
