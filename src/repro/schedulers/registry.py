"""The scheme table: every scheme id and the constructor that builds it.

A scheduler object holds run state and does not pickle, so it travels
to no worker process and lives in no cache key.  Its
:meth:`Scheduler.config` mapping can: it is JSON-stable, fully
determines behaviour, and :func:`scheduler_from_config` turns it back
into a fresh instance.

Each constructor in :data:`SCHEMES` takes exactly its scheme's
``config()`` keys as keyword arguments, so one generic rebuild serves
every scheme.  The round-trip contract, checked by
``tests/test_policy_kernel.py``::

    scheduler_from_config(s.config()).config() == s.config()

Adding a scheme means adding its constructor to :data:`SCHEMES`: a
function returning a :class:`~repro.schedulers.policy.PolicyKernel`
whose keyword arguments are exactly the config keys its policies emit
(see :func:`~repro.core.selective_suspension.SelectiveSuspensionScheduler`),
or, for a scheduler outside the kernel
(:class:`~repro.schedulers.gang.GangScheduler`), a class that sets
``scheme_id`` and emits its constructor's keyword arguments from
``config()``.
"""

from __future__ import annotations

import inspect
from typing import Callable, Mapping

from repro.core.immediate_service import ImmediateServiceScheduler
from repro.core.selective_suspension import SelectiveSuspensionScheduler
from repro.core.tss import CategoryLimits, TunableSelectiveSuspensionScheduler
from repro.schedulers.base import Scheduler
from repro.schedulers.conservative import ConservativeBackfillScheduler
from repro.schedulers.easy import EasyBackfillScheduler
from repro.schedulers.fcfs import FCFSScheduler
from repro.schedulers.gang import GangScheduler
from repro.schedulers.hybrids import (
    SuspensionWithHeadGuarantee,
    TunableSuspensionWithGuarantees,
)
from repro.schedulers.relaxed import RelaxedBackfillScheduler
from repro.schedulers.speculative import SpeculativeBackfillScheduler

#: scheme id -> constructor; its keyword arguments are the config() keys
SCHEMES: dict[str, Callable[..., Scheduler]] = {
    "fcfs": FCFSScheduler,
    "easy": EasyBackfillScheduler,
    "conservative": ConservativeBackfillScheduler,
    "relaxed": RelaxedBackfillScheduler,
    "speculative": SpeculativeBackfillScheduler,
    "gang": GangScheduler,
    "is": ImmediateServiceScheduler,
    "ss": SelectiveSuspensionScheduler,
    "tss": TunableSelectiveSuspensionScheduler,
    "ss-easy": SuspensionWithHeadGuarantee,
    "tss-conservative": TunableSuspensionWithGuarantees,
}


def known_schemes() -> tuple[str, ...]:
    """The scheme ids, sorted."""
    return tuple(sorted(SCHEMES))


def scheduler_from_config(config: Mapping[str, object]) -> Scheduler:
    """Build a fresh, unbound scheduler from a :meth:`Scheduler.config` dict.

    Every key but ``"scheme"`` becomes a keyword argument of the
    scheme's constructor; ``limits`` is decoded through
    :meth:`CategoryLimits.from_config`.

    Raises
    ------
    KeyError
        If the config carries no ``"scheme"`` key.
    ValueError
        If the scheme id is unknown, a key is not one of the scheme's
        config keys, ``limits`` is malformed, or the constructor rejects
        a value.
    """
    scheme = config["scheme"]
    build = SCHEMES.get(str(scheme))
    if build is None:
        raise ValueError(
            f"unknown scheme {scheme!r}; known: {', '.join(known_schemes())}"
        )
    accepted = inspect.signature(build).parameters
    unknown = sorted(set(config) - set(accepted) - {"scheme"})
    if unknown:
        raise ValueError(
            f"scheme {scheme!r}: unknown config key {unknown[0]!r}; "
            f"accepted: {', '.join(accepted) or 'none'}"
        )
    kwargs = {key: config[key] for key in accepted if key in config}
    if "limits" in kwargs:
        try:
            kwargs["limits"] = CategoryLimits.from_config(kwargs["limits"])
        except ValueError as err:
            raise ValueError(f"scheme {scheme!r}: config key 'limits': {err}") from None
    try:
        return build(**kwargs)
    except ValueError as err:
        raise ValueError(f"scheme {scheme!r}: {err}") from None
