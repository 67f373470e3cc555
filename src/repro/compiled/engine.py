"""CompiledSimulator — the array engine with its hot methods in C.

:class:`CompiledSimulator` subclasses
:class:`repro.sim.engine.ArraySimulator` and, when the ``cext`` tier
extension (:mod:`repro.compiled._core`) is importable, overrides the six
hot methods — ``run``, ``schedule``, ``schedule_at``, ``schedule_fire``,
``schedule_fire1``, ``advance_if_clear`` — with their C
transliterations.  Everything else (construction, RNG streams,
snapshot ``__getstate__``/``__setstate__``, ``live_entries``,
cancellation) is inherited pure Python, and all mutable state lives in
the ordinary Python slots, which is what makes the two builds
bit-identical and snapshot-compatible.

The class is defined *unconditionally*: a pickled snapshot that
references ``repro.compiled.engine.CompiledSimulator`` must unpickle in
a process without the extension.  In that case the class simply
inherits every method from ``ArraySimulator`` and behaves as the pure
engine — same results, just slower.

Engine selection never imports this module directly; it goes through
:func:`repro.compiled.engine_class`, which owns the ``REPRO_COMPILED``
knob and the silent-degrade rules.
"""

from __future__ import annotations

from ..sim.engine import ArraySimulator, Event, SimulationError

from . import status as _status

__all__ = ["CompiledSimulator"]

_core = _status().module


class CompiledSimulator(ArraySimulator):
    """Array engine with C hot methods (pure-Python fallback built in).

    Selected automatically by :func:`repro.sim.engine.get_engine_class`
    when the extension is built and ``REPRO_COMPILED`` does not pin pure
    Python; constructible directly (or via
    ``get_engine_class("compiled")``) for explicit control.  Behaviour
    is bit-identical to :class:`~repro.sim.engine.ArraySimulator`: same
    event ordering, sequence numbering, ``events_processed`` counts,
    error messages, and snapshot state — the differential suite and the
    determinism goldens hold it to that.
    """

    __slots__ = ()

    if _core is not None:
        run = _core.run
        schedule = _core.schedule
        schedule_at = _core.schedule_at
        schedule_fire = _core.schedule_fire
        schedule_fire1 = _core.schedule_fire1
        advance_if_clear = _core.advance_if_clear


if _core is not None:
    # Hand the extension everything it dispatches through: the engine
    # class (setup() extracts the __slots__ member offsets the C hot
    # paths read and write directly), the Event class, the error type
    # the validation paths raise, and the pure run loop it delegates
    # exotic max_events types to.
    _core.setup(CompiledSimulator, Event, SimulationError, ArraySimulator.run)
