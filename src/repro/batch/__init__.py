"""The fast ADS interpreter and grouped dispatch.

:mod:`repro.batch.engine` is the flat-state interpreter (lanes of
independent seeded default-ADS runs, bit-identical to the generator
runtime) that canonical ADS/random sweep cells run on by default;
:mod:`repro.batch.dispatch` groups campaign cells per pool task behind
the ``batch_size`` knob.  See ``docs/performance.md`` ("Fast interpreter
and batched dispatch").
"""

from repro.batch.dispatch import (
    BATCH_ENV,
    make_batch_task,
    resolve_batch_size,
    run_tasks_batched,
)
from repro.batch.engine import (
    INTERPRETER_ENV,
    LaneResult,
    LaneSpec,
    resolve_interpreter,
    run_lanes,
)

__all__ = [
    "BATCH_ENV",
    "INTERPRETER_ENV",
    "LaneResult",
    "LaneSpec",
    "make_batch_task",
    "resolve_batch_size",
    "resolve_interpreter",
    "run_lanes",
    "run_tasks_batched",
]
