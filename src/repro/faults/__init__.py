"""Declarative fault injection — disabled, it costs one ``is`` check.

This package replaced the three ad-hoc env hooks
(``REPRO_FAULT_KILL`` / ``REPRO_FAULT_STALL`` /
``REPRO_FAULT_ONCE_DIR``) with a seeded, declarative
:class:`~repro.faults.plan.FaultPlan` injected at named
``faultpoint("...")`` call sites.  The sites threaded through the
codebase:

========================  =============================================
site                      where / dynamic ``name``
========================  =============================================
``sweep.cell``            worker picks up a cell (name: cell name)
``sched.submit``          parent dispatches a cell to a lane (cell name)
``sched.reply``           parent folds a lane's reply (cell name)
``sched.reap``            parent kills a lane past ``--cell-timeout``
``queue.enqueue.todo``    between seen-marker and todo write (digest)
``queue.claim``           right after a successful claim (digest)
``queue.done``            before the done record write (digest)
``durable.write``         every atomic_write; torn rules bite here (path)
``durable.write.tmp``     tmp written+fsynced, before replace (path)
``journal.append``        journal line append; torn rules bite (path)
``pipeline.spill.open``   MRT spill archive opened (path)
``pipeline.spill.close``  MRT spill archive closing (path)
========================  =============================================

Arming: set ``REPRO_FAULT_PLAN=<plan.json>`` in the environment (it
reaches forked lanes and subprocess invocations alike), or
call :func:`set_fault_plan` in-process.  Unarmed, every helper is a
no-op behind a single module-global check — the same gated-singleton
discipline as the obs ``phase()`` spans, so production code pays
nothing for the instrumentation points.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.faults.plan import (
    ACTIONS,
    DEFAULT_EXIT_CODE,
    PLAN_ENV,
    FaultPlan,
    FaultPlanError,
    FaultRule,
    InjectedFault,
)

__all__ = [
    "ACTIONS",
    "DEFAULT_EXIT_CODE",
    "PLAN_ENV",
    "FaultPlan",
    "FaultPlanError",
    "FaultRule",
    "InjectedFault",
    "fault_plan_enabled",
    "faultpoint",
    "load_plan",
    "mangle",
    "reset_fault_plan",
    "set_fault_plan",
]

#: Tri-state plan cache: ``None`` = environment not probed yet,
#: ``False`` = probed and disabled (the steady state: every
#: faultpoint is one ``is False`` check), else the armed plan.
_STATE: "None | bool | FaultPlan" = None


def load_plan(path: str) -> FaultPlan:
    """Parse a JSON fault plan file (validating it)."""
    return FaultPlan.load(path)


def set_fault_plan(
    plan: "Optional[FaultPlan]",
) -> "None | bool | FaultPlan":
    """Arm *plan* in this process; returns the previous state.

    ``None`` disables injection without re-probing the environment —
    tests use ``reset_fault_plan`` to return to env-driven arming.
    """
    global _STATE
    previous = _STATE
    _STATE = plan if plan is not None else False
    return previous


def reset_fault_plan() -> None:
    """Forget any armed/probed state; the next faultpoint re-probes
    the environment.  Test fixtures call this around env changes."""
    global _STATE
    _STATE = None


def _active_plan() -> "Optional[FaultPlan]":
    global _STATE
    state = _STATE
    if state is None:
        path = os.environ.get(PLAN_ENV)
        state = load_plan(path) if path else False
        _STATE = state
    return state if state is not False else None


def fault_plan_enabled() -> bool:
    """True when a plan is armed (probing the env on first call)."""
    return _active_plan() is not None


def faultpoint(site: str, name: str = "") -> None:
    """Declare a named injection point; a no-op unless a plan fires.

    ``site`` is the static location; ``name`` the dynamic subject (a
    cell name, digest or path) rules can ``match`` on.
    """
    if _STATE is False:  # the armed-off fast path: one global check
        return
    plan = _active_plan()
    if plan is not None:
        plan.on_point(site, name)


def mangle(site: str, name: str, data: bytes) -> bytes:
    """Give ``torn`` rules a shot at a durable payload's bytes."""
    if _STATE is False:
        return data
    plan = _active_plan()
    if plan is None:
        return data
    return plan.mangle(site, name, data)
