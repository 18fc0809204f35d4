"""The supervised executor: checkpointed retry, the degradation
ladder, abort semantics, and RNG parity of recovery."""

from __future__ import annotations

import pytest

from repro.algebra.monoid import sum_monoid
from repro.algebra.rings import INTEGER
from repro.errors import (
    BatchValidationError,
    InvalidParameterError,
    MachineHangError,
    PositionError,
    RetryExhaustedError,
)
from repro.resilience.executor import (
    DegradationEvent,
    ResiliencePolicy,
    ResilientListSession,
)
from repro.resilience.faults import FaultPlan

MONOID = sum_monoid(INTEGER)


def make(*, policy=None, plan=None, n=24, seed=0):
    return ResilientListSession(MONOID, range(n), seed=seed, policy=policy, plan=plan)


def drive(session):
    """A fixed op mix touching every mutating entry point."""
    session.batch_insert([(0, 100), (5, 200), (5, 300)])
    session.insert(2, -7)
    session.batch_set([(1, 11), (9, -2)])
    session.batch_delete([3, 0, 12])
    session.delete(1)


# ---------------------------------------------------------------------------
# transient faults: retry reconverges with the fault-free run
# ---------------------------------------------------------------------------


def test_transient_faults_recover_with_rng_parity():
    faulted = make(plan=FaultPlan(2, rate=1.0, sticky_rate=0.0))
    clean = make(plan=None)
    drive(faulted)
    drive(clean)
    assert faulted.stats["retries"] >= 1, "rate 1.0 must force retries"
    assert faulted.rung == "flat" and not faulted.events
    assert faulted.values() == clean.values()
    assert faulted.total() == clean.total()
    # Recovery consumed zero extra master-RNG coin flips.
    assert faulted.rng_state() == clean.rng_state()


def test_fault_free_supervision_is_invisible():
    supervised = make(plan=FaultPlan(0, rate=0.0))
    clean = make(plan=None)
    drive(supervised)
    drive(clean)
    assert supervised.stats["retries"] == 0
    assert supervised.stats["rollbacks"] == 0
    assert supervised.values() == clean.values()
    assert supervised.rng_state() == clean.rng_state()


# ---------------------------------------------------------------------------
# sticky faults: the ladder
# ---------------------------------------------------------------------------


def test_sticky_faults_demote_down_the_ladder():
    session = make(
        policy=ResiliencePolicy(max_retries=1),
        plan=FaultPlan(7, rate=1.0, sticky_rate=1.0),
    )
    clean = make(plan=None)
    drive(session)
    drive(clean)
    assert session.rung == "reference", "sticky faults must demote off rung 0"
    assert session.events and isinstance(session.events[0], DegradationEvent)
    ev = session.events[0]
    assert ev.from_rung == "flat" and ev.to_rung == "reference"
    assert ev.attempts == 2  # max_retries=1 => 2 attempts
    # Answers survive degradation (faults only fire on rung 0).
    assert session.values() == clean.values()
    assert session.total() == clean.total()


def test_faults_never_fire_below_the_top_rung():
    session = make(
        policy=ResiliencePolicy(max_retries=0),
        plan=FaultPlan(7, rate=1.0, sticky_rate=1.0),
    )
    drive(session)
    assert session.rung == "reference"
    demotions = len(session.events)
    drive(session)  # a second wave of ops on the lower rung
    assert len(session.events) == demotions, "no faults => no more demotions"


# ---------------------------------------------------------------------------
# abort: the last rung is exhausted
# ---------------------------------------------------------------------------


def test_abort_restores_pre_op_state_bit_for_bit():
    session = make(
        policy=ResiliencePolicy(max_retries=1, ladder=("flat",)),
        plan=FaultPlan(7, rate=1.0, sticky_rate=1.0),
    )
    pre_values = session.values()
    pre_rng = session.rng_state()
    with pytest.raises(RetryExhaustedError) as ei:
        session.batch_insert([(0, 1), (3, 2)])
    assert ei.value.attempts == 2
    assert session.values() == pre_values
    assert session.rng_state() == pre_rng
    session.check_invariants()
    # The session is not poisoned: a fault-free follow-up op works.
    session.plan = None
    session.batch_insert([(0, 1)])
    assert session.values()[0] == 1


def test_retry_exhaustion_at_ladder_bottom_still_raises():
    session = make(
        policy=ResiliencePolicy(max_retries=0, ladder=("flat",), detect="light")
    )

    def always_hung(*_args):
        raise MachineHangError("injected")

    # MachineHangError is RECOVERABLE, so with zero retries and a
    # single-rung ladder the supervisor must surface RetryExhaustedError.
    session._structure.prefix = always_hung
    with pytest.raises(RetryExhaustedError):
        session.prefix(10)


# ---------------------------------------------------------------------------
# client errors are not faults
# ---------------------------------------------------------------------------


def test_batch_validation_error_propagates_without_retry():
    session = make(plan=FaultPlan(0, rate=0.0))
    pre_values = session.values()
    pre_rng = session.rng_state()
    with pytest.raises(BatchValidationError):
        # Deleting every leaf is rejected at admission (§7).
        session.batch_delete(list(range(len(session))))
    assert session.stats["retries"] == 0, "client errors must not retry"
    assert session.values() == pre_values
    assert session.rng_state() == pre_rng


def test_position_error_propagates_with_state_restored():
    session = make(plan=FaultPlan(0, rate=0.0))
    pre_values = session.values()
    pre_rng = session.rng_state()
    with pytest.raises(PositionError):
        session.batch_set([(999, 5)])  # out of range: a client error
    assert session.stats["retries"] == 0
    assert session.values() == pre_values
    assert session.rng_state() == pre_rng
    session.check_invariants()


# ---------------------------------------------------------------------------
# policy validation
# ---------------------------------------------------------------------------


def test_policy_rejects_bad_configuration():
    with pytest.raises(Exception):
        ResiliencePolicy(ladder=())
    with pytest.raises(Exception):
        ResiliencePolicy(max_retries=-1)
    with pytest.raises(Exception):
        ResiliencePolicy(detect="telepathy")


def test_ladder_rejects_unknown_rung():
    ResiliencePolicy(ladder=("reference", "flat"))  # must not raise
    # "parallel" is not a rung: there is no process-pool backend.
    for ladder in (("flat", "threads"), ("parallel",), ("parallel", "flat")):
        with pytest.raises(InvalidParameterError):
            ResiliencePolicy(ladder=ladder)
