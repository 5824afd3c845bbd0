"""Chaos property: serve kill/reconnect storms replay to identical worlds."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.chaos import chaos_serve_storm
from repro.faults.plan import DROP, KILL, STALL, Fault, FaultPlan

@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_seeded_kill_storms_never_corrupt(tmp_path_factory, seed):
    """chaos_serve_storm raises ChaosViolation if replies or the final world
    digest ever silently diverge from the uninterrupted reference run."""
    workdir = tmp_path_factory.mktemp("storm")
    report = chaos_serve_storm(seed, workdir, n_ticks=5, n_nodes=20)
    assert report.outcome in ("recovered", "exceeded")


def test_mid_tick_kill_recovers_identically(tmp_path):
    """A kill on the first flush attempt of two separate ticks: restore from
    snapshot + resend yields byte-identical replies and digest."""
    plan = FaultPlan([Fault("serve.tick", 0, KILL), Fault("serve.tick", 4, KILL)])
    report = chaos_serve_storm(11, tmp_path, n_ticks=4, n_nodes=20, plan=plan)
    assert report.outcome == "recovered"
    assert report.detail["kills"] == 2


def test_client_reply_loss_resumes_off_applied_seq(tmp_path):
    plan = FaultPlan(
        [Fault("serve.client", 0, DROP), Fault("serve.client", 2, STALL, arg=0.0)]
    )
    report = chaos_serve_storm(12, tmp_path, n_ticks=4, n_nodes=20, plan=plan)
    assert report.outcome == "recovered"
    assert report.detail == {"kills": 0, "reply_drops": 1}


def test_kill_every_attempt_exceeds_envelope_explicitly(tmp_path):
    """A daemon that dies on every flush attempt cannot make progress; the
    storm must report 'exceeded' rather than hang or hand back a bad world."""
    plan = FaultPlan([Fault("serve.tick", i, KILL) for i in range(256)])
    report = chaos_serve_storm(
        13, tmp_path, n_ticks=2, n_nodes=15, max_attempts=3, plan=plan
    )
    assert report.outcome == "exceeded"
    assert report.detail["stuck_tick"] == 0
    assert report.detail["kills"] == 3


def test_fault_free_storm_matches_reference_trivially(tmp_path):
    report = chaos_serve_storm(14, tmp_path, n_ticks=3, n_nodes=15, plan=FaultPlan([]))
    assert report.outcome == "recovered"
    assert report.n_fired == 0
