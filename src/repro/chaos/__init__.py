"""Deterministic fault injection and the failure-aware runtime.

``repro.chaos`` is the standard harness for every robustness claim: a
seed-derived :class:`~repro.chaos.schedule.FaultSchedule` describes link
degradations, blackouts, whole-site outages, stragglers and transfer
stalls; the WAN simulator and engine consume it during simulation, and
:mod:`repro.chaos.runtime` supplies the retry/backoff policy and the
:class:`~repro.chaos.runtime.ChaosConfig` bundle the controller runs
under.  Same seed, same faults, same results — chaos runs are as
deterministic as benign ones.

This package imports none of its modules: import a name from the module
that defines it, so a start-up loads only what it runs (DESIGN.md
"Start-up cost").
"""
