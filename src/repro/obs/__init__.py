"""Observability: one event stream and its views (`repro.obs`).

Bohr's whole argument is a latency decomposition — QCT dominated by WAN
shuffle, similarity checking "a small fraction of QCT", the LP solving
fast enough to run per query.  This package makes that decomposition a
first-class, machine-readable artifact instead of a post-hoc guess:

* :mod:`repro.obs.telemetry` — the streaming runtime event bus, the one
  recorder (flow/link/stage/fault/plan events plus ``span-begin`` /
  ``span-end`` pairs around wall-clock work; versioned JSONL behind
  ``--telemetry``);
* :mod:`repro.obs.views` — the two views of that stream: hierarchical
  :mod:`repro.obs.span` trees (``experiment > query > probe/lp/map/
  shuffle/reduce``, wall and simulated clocks) and metric series
  (bytes shuffled per link, combiner hit rate, LP iterations, ...);
* :mod:`repro.obs.export` — Chrome ``chrome://tracing`` trace-event
  export of a stream's spans and fault windows;
* :mod:`repro.obs.instrument` — the process-wide instrumentation slot
  (bus + sanitizer); the default is a no-op, so uninstrumented runs pay
  ~zero cost;
* :mod:`repro.obs.sanitize` — the runtime invariant sanitizer (bytes
  conservation, sim-clock monotonicity, LP feasibility) behind the CLI
  ``--sanitize`` flag;
* :mod:`repro.obs.inspect` — per-stage latency breakdown of a saved
  archive's spans (the ``python -m repro inspect`` command);
* :mod:`repro.obs.series` — derivations from event streams to sim-time
  time-series (link utilization, site busy fraction, estimator error);
* :mod:`repro.obs.report_html` / :mod:`repro.obs.top` — the static
  ``repro report`` dashboard and the live ``repro top`` terminal view.

This package imports none of its modules: import a name from the module
that defines it, so a start-up loads only what it runs (DESIGN.md
"Start-up cost").
"""
