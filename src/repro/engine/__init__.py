"""Record-level map/combine/shuffle/reduce engine over the WAN simulator.

A deliberately small Spark: datasets are split into RDD partitions,
partitions are assigned to executors on machines, map output is combined
per executor (identical keys merge), and the combined intermediate data
shuffles across sites through :class:`repro.wan.transfer.TransferScheduler`
under a reduce-task placement.  Intermediate-data reduction *emerges*
from the actual record keys — no closed-form similarity shortcut — which
is what makes similarity-aware placement measurably win or lose here,
exactly as in the paper's Figure 1.

This package imports none of its modules: import a name from the module
that defines it, so a start-up loads only what it runs (DESIGN.md
"Start-up cost").
"""
