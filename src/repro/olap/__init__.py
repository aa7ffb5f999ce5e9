"""OLAP cube substrate (§2.2, §4.1).

The paper stores raw data as OLAP cubes (Apache Kylin on Hive) so that
similarity checking can operate on pre-aggregated, pre-clustered cells
instead of raw records.  This package provides the equivalent:

- :class:`~repro.olap.cube.OLAPCube` — a multi-dimensional aggregate with
  cells addressed by coordinate tuples.
- :mod:`~repro.olap.operations` — slice, dice, roll-up, drill-down, pivot
  and projection (dimension cubes).
- :class:`~repro.olap.dimension_cube.DimensionCubeSet` — the per-query-type
  dimension cubes of §4.1.
- :class:`~repro.olap.builder.CubeBuilder` — incremental cube maintenance
  with buffering of data generated during query execution.
- :mod:`~repro.olap.storage` — the storage-overhead model behind Table 6.

This package imports none of its modules: import a name from the module
that defines it, so a start-up loads only what it runs (DESIGN.md
"Start-up cost").
"""
