"""Queries: specification, SQL parsing, UDFs, compilation.

Recurring queries are the unit of optimization in Bohr: each query type
(the set of attributes accessed) is served by a dimension cube and
compiled, with its data-reduction ratio, into an engine job spec.

This package imports none of its modules: import a name from the module
that defines it, so a start-up loads only what it runs (DESIGN.md
"Start-up cost").
"""
