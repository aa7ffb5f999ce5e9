"""The six evaluated schemes (§8.1) as capability profiles.

=============  =====  ==========  =========  =========
scheme         cubes  similarity  joint LP   RDD sim.
=============  =====  ==========  =========  =========
iridium        no     no          no         no
iridium-c      yes    no          no         no
bohr-sim       yes    yes         no         no
bohr-joint     yes    yes         yes        no
bohr-rdd       yes    yes         no         yes
bohr           yes    yes         yes        yes
=============  =====  ==========  =========  =========

This package imports none of its modules: import a name from the module
that defines it, so a start-up loads only what it runs (DESIGN.md
"Start-up cost").
"""
