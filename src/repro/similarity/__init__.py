"""Similarity machinery (§4, §6).

Cross-site dataset similarity is estimated with *probes* built from the
top cells of OLAP dimension cubes; runtime RDD-partition similarity uses a
Jaccard-modified DIMSUM algorithm plus k-means clustering.  High-dimension
feature vectors (the paper's image datasets) go through a vector space
model and locality sensitive hashing.

This package imports none of its modules: import a name from the module
that defines it, so a start-up loads only what it runs (DESIGN.md
"Start-up cost").
"""
