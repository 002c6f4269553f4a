"""Exact-arithmetic toolkit for stability thresholds of weighted Fano
hypersurfaces: weighted projective space invariants, standard weighted
blowups, strict transforms, barycenter bounds, flag moment integrals, and a
rule-based certificate engine."""

from .engine import certify

__version__ = "0.1.0"
