"""Exact k-leaky double Hurwitz descendant counts via tropical covers."""

from .chambers import (POSITIVE, Wall, WallError, ZERO, chamber_polynomial,
                       classify, wall_crossing, wall_crossing_formula, walls)
from .covers import (CoverGraph, CoverError, Problem, ProblemError,
                     WeightedCover, assemble_multiplicity, automorphism_order,
                     check_cover, validate_problem)
from .enumeration import (CombinatorialType, compute_H, count_linear_extensions,
                          enumerate_covers)
from .exactarith import LinForm, Poly, parse_rat, rat_str
from .intersections import psi_integral, psi_kappa_integral, recursion_rhs
from .vertexdata import (FixtureError, MissingVertexData, VertexKey,
                         default_fixtures, load_fixtures, vertex_mult)

__all__ = [
    "CombinatorialType", "CoverError", "CoverGraph", "FixtureError", "LinForm",
    "MissingVertexData", "POSITIVE", "Poly", "Problem", "ProblemError",
    "VertexKey", "Wall", "WallError", "WeightedCover", "ZERO",
    "assemble_multiplicity", "automorphism_order", "chamber_polynomial",
    "check_cover", "classify", "compute_H", "count_linear_extensions",
    "default_fixtures", "enumerate_covers", "load_fixtures", "parse_rat",
    "psi_integral", "psi_kappa_integral", "rat_str", "recursion_rhs",
    "validate_problem", "vertex_mult", "wall_crossing",
    "wall_crossing_formula", "walls",
]
