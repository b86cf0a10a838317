"""Exact combinatorics of tame elliptic tori of inner forms of GL_n.

The package models a tame extension E/F by pure integer arithmetic, enumerates
the Galois double cosets indexing the roots of the associated elliptic torus,
derives principal-order and finite-module invariants for every inner form
M_m(D), and verifies quadratic character identities between the two resulting
families of sign data, exactly and exhaustively.
"""

from .chartools import MuExponent, TameQuadChar
from .csa import CsaParams, split_algebra
from .errors import TametoriError
from .identities import (
    GridSpec,
    Instance,
    Report,
    SweepSummary,
    sweep,
    verify_instance,
)
from .localfield import ExtensionParams, GaloisElement, build_extension
from .roots import RootClass, RootOrbit, enumerate_orbits
from .tower import TowerShape, enumerate_shapes, validate_shape

__all__ = [
    "MuExponent",
    "TameQuadChar",
    "CsaParams",
    "split_algebra",
    "TametoriError",
    "GridSpec",
    "Instance",
    "Report",
    "SweepSummary",
    "sweep",
    "verify_instance",
    "ExtensionParams",
    "GaloisElement",
    "build_extension",
    "RootClass",
    "RootOrbit",
    "enumerate_orbits",
    "TowerShape",
    "enumerate_shapes",
    "validate_shape",
]

__version__ = "0.1.0"
