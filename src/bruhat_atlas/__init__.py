"""Bruhat / Ekedahl-Oort stratification atlases for classical Weyl groups."""

from .atlas import Atlas, PELCase, StratumRecord, build_atlas, siegel_case
from .coxeter import WeylElement, WeylGroup
from .errors import AtlasError, BoundError, ConsistencyError, InputError
from .rootdata import (
    CartanMatrix,
    CocharSpec,
    DiagramAutomorphism,
    DynkinSpec,
    cartan_from_spec,
    identity_automorphism,
    positive_roots,
    validate_automorphism,
)

__all__ = [
    "Atlas",
    "AtlasError",
    "BoundError",
    "CartanMatrix",
    "CocharSpec",
    "ConsistencyError",
    "DiagramAutomorphism",
    "DynkinSpec",
    "InputError",
    "PELCase",
    "StratumRecord",
    "WeylElement",
    "WeylGroup",
    "build_atlas",
    "cartan_from_spec",
    "identity_automorphism",
    "positive_roots",
    "siegel_case",
    "validate_automorphism",
]
