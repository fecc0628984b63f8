"""Exact BMW algebras of simply laced type via Lawrence-Krammer representations."""

from .hecke import HeckeElement, ParabolicError, eval_signed_word, in_parabolic
from .lkrep import LawrenceKrammer, SparseMatrix, build_lk
from .rootsys import (
    DynkinType,
    RootSystem,
    build_type,
    enumerate_parabolic,
    parabolic_order,
)
from .scalar import Scalar, ScalarDomainError, x_value
from .verify import SuiteReport, a2_dimension_check, dims_report, run_suite, seeded_points
from .wordalg import parse_word, reduce_word, rep_image, rep_image_word

__all__ = [
    "DynkinType",
    "HeckeElement",
    "LawrenceKrammer",
    "ParabolicError",
    "RootSystem",
    "Scalar",
    "ScalarDomainError",
    "SparseMatrix",
    "SuiteReport",
    "a2_dimension_check",
    "build_lk",
    "build_type",
    "dims_report",
    "enumerate_parabolic",
    "eval_signed_word",
    "in_parabolic",
    "parabolic_order",
    "parse_word",
    "reduce_word",
    "rep_image",
    "rep_image_word",
    "run_suite",
    "seeded_points",
    "x_value",
]
