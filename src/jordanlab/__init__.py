"""Exact arithmetic for Heisenberg-type groups, elliptic theta groups, and
the unbounded abelian-index witness inside Bir(E x A^1)."""

from .scalars import FpElement, RootOfUnity
from .finab import (
    Character,
    FinAbGroup,
    HPoint,
    HSubgroup,
    IsotropicWitness,
    KElement,
    is_isotropic,
    isotropic_witness,
    orthogonal_complement,
    pairing,
    parse_delta,
    span_in,
)
from .heisenberg import HeisElement, IndexReport, lagrangian_lift, min_abelian_index
from .ellcurve import (
    Curve,
    CurvePoint,
    Divisor,
    TrackedFunction,
    curve_search,
    enumerate_points,
    is_principal,
    line_function,
    miller_function,
    torsion_subgroup,
    weil_pairing,
)
from .theta import (
    HofL,
    ThetaElement,
    find_theta_curve,
    h_of_level,
    orientation_sigma,
    symplectic_basis,
    theta_commutator,
    theta_enumerate_mu,
    theta_inv,
    theta_make,
    theta_mul,
    theta_to_heisenberg,
)
from .birgroup import BirAuto, SamplePoint, bir_equal, compose, inverse, theta_embed

__all__ = [name for name in dir() if not name.startswith("_")]
