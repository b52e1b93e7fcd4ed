"""Exact arithmetic for the Carlitz module over F_q(T).

Finite-field and polynomial cores, truncated models of the completions at a
finite prime and at infinity, the additive operators rho_M and their torsion,
power reciprocity, horoball/tree geometry, and truncated analytic series.
"""

from .analytic import Lattice, SeriesBudget, carlitz_exp, eisenstein, period_partial
from .errors import BelowPrecision, CarlitzError, DomainError, PrecisionError
from .geometry import (
    Fraction,
    NormalBasisData,
    TreeVertex,
    descartes_form,
    galois_embed,
    geodesic_ray,
    normal_basis,
    soddy_form,
    tangent,
    tangent_family,
    tree_distance,
    tree_neighbors,
)
from .gf import GF
from .operator import (
    AdditivePoly,
    XPoly,
    brackets_D,
    carlitz_act,
    carlitz_operator,
    cyclotomic_poly,
)
from .padic import PadicCtx, PadicElem, hensel_lift
from .poly import (
    Poly,
    RatFn,
    euler_phi,
    is_irreducible,
    monic_irreducibles,
    parse_poly,
)
from .reciprocity import (
    NewtonPolygon,
    check_reciprocity,
    kummer_map,
    kummer_solve,
    newton_polygon,
    residue_degree_cyclotomic,
    residue_degree_kummer,
    residue_symbol,
    star_action,
    xi_poly,
)
from .residues import ddf
from .series import InfLaurent, Series, VqElem, parse_series
from .torsion import (
    TorsionSetPadic,
    TorsionSetVq,
    completed_action,
    dirichlet_approx,
    divide_T,
    division_chain,
    torsion_padic,
    torsion_vq,
)

__version__ = "0.1.0"
