"""Exact combinatorics of seed mutation, gentle algebras and tilings."""

from .laurent import LaurentPoly, divide_exact
from .exchange import (ExchangeMatrix, Seed, mutate_matrix, mutate_seed,
                       find_skew_symmetrizer, langlands_dual)
from .tracking import (TrackedSeed, ClusterMonomial, mutate_tracked,
                       d_matrix, vectors_of_monomial, check_dual_seeds)
from .explore import (ExchangeGraph, explore, enumerate_monomials,
                      standard_matrix)
from .quiver import (Arrow, BoundQuiver, StringWord, check_gentle,
                     detect_even_full_cycle, cartan_matrix,
                     check_qb_conditions)
from .modules import (QuiverRep, StringInventory, string_module, hom_dim,
                      ar_translate, enumerate_tau_rigid)
from .tiling import (TilingComplex, DiscTiling, PermissibleArc, ArcMultiset,
                     seg_profile, disc_tilings, b_matrix_from_triangulation)
from .verify import (VerifyReport, write_report, verify_thm1, verify_thm2,
                     verify_fvector_injectivity, verify_denominator,
                     verify_denominator_duality,
                     verify_type_c_categorification)

__all__ = [name for name in dir() if not name.startswith("_")]
