"""Toolkit for computing with finite Ehresmann and restriction semigroups."""

from .core import (Congruence, OpTableSemigroup, check_proper_ideal,
                   is_matching, is_strictly_proper, matchify, natural_orders,
                   proper_elements, projections, sigma, verify_ehresmann,
                   verify_restriction)
from .relmonoid import Rel, classify, compose, dom_ran, generate, natural_le
from .resgraph import (FiniteMonoid, FreeMonoid, ResGraph, Semilattice,
                       check_axioms, check_path_axioms, contract_step,
                       corestrict_path, equivalent_paths, restrict_path)
from .product import (build_product, check_construction_claims,
                      check_properness_criterion, structure_iso_check,
                      underlying_graph)
from .cover import (CanonicalPath, build_cover_graph, canonical_preimage,
                    cover_mult, cover_plus_star, fes_witness_check, phi,
                    verify_cover)
from .actions import (PartialAction, Premorphism, build_pair_form,
                      check_determinism, check_partial_action_laws,
                      check_sigma_iff_label, classify_restriction,
                      graph_to_premorphism, premorphism_to_graph)

__version__ = "0.1.0"
