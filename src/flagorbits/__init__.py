"""Exact computation of block-Borel double coset orbits on flag varieties."""

from .linalg import GF, Matrix, QQ, gf, parse_matrix_literal
from .flags import (Composition, Flag, ParabolicSpec, act, parse_flag_literal,
                    qfamily)
from .invariants import (JFamily, Signature, bruhat_rij, bruhat_vector,
                         invariant_family, rank_js, signature)
from .normalforms import (CaseTag, CatalogLookupError, InfinitePairError,
                          NonInjectiveError, UnsupportedCaseError,
                          WitnessPair, classify_pair, counterexample_pair,
                          decode_signature_case0,
                          decode_signature_case3prime, reduce_by_catalog,
                          reduce_case0, reduce_case3prime, reduce_flag)
from .orbits import (OrbitCatalog, catalog_to_text, count_multiplicity_free,
                     emit_dot, enumerate_orbits, hasse_candidate,
                     orbit_dimension)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
