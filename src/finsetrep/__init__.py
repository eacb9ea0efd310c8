"""Exact-arithmetic workbench for matrix representations of the finite-set
categories F, FI, Delta, and the category N of maps with ordered fibers.

Everything computes over exact rationals; there is no floating point in the
package.  See the README for the CLI and the text formats.
"""

__version__ = "0.1.0"

from .catcore import (  # noqa: F401
    DELTA, F, FI, N, CategoryTag, DeltaMor, NMor, SetMap,
    compose_n, enumerate_hom, factorize, forget, hom_count, lift,
)
from .exactla import Matrix, kernel, reduce, solve  # noqa: F401
from .repmod import (  # noqa: F401
    CatModule, check_functoriality, check_relations, direct_sum,
    generation_degree, read_module, restrict, write_module,
)
from .doldkan import conormalize, dim_polynomial, realize  # noqa: F401
from .simples import descends_through_phi, make_simple  # noqa: F401
from .chars import character, fit_character_polynomial, fit_dimension_polynomial  # noqa: F401
from .invariants import barred_map, invariants_basis, monotonicity_check, replication_iso_check  # noqa: F401
from .arnold import arnold_dim, arnold_module, straighten  # noqa: F401
