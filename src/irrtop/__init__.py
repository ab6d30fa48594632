"""Exact laboratory for the Zariski, point-closure, and refined topologies
on the space of irreducible representations of a finite-dimensional algebra
over a prime field, together with constructive embeddings of the algebra
into finite products of modules."""

from .algebra import Algebra, Ideal, ideal_generated, product_algebra, quotient_algebra, validate_algebra
from .embeddings import (
    EmbeddingWitness,
    ProductFamily,
    ann_of_vector,
    chain_product_embedding,
    deletion_stability,
    find_embedding,
    staged_product_embedding,
    sufficiency_check,
)
from .linalg import Subspace, kernel, rref, solve
from .meataxe import (
    MeatAxeError,
    composition_factors,
    jacobson_radical,
    split,
)
from .modules import (
    ModuleRep,
    annihilator,
    check_module,
    direct_sum,
    regular_module,
    spin,
    sub_quotient,
    vector_annihilator,
)
from .pointclosure import (
    ClosedPair,
    FiniteSpace,
    SymbolicSpace,
    TopologyError,
    chain_stabilize,
    make_pair,
    pc_intersect,
    pc_union,
    point_closure,
    weyl_model,
)
from .presets import gallery, preset
from .topology import (
    IrrPoint,
    IrrSpace,
    ZClosed,
    enumerate_irr,
    refined_closure,
    vanishing_set,
    verify_closed_form,
    zariski_closed_family,
)

__version__ = "0.1.0"
