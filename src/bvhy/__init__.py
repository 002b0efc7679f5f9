"""Exact homotopy transfer for finite-dimensional dg BV-algebras."""

from .bv import BVAlgebra, check_bv_axioms
from .certify import (Footprint, certificate_cross_check, certify_formality,
                      is_hypersurface_footprint, op_bidegree)
from .engine import (OperationTable, TreeEvaluator, build_operation_table,
                     check_formal_unit, naive_evaluate_tree, top_degree_report)
from .graded import Bidegree, BigradedSpace, Element, GradedMap, koszul_sign
from .hodge import (InnerProduct, TransferData, adjoint_differential,
                    build_transfer_data, check_side_conditions,
                    check_strong_trivialization_composites,
                    harmonic_decomposition)
from .models import (ModelDescriptor, SearchExhausted, build_torus_model,
                     build_trivial_model, builtin_footprints, builtin_models,
                     search_nonformal)
from .trees import (DecoratedTree, canonicalize, enumerate_trees, parse_tree,
                    tree_bidegree, unparse_tree)

__version__ = "0.1.0"
