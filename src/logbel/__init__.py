"""Dynamic exact inference on tree-structured Bayesian networks.

Classical linear-time belief propagation plus a contraction index that
answers evidence updates and marginal queries in logarithmic time, and a
join-tree compiler that extends both to polytrees.
"""

from .counters import OpCounters
from .errors import (
    AllZeroLikelihood,
    ConstructionError,
    Cycle,
    DimensionMismatch,
    DimensionOverflow,
    DuplicateId,
    FloatRangeError,
    FormatError,
    ImpossibleEvidence,
    InvalidProbability,
    LeafWithoutEvidence,
    LevelOutOfRange,
    LogbelError,
    MissingRoot,
    MultipleRoots,
    NotALeaf,
    NotAPolytree,
    RowNotStochastic,
    StateSpaceTooLarge,
    TreeTooSmall,
    UnknownNode,
    UnknownVariable,
)
from .model import (
    Belief,
    CausalTree,
    Evidence,
    Node,
    brute_force_marginal,
    build_tree,
    check_likelihood,
    load_network,
    normalize_tree,
    save_network,
    set_evidence,
    tree_to_spec,
)
from .propagate import (
    LazyState,
    PropagationTable,
    belief,
    full_propagate,
    lazy_query,
    lazy_update,
)
from .contraction import (
    ContractionIndex,
    FactoredMatrix,
    Identity,
    PiLambdaTriple,
    belief_query,
    calc_pi_lambda,
    contract,
    lambda_query,
    pi_query,
    update_evidence,
)
from .jointree import (
    Clique,
    CompiledTree,
    JoinTree,
    Polytree,
    PolytreeEngine,
    Variable,
    brute_polytree_marginal,
    build_engine,
    build_join_tree,
    build_polytree,
    compile_join_tree,
    extract_cliques,
    load_polytree,
    polytree_query,
    polytree_update,
    prior_marginals,
)
from .generate import balanced_tree, chain_tree, random_polytree, random_tree

__all__ = [
    "AllZeroLikelihood", "Belief", "CausalTree", "Clique", "CompiledTree",
    "ConstructionError", "ContractionIndex", "Cycle", "DimensionMismatch",
    "DimensionOverflow", "DuplicateId", "Evidence", "FactoredMatrix",
    "FloatRangeError", "FormatError", "Identity", "ImpossibleEvidence",
    "InvalidProbability", "JoinTree",
    "LazyState", "LeafWithoutEvidence", "LevelOutOfRange", "LogbelError",
    "MissingRoot", "MultipleRoots", "Node", "NotALeaf", "NotAPolytree",
    "OpCounters", "PiLambdaTriple", "Polytree",
    "PolytreeEngine", "PropagationTable", "RowNotStochastic",
    "StateSpaceTooLarge", "TreeTooSmall", "UnknownNode", "UnknownVariable",
    "Variable", "balanced_tree", "belief",
    "belief_query", "brute_force_marginal", "brute_polytree_marginal",
    "build_engine", "build_join_tree", "build_polytree", "build_tree",
    "calc_pi_lambda", "chain_tree", "check_likelihood", "compile_join_tree",
    "contract", "extract_cliques", "full_propagate", "lambda_query",
    "lazy_query", "lazy_update", "load_network", "load_polytree",
    "normalize_tree", "pi_query", "polytree_query", "polytree_update",
    "prior_marginals", "random_polytree", "random_tree",
    "save_network", "set_evidence", "tree_to_spec", "update_evidence",
]
