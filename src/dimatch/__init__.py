"""Dominating induced matching solver for spider-free graphs.

A dominating induced matching (d.i.m.) of an undirected graph is an
edge set intersecting every edge exactly once.  The solver decides
existence and constructs a certificate in polynomial time on graphs with
no induced S_{1,1,5}; an exact brute-force oracle and a certificate
verifier back it for differential validation on arbitrary graphs.
"""

from .graph import (Graph, GraphInputError, DimCertificate, build_graph,
                    connected_components, distance_levels, edge_key,
                    verify_dim, verify_dim_report)
from .patterns import (PatternKind, PatternWitness, K4, DIAMOND, BUTTERFLY,
                       CLAW, S115, spider, path, cycle, make_named,
                       find_induced, check_witness, random_s115_free)
from .coloring import (UNKNOWN, BLACK, WHITE, ColoringState, ReductionLog,
                       assign, propagate, edge_reduction, vertex_reduction,
                       preprocess)
from .levels import LevelDecomposition, decompose, normalize
from .treedp import treewidth2_dim_dp
from .oracle import (OracleReport, BudgetExceeded, brute_force_dim,
                     enumerate_dims, dims_by_subset_filter)
from .solver import (SolveOutcome, SolveStats, BranchPoint,
                     HypothesisViolation, constrained_subsolver, solve,
                     solve_with_xy)

__version__ = "0.1.0"
