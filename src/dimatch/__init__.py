"""Dominating induced matching solver for spider-free graphs.

A dominating induced matching (d.i.m.) of an undirected graph is an
edge set intersecting every edge exactly once.  The solver decides
existence and constructs a certificate in polynomial time on graphs with
no induced S_{1,1,5}; an exact brute-force oracle and a certificate
verifier back it for differential validation on arbitrary graphs.
"""

from .graph import (Graph, GraphInputError, DimCertificate, build_graph,
                    connected_components, edge_key, verify_dim,
                    verify_dim_report)
from .patterns import (PatternKind, PatternWitness, K4, DIAMOND, BUTTERFLY,
                       S115, find_induced, random_s115_free)
from .coloring import (UNKNOWN, BLACK, WHITE, ColoringState, assign,
                       propagate, preprocess)
from .oracle import (OracleReport, BudgetExceeded, brute_force_dim,
                     enumerate_dims)
from .solver import SolveOutcome, SolveStats, HypothesisViolation, solve

__version__ = "0.1.0"
