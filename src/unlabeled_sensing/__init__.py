"""Recover a signal and a structured permutation from permuted linear measurements.

Given Y = P @ B @ X + W with an unknown permutation P restricted to an r-local
(block diagonal) or k-sparse (exactly k displaced rows) model, this package
estimates (P, X) by alternating exact assignment and least-squares updates,
started from a model-specific initialization. It also ships an experiment
harness and Monte-Carlo validators for the initialization error bounds.
"""

from .collapse import CollapsedSystem, build_collapsed, init_rlocal
from .data import (BlockRule, EvalMetrics, ProblemInstance, SynthConfig,
                   evaluate, generate, ingest_csv, load_bundle, oracle_and_naive,
                   save_bundle)
from .errors import (EmptyBlockRule, InvalidConfig, InvalidK, InvalidRange,
                     InvalidSpec, NoConvergence, NonFinite, NonNumeric,
                     ParseError, ShapeMismatch, SingularMatrix,
                     TooFewIterations, UnlabeledSensingError)
from .linalg import SvdFactors, pinv_solve, row_space_projector, svd
from .permutation import (BlockPartition, KSparse, Permutation,
                          PermutationModel, RLocal, apply, hamming_distortion,
                          sample_ksparse, sample_rlocal)
from .solver import (SolveResult, SolverConfig, objective, permutation_update,
                     relative_change, signal_update, solve)
from .theory import (BoundReport, check_lemma1, check_lemma2, check_lemma4,
                     check_theorem1, check_theorem2, check_theorem3,
                     chi2_tail_check, jl_threshold, worst_case_init_bound)

__version__ = "0.1.0"
