"""Counterfactual fairness verification for probabilistic classifiers.

The toolkit internalizes causal graphs and interventions into a labeled
deduction calculus: it builds counterfactual candidate data points, derives
counterfactual judgments through a small trusted rule kernel, emits
independently replayable proof objects, and compares factual against
counterfactual output probabilities.
"""

from .closure import descendants, intervene_graph, mediate_closure
from .engine import (
    CandidateFailure,
    CandidateRejected,
    Case,
    ConsistencyError,
    Verdict,
    build_candidate,
    cf_verdict,
    check_case,
    derive_counterfactual,
    verify_candidate,
    verify_proof,
)
from .kernel import (
    Proof,
    ProofCheck,
    ProofStep,
    RuleError,
    RuleId,
    apply_c_weakening,
    apply_i_cut,
    apply_tri_cut,
    apply_v_cut,
    check_proof,
)
from .model import (
    Atom,
    AttrItem,
    Attribution,
    CausalGraph,
    Complement,
    DataPoint,
    EdgeItem,
    GraphCycle,
    Intervention,
    InterventionExpr,
    InterventionItem,
    InvalidModel,
    Judgment,
    Sum,
    UnknownVariable,
    variables_of,
)
from .oracle import (
    ClassifierOracle,
    ConflictingJudgments,
    CsvFrequencyOracle,
    ExternalCommandOracle,
    JudgmentDbOracle,
    NoMatchingJudgment,
    OracleError,
    OracleQuery,
    UndefinedProbability,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
