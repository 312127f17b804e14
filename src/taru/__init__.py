"""taru: approximate counting and uniform sampling for tree automata slices,
with reductions for conjunctive queries, existential CSPs, structured DNNF
circuits and nested word automata."""

__version__ = "0.1.0"

from .automata import (
    AutomatonError,
    Transition,
    TreeAutomaton,
    decode_tree,
    encode_binary,
    encode_tree,
)
from .config import Config
from .engine import (
    BOT,
    CountResult,
    Engine,
    EngineFail,
    FpausSampler,
    LanguageSampler,
    fpaus,
    fpras_bta,
    fpras_ta,
)
from .oracles import (
    BudgetExceeded,
    SliceEnumeration,
    brute_completions,
    brute_nfa_count,
    brute_slice,
    exact_slice_count,
)
from .sampling import EMPTY, FAIL, immediate_extensions, min_hole
from .snfa import (
    ExplicitLabel,
    LabelOracle,
    SuccinctNFA,
    count_succinct_nfa,
    sample_word,
    unroll_nfa,
)
from .trees import Tree, hole, leaf, parse_tree, serialize_tree
from .unrolling import UnrolledAutomaton

__all__ = [name for name in dir() if not name.startswith("_")]
