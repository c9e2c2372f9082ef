"""Letter-graph toolkit.

Decode words into graphs through a decoder relation, build closed-form
optimal letterings of paths and perfect matchings, solve small instances
exactly, and audit the structural facts behind the path bound.
"""

from .audits import (
    AUDIT_MAX_PAIRS,
    MatchingAuditReport,
    WordCensus,
    audit_matching_letterings,
    check_betweenness,
    count_matching_words,
    matching_word_census,
)
from .constructions import (
    matching_base_lettering,
    matching_canonical_lettering,
    path_lettericity,
    path_lettering,
)
from .core import (
    Decoder,
    Lettering,
    Word,
    complement_decoder,
    decode,
    format_lettering,
    letter_occurrences,
    parse_decoder_pairs,
    parse_lettering,
    parse_word,
    subword,
    verify_lettering,
)
from .errors import CapabilityError, InvalidLetteringError, ParseError
from .graphs import (
    ISOMORPHISM_VERTEX_LIMIT,
    Graph,
    are_isomorphic,
    induced_subgraph,
    is_cycle,
    is_linear_forest,
    is_matching,
    is_path,
    matching_graph,
    parse_edge_list,
    path_graph,
    serialize_edge_list,
    to_dot,
)
from .solver import (
    ENUMERATION_VERTEX_LIMIT,
    VERTEX_LIMIT,
    EnumerationResult,
    LetteringWitness,
    enumerate_letterings,
    is_k_letterable,
    lettericity_exact,
)

__version__ = "0.1.0"

__all__ = [
    "AUDIT_MAX_PAIRS",
    "CapabilityError",
    "Decoder",
    "ENUMERATION_VERTEX_LIMIT",
    "EnumerationResult",
    "Graph",
    "ISOMORPHISM_VERTEX_LIMIT",
    "InvalidLetteringError",
    "Lettering",
    "LetteringWitness",
    "MatchingAuditReport",
    "ParseError",
    "VERTEX_LIMIT",
    "Word",
    "WordCensus",
    "are_isomorphic",
    "audit_matching_letterings",
    "check_betweenness",
    "complement_decoder",
    "count_matching_words",
    "decode",
    "enumerate_letterings",
    "format_lettering",
    "induced_subgraph",
    "is_cycle",
    "is_k_letterable",
    "is_linear_forest",
    "is_matching",
    "is_path",
    "letter_occurrences",
    "lettericity_exact",
    "matching_base_lettering",
    "matching_canonical_lettering",
    "matching_graph",
    "matching_word_census",
    "parse_decoder_pairs",
    "parse_edge_list",
    "parse_lettering",
    "parse_word",
    "path_graph",
    "path_lettericity",
    "path_lettering",
    "serialize_edge_list",
    "subword",
    "to_dot",
    "verify_lettering",
]
