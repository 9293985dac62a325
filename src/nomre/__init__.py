"""Nominal regular expressions and chronicle deallocating automata.

Expressions extend regular expressions with names from an infinite
universe, binders that allocate and deallocate them, and two freshness
disciplines (local and relative global). The package provides both
directions between expressions and layered register automata, a symbolic
language calculus, and bounded differential checking between the two
semantics.
"""

from .automata import (
    Cda,
    CdaClass,
    Label,
    State,
    accept,
    class_of,
    enumerate_words,
    equiv_bounded,
    from_json,
    to_dot,
    to_json,
    validate,
)
from .calculus import (
    DerivationTree,
    Global,
    Local,
    Neq,
    SchematicWord,
    ctxc_derive,
    derivation_dump,
    flatten_to_neqs,
    language_enumerate,
    language_member,
    lngc_eval,
    lngc_results,
    schematic_member,
    schematic_normalize,
    schematic_words_of,
)
from .compiler import ContextTriple, compile_expr, compile_in_context
from .errors import (
    CompileError,
    ContextError,
    NomreError,
    ParseError,
    ResourceLimitError,
    SchemaError,
    ValidationError,
)
from .expr import (
    NreClass,
    alpha_eq,
    apply_perm_expr,
    check_wellformed,
    classify,
    classify_first_degree,
    free_names,
    parse,
    render,
)
from .extract import determinize_layers, extract_expr, layered_view
from .nominal import (
    Chronicle,
    Letter,
    Name,
    Perm,
    name,
    perm_from_lists,
    placeholder,
    transpose,
)

__version__ = "0.1.0"
