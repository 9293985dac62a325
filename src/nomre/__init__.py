"""Nominal regular expressions and chronicle deallocating automata.

Expressions extend regular expressions with names from an infinite
universe, binders that allocate and deallocate them, and two freshness
disciplines (local and relative global). The package provides both
directions between expressions and layered register automata, a symbolic
language calculus, and bounded differential checking between the two
semantics.

``import nomre`` loads no submodule. The first use of an exported name,
or of a submodule such as ``nomre.calculus``, imports its home module
(PEP 562), so a program pays only for the modules it reaches.
"""

import importlib

# Each exported name, by the submodule that defines it.
_EXPORTS = {
    "automata": (
        "Cda", "CdaClass", "Label", "State", "accept", "class_of", "enumerate_words",
        "equiv_bounded", "from_json", "to_dot", "to_json",
    ),
    "calculus": (
        "DerivationTree", "Global", "Local", "Neq", "SchematicWord", "ctxc_derive",
        "derivation_dump", "flatten_to_neqs", "language_enumerate", "language_member",
        "lngc_eval", "lngc_results", "schematic_member", "schematic_normalize",
        "schematic_words_of",
    ),
    "compiler": ("compile_expr", "compile_in_context"),
    "errors": (
        "ContextError", "NomreError", "ParseError", "ResourceLimitError", "SchemaError",
        "ValidationError",
    ),
    "expr": (
        "ContextTriple", "NreClass", "alpha_eq", "apply_perm_expr", "check_wellformed",
        "classify", "classify_first_degree", "free_names", "parse", "render",
    ),
    "extract": ("extract_expr",),
    "nominal": (
        "Chronicle", "Letter", "Name", "name", "placeholder", "transpose",
    ),
}
_HOME = {attr: module for module, attrs in _EXPORTS.items() for attr in attrs}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(attr):
    if attr in _HOME:
        value = getattr(importlib.import_module("." + _HOME[attr], __name__), attr)
    elif attr in _EXPORTS:
        value = importlib.import_module("." + attr, __name__)
    else:
        raise AttributeError("module %r has no attribute %r" % (__name__, attr))
    globals()[attr] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME) | set(_EXPORTS))
