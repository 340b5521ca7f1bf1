"""cantorint: expansions in non-integer bases and dimensions of Cantor set
self-intersections.

The library computes digit expansions over {-1,0,1} (and general
consecutive-integer alphabets), decides uniqueness of expansions
lexicographically, and evaluates Hausdorff dimensions of intersections
Gamma_alpha intersect (Gamma_alpha + t) through digit frequencies, expansion
automata with certified Perron eigenvalues, and an independent box-counting
estimator.

The names below resolve on access (PEP 562): ``cantorint.BaseSystem``
imports ``cantorint.expansions`` the first time it is asked for, and each
access reads the name from its module, so the package keeps no second
binding of it.  Importing the package loads none of its modules.
"""

from importlib import import_module

_EXPORTS = {
    "exactnum": """AlgebraicReal CantorintError Comparison QAlphaContext
        QAlphaElement EnclosedReal compare decimal_string format_real
        parse_real""",
    "words": """TERNARY Alphabet EPSeq FiniteWord FreqReport LazySeq Lex
        format_seq lex_compare parse_seq reflect strongly_eventually_periodic
        substitute_alphabet zero_density zero_density_prefix""",
    "thuemorse": """alpha_kl_enclosure alpha_kl_real dw find_smallest_sft_n
        lambda_prefix lambda_seq sft_blocks tau_prefix w_word""",
    "expansions": """BaseSystem ExpansionAutomaton GammaStatus UniqStatus
        build_expansion_automaton delta delta_seq forbidden_zero_run
        golden_threshold greedy_expansion is_unique_expansion
        quasi_greedy_expansion seq_value try_ep_form""",
    "dimension": """BoxCountReport CountMatrix DimensionValue DSetDescription
        DSetKind IntersectionGraph LiouvilleWitness PerronInfo
        SelfSimilarResult SelfSimilarStatus box_count_oracle
        build_intersection_graph d_set dense_selfsimilar_targets dense_words
        dim_from_frequency freq_upper_bound_over_expansions full_dimension
        liouville_witness perron_dimension self_similar_check""",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names.split()}
__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
