"""Executable models of string-to-string functions of polynomial growth:
first-order interpretations over finite words, two-way transducers with
origin tracking, pebble/blind combinator trees, the marker lift with its
d-completeness tooling, and output-language analysis utilities."""

from .interp import (
    Interpretation,
    InterpDiagnostic,
    InterpError,
    InterpResult,
    builtin_interp,
    builtin_interpretations,
    check_linear_order,
    compute_domain,
    eval_interp,
    eval_interp_details,
    parse_interp,
    render_interp,
)
from .langlab import (
    BudgetError,
    DCompleteReport,
    GrowthEstimate,
    LanguageSample,
    PumpDecomposition,
    PumpReport,
    check_dcomplete,
    enumerate_image,
    growth_degree,
    pump_report,
    pump_search,
    resolve_function,
    words_upto,
)
from .logic import (
    FormulaEvaluator,
    FormulaPlan,
    LogicError,
    RowSpace,
    SortReport,
    check_sortable,
    eval_formula,
    parse_formula,
    relativize,
)
from .pebble import (
    Blind,
    Pebble,
    Pebble0,
    PebbleDepth,
    PebbleError,
    PolyFun,
    Reg,
    apply,
    apply_trace,
    builtin_polyfun,
    builtin_polyfuns,
    depth,
    innsq_direct,
    max_growth_constant,
    parse_polyfun,
    render_polyfun,
)
from .psi import (
    DecoratedInput,
    MarkerScheme,
    PsiError,
    dcomplete_witness,
    enumerate_decorated,
    family,
    family_markers,
    fprime_oracle,
    fresh_scheme,
    psi,
)
from .twoway import (
    EmitOnEndmarkerError,
    NonTerminationError,
    RegularFn,
    TransducerError,
    TwoWayTransducer,
    builtin_regular_fn,
    builtin_regular_fns,
    parse_transducer,
    render_transducer,
    run,
)
from .words import Alphabet, OriginWord, Word, WordError, erase

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
