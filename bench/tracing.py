"""Outside-in tracing of polyreglab's layers.

The tracer times calls into each module's public functions by replacing
them, at every module attribute bound to them, with wrappers that record
self time (a span's duration minus the time its child spans cover) and
counts.  Nothing under ``src/`` is edited, and ``uninstall`` puts every
original binding back.  Spans are summed per layer metric as they close
instead of being kept one by one, so a traced run holds no more memory
than an untraced one.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# Bindings that a from-import creates outside the defining module.  A
# wrapper installed only in the defining module would miss the calls made
# through them, so ``install`` fails unless each of these was replaced.
REQUIRED_SITES = (
    ("polyreglab.langlab", "apply"),
    ("polyreglab.langlab", "eval_interp"),
    ("polyreglab.psi", "eval_interp"),
    ("polyreglab.interp", "FormulaEvaluator"),
)

TIME_METRICS = (
    "logic.prepare_s",
    "interp.domain_s",
    "interp.order_s",
    "interp.assembly_s",
    "twoway.run_s",
    "pebble.apply_self_s",
    "langlab.enumerate_self_s",
    "langlab.sample_io_s",
    "langlab.dcomplete_self_s",
    "langlab.growth_self_s",
    "psi.lift_s",
)

COUNT_METRICS = (
    "logic.prepare_calls",
    "logic.queries",
    "interp.domain_queries",
    "interp.order_queries",
    "interp.evals",
    "interp.out_letters",
    "twoway.runs",
    "twoway.out_letters",
    "pebble.calls_d0",
    "pebble.calls_d1",
    "pebble.calls_d2",
    "pebble.arg_letters",
    "langlab.fn_calls",
)


class Tracer:
    def __init__(self) -> None:
        self._stack: list[list[float]] = []
        self._sites: list[tuple[object, str, object]] = []
        self._pebble_depth = 0
        self.reset()

    def reset(self) -> None:
        """Start a fresh profile."""
        self.times: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.queries = 0

    def profile(self) -> dict[str, float]:
        """Every layer metric of the current profile: times in seconds,
        counts, and ``langlab.distinct_ratio`` (distinct image outputs per
        enumerated input, 0 when nothing was enumerated)."""
        counts = dict(self.counts, **{"logic.queries": self.queries})
        out = {name: self.times.get(name, 0.0) for name in TIME_METRICS}
        out.update({name: counts.get(name, 0) for name in COUNT_METRICS})
        inputs = counts.get("enumerate.inputs", 0)
        out["langlab.distinct_ratio"] = counts.get("enumerate.outputs", 0) / inputs if inputs else 0.0
        return out

    # -- wrappers --------------------------------------------------------------

    def span(self, key: str, fn, after=None):
        """Wrap ``fn`` so its self time is added to ``times[key]``; ``after``
        receives the arguments and the result to update counts."""
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                self.times[key] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counting(self, key: str, fn):
        """Count calls to ``fn``, a callable handed to a langlab function."""

        def wrapper(*args):
            self.counts[key] += 1
            return fn(*args)

        return wrapper

    def _queries_into(self, key: str, fn):
        """Add the formula queries made during ``fn`` to ``counts[key]``."""

        def wrapper(*args, **kwargs):
            before = self.queries
            try:
                return fn(*args, **kwargs)
            finally:
                self.counts[key] += self.queries - before

        return wrapper

    # -- installation ----------------------------------------------------------

    def _bind(self, orig, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "polyreglab" or name.startswith("polyreglab.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self._sites.append((module, attr, orig))
                    setattr(module, attr, replacement)

    def install(self, P) -> None:
        """Wrap the layer entry points of the program ``P`` (a namespace of
        its modules) at every binding site."""
        if self._sites:
            raise RuntimeError("tracer already installed")
        tracer = self

        # logic: FormulaEvaluator as interp uses it.
        base = P.logic.FormulaEvaluator
        base_at = base.at

        def prepared(args, result):
            tracer.counts["logic.prepare_calls"] += 1

        class TracedFormulaEvaluator(base):
            __init__ = self.span("logic.prepare_s", base.__init__, prepared)

            def at(self, values):
                tracer.queries += 1
                return base_at(self, values)

        self._bind(base, TracedFormulaEvaluator)

        # interp: domain pass, order check, and the assembly around them.
        interp = P.interp
        domain = self._queries_into("interp.domain_queries", interp.compute_domain)
        self._bind(interp.compute_domain, self.span("interp.domain_s", domain))
        order = self._queries_into("interp.order_queries", interp.check_linear_order)
        self._bind(interp.check_linear_order, self.span("interp.order_s", order))

        def evaluated(args, result):
            tracer.counts["interp.evals"] += 1
            tracer.counts["interp.out_letters"] += len(result.output)

        details = self.span("interp.assembly_s", interp.eval_interp_details, evaluated)
        self._bind(interp.eval_interp_details, details)
        self._bind(interp.eval_interp, self.span("interp.assembly_s", interp.eval_interp))

        # twoway: transducer runs.
        def ran(args, result):
            tracer.counts["twoway.runs"] += 1
            tracer.counts["twoway.out_letters"] += len(result)

        self._bind(P.twoway.run, self.span("twoway.run_s", P.twoway.run, ran))

        # pebble: recursive application, counted by depth (d2 is depth >= 2).
        apply_span = self.span("pebble.apply_self_s", P.pebble.apply)

        def apply_traced(p, w):
            depth = tracer._pebble_depth
            tracer.counts[f"pebble.calls_d{min(depth, 2)}"] += 1
            if depth:
                tracer.counts["pebble.arg_letters"] += len(w)
            tracer._pebble_depth = depth + 1
            try:
                return apply_span(p, w)
            finally:
                tracer._pebble_depth = depth

        self._bind(P.pebble.apply, apply_traced)

        # langlab: image enumeration, d-completeness and growth each count calls
        # of the function they are handed.
        langlab = P.langlab

        def enumerated(args, result):
            tracer.counts["enumerate.outputs"] += len(result.outputs)

        enumerate_span = self.span("langlab.enumerate_self_s", langlab.enumerate_image, enumerated)

        def enumerate_traced(fn, *args, **kwargs):
            counted = self._counting("langlab.fn_calls", self._counting("enumerate.inputs", fn))
            return enumerate_span(counted, *args, **kwargs)

        self._bind(langlab.enumerate_image, enumerate_traced)

        dcomplete_span = self.span("langlab.dcomplete_self_s", langlab.check_dcomplete)

        def dcomplete_traced(prime, base, markers, fprime=None, club=None):
            if fprime is not None:
                fprime = self._counting("langlab.fn_calls", fprime)
            return dcomplete_span(prime, base, markers, fprime=fprime, club=club)

        self._bind(langlab.check_dcomplete, dcomplete_traced)

        growth_span = self.span("langlab.growth_self_s", langlab.growth_degree)

        def growth_traced(fn, *args, **kwargs):
            return growth_span(self._counting("langlab.fn_calls", fn), *args, **kwargs)

        self._bind(langlab.growth_degree, growth_traced)

        sample = langlab.LanguageSample
        render, parse = vars(sample)["render"], vars(sample)["parse"]
        self._sites += [(sample, "render", render), (sample, "parse", parse)]
        sample.render = self.span("langlab.sample_io_s", render)
        sample.parse = staticmethod(self.span("langlab.sample_io_s", parse.__func__))

        # psi: the marker lift; family applies it through the same binding.
        self._bind(P.psi.psi, self.span("psi.lift_s", P.psi.psi))

        replaced = {(module.__name__, attr) for module, attr, _ in self._sites}
        missing = [site for site in REQUIRED_SITES if site not in replaced]
        if missing:
            self.uninstall()
            raise RuntimeError(f"no trace wrapper at {missing}")

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._sites):
            setattr(module, attr, orig)
        self._sites.clear()
