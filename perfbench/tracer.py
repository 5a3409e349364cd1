"""Outside-in tracer for the ``mouldcalc`` package.

Nothing in ``mouldcalc`` knows about it.  On entry, ``Tracer`` replaces the
listed functions and methods with timing wrappers:

* a module-level function is rebound in every ``mouldcalc`` module that
  holds it by name (``rf_sum`` is imported by value into ``moulds``,
  ``flexions`` and ``solutions``), in the ``verify.CLAIMS`` table, and in
  function defaults that hold it (``verify_psi_odd_theorem`` defaults its
  ``psi_components`` to ``psi_odd``);
* a method is replaced on its class (``RationalFunction.make`` stays a
  ``staticmethod``);
* an ``lru_cache`` function keeps ``cache_info``/``cache_clear`` on its
  wrapper;
* a function that returns an operator (``adari(S)``, ``arit(N)``,
  ``garit(T)``) has the returned closure wrapped too, so the work done when
  it is applied is timed under the same name.

Each wrapper keeps a stack of open calls, so a call's self time is its
duration minus the time of the wrapped calls inside it; a layer's self time
is the sum over the calls of its module.  Inclusive time is kept per name
and per group (a group such as ``flexions.solvers`` spans several
functions) and counts only the outermost open call, so recursion is not
double counted.  Kernel functions get aggregate counters only; entry points
above the kernel also record spans (name, start, end, parent).  Every
binding is restored on exit.
"""

from __future__ import annotations

import bisect
import functools
import sys
import time
from collections import Counter, defaultdict

# layers whose calls are entry points and record spans; kernel calls
# (hundreds of thousands per job) only feed the aggregate counters
SPAN_LAYERS = {"special", "solutions", "verify", "cli", "symmetry"}
SPAN_LIMIT = 20000  # per job, so the span list stays small

# (layer, attribute path, extra inclusive groups)
TARGETS = [
    ("algebra", "Polynomial.__mul__", ()),
    ("algebra", "Polynomial.__add__", ()),
    ("algebra", "Polynomial.compose", ()),
    ("algebra", "Polynomial.try_div_linear", ()),
    ("algebra", "Polynomial.shift", ()),
    ("algebra", "RationalFunction.make", ()),
    ("algebra", "RationalFunction.__add__", ()),
    ("algebra", "RationalFunction.__mul__", ()),
    ("algebra", "RationalFunction.substitute", ()),
    ("algebra", "RationalFunction.shift", ()),
    ("algebra", "RationalFunction.div_linear", ()),
    ("algebra", "rf_sum", ()),
    ("moulds", "Mould.eval_word", ()),
    ("moulds", "Mould.eval_combination", ()),
    ("moulds", "shuffle", ()),
    ("moulds", "mu", ()),
    ("moulds", "lu", ()),
    ("moulds", "mu_inverse", ()),
    ("moulds", "mu_exp", ()),
    ("moulds", "mu_log", ()),
    ("moulds", "neg", ()),
    ("moulds", "sharp", ()),
    ("moulds", "dur_scale", ()),
    ("moulds", "dur_unscale", ()),
    ("moulds", "leng", ()),
    ("moulds", "mould_to_json", ()),
    ("moulds", "mould_from_json", ()),
    ("flexions", "LazyMould.eval_word", ()),
    ("flexions", "mu_at", ()),
    ("flexions", "arit_at", ()),
    ("flexions", "preari_at", ()),
    ("flexions", "garit_at", ()),
    ("flexions", "arit", ()),
    ("flexions", "preari", ()),
    ("flexions", "preari_n", ()),
    ("flexions", "ari", ()),
    ("flexions", "garit", ()),
    ("flexions", "gari", ()),
    ("flexions", "expari", ()),
    ("flexions", "logari", ("flexions.solvers",)),
    ("flexions", "invgari", ("flexions.solvers",)),
    ("flexions", "adari", ("flexions.solvers",)),
    ("symmetry", "_shuffle_sum", ()),
    ("symmetry", "is_alternal", ("symmetry",)),
    ("symmetry", "is_symmetral", ("symmetry",)),
    ("symmetry", "is_alternal_via_sh", ("symmetry",)),
    ("symmetry", "is_symmetral_via_sh", ("symmetry",)),
    ("symmetry", "sh_map", ()),
    ("symmetry", "dimould_mu", ()),
    ("symmetry", "tensor", ()),
    ("special", "bernoulli", ()),
    ("special", "sa", ()),
    ("special", "paj", ()),
    ("special", "mupaj", ()),
    ("special", "dupal", ()),
    ("special", "pal", ()),
    ("special", "s_prime", ()),
    ("special", "sang", ()),
    ("special", "sang_expanded", ("special.sang",)),
    ("special", "slang", ()),
    ("special", "slang_split", ("special.slang",)),
    ("solutions", "psi_odd", ("solutions.psi_build",)),
    ("solutions", "psi_minus1", ("solutions.psi_build",)),
    ("solutions", "psi_odd_mould", ("solutions.psi_build",)),
    ("solutions", "psi_minus1_mould", ("solutions.psi_build",)),
    ("solutions", "xi", ("solutions.ari_family",)),
    ("solutions", "xi_prime", ("solutions.ari_family",)),
    ("solutions", "sigma_c", ("solutions.ari_family",)),
    ("solutions", "luma", ("solutions.ari_family",)),
    ("solutions", "D_ab", ("solutions.ari_family",)),
    ("solutions", "verify_psi_odd_theorem", ()),
    ("solutions", "verify_psi_minus1_theorem", ()),
    ("solutions", "verify_comparison_theorem", ()),
    ("generic", "SymbolRegistry.symbol", ()),
    ("generic", "OpaqueMould.eval_word", ()),
    ("verify", "run_claim", ()),
    ("verify", "expansion_checks", ()),
    ("verify", "generic_expansion_checks", ()),
    ("verify", "random_expansion_checks", ()),
    ("verify", "claim_psi_odd", ()),
    ("verify", "claim_psi_minus1", ()),
    ("verify", "claim_comparison", ()),
    ("verify", "claim_pal_symmetral", ()),
    ("verify", "claim_dupal_alternal", ()),
    ("verify", "claim_sang_expansion", ()),
    ("verify", "claim_examples_section1", ()),
    ("cli", "main", ()),
    ("cli", "build_target", ()),
    ("cli", "render_mould", ("cli.render",)),
]
# functions whose result is an operator that does the work when applied
RETURNS_OPERATOR = {"arit", "garit", "adari"}
# lru_cache constructors whose hit ratio is reported for the special layer
SPECIAL_CACHES = ("paj", "mupaj", "dupal", "pal")


def _max_pair_sum(a_lens, b_lens):
    """sum over pairs (a, b) of max(a, b): the exponent entries
    ``monomial_mul`` reads or copies for every term product."""
    b_sorted = sorted(b_lens)
    prefix = [0]
    for b in b_sorted:
        prefix.append(prefix[-1] + b)
    total = 0
    n = len(b_sorted)
    for a in a_lens:
        k = bisect.bisect_right(b_sorted, a)  # b <= a contribute a
        total += a * k + (prefix[n] - prefix[k])
    return total


class Tracer:
    """Context manager that traces the ``mouldcalc`` modules already imported."""

    def __init__(self):
        self.calls = Counter()
        self.counts = Counter()
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.spans = []
        self._frames = [[0.0]]  # child-time accumulators; [0] is the root
        self._span_stack = [None]
        self._open = Counter()
        self._undo = []
        self._t0 = 0.0
        self._cache0 = {}

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name, layer, groups, pre=None, post=None):
        frames, clock, open_ = self._frames, time.perf_counter, self._open
        calls, self_s, incl_s = self.calls, self.self_s, self.incl_s
        keys = (name,) + tuple(groups)
        spans = self.spans if layer in SPAN_LAYERS or "flexions.solvers" in groups else None
        span_stack = self._span_stack
        tracer = self

        def wrapper(*args, **kwargs):
            if pre is not None:
                h0 = clock()
                pre(args)
                hook_dt = clock() - h0
                frames[-1][0] += hook_dt  # counted as the tracer's own time
                self_s["trace"] += hook_dt
            frame = [0.0]
            frames.append(frame)
            for k in keys:
                open_[k] += 1
            span_id = None
            if spans is not None and len(spans) < SPAN_LIMIT:
                span_id = len(spans)
                spans.append([span_id, span_stack[-1], name, 0.0, 0.0])
                span_stack.append(span_id)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                frames.pop()
                frames[-1][0] += dt
                self_s[layer] += dt - frame[0]
                calls[name] += 1
                for k in keys:
                    open_[k] -= 1
                    if not open_[k]:
                        incl_s[k] += dt
                if span_id is not None:
                    span_stack.pop()
                    spans[span_id][3] = t0 - tracer._t0
                    spans[span_id][4] = t1 - tracer._t0
            if post is not None:
                result = post(result)
            return result

        functools.update_wrapper(wrapper, fn)
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def _hooks(self, name, layer):
        """Counters recorded at a boundary, as (pre(args), post(result))."""
        counts = self.counts
        short = name.split(".", 1)[1]
        if short == "Polynomial.__mul__":
            def pre(args):
                a, b = args
                if type(b) is int:
                    return
                counts["mul.term_products"] += len(a.terms) * len(b.terms)
                counts["mul.exponent_entries"] += _max_pair_sum(
                    [len(m) for m in a.terms], [len(m) for m in b.terms]
                )
            return pre, None
        if short == "Polynomial.compose":
            def post(result):
                counts["compose.out_terms"] += len(result.terms)
                return result
            return None, post
        if short == "Polynomial.try_div_linear":
            def post(result):
                if result is None:
                    counts["div.failed"] += 1
                return result
            return None, post
        if short == "RationalFunction.make":
            def post(result):
                n = len(result.numerator.terms)
                if n > counts["peak_num_terms"]:
                    counts["peak_num_terms"] = n
                return result
            return None, post
        if short == "Mould.eval_word":
            def pre(args):
                if args[1] and args[1] in args[0]._eval_cache:
                    counts["moulds.eval_word.hits"] += 1
            return pre, None
        if short == "LazyMould.eval_word":
            def pre(args):
                if args[1] in args[0]._memo:
                    counts["flexions.lazy_eval.hits"] += 1
            return pre, None
        if short == "SymbolRegistry.symbol":
            def pre(args):
                if (args[1], args[2]) not in args[0]._vars:
                    counts["generic.symbols"] += 1
            return pre, None
        if short == "shuffle":
            def post(result):
                counts["symmetry.shuffle_words"] += len(result)
                return result
            return None, post
        if short in RETURNS_OPERATOR:
            def post(op):
                return self._wrap(op, name + ".apply", layer, ("flexions.solvers",) if short == "adari" else ())
            return None, post
        return None, None

    def _set(self, holder, attr, value):
        if isinstance(holder, dict):
            self._undo.append((holder, attr, holder[attr]))
            holder[attr] = value
        else:
            self._undo.append((holder, attr, holder.__dict__[attr]))
            setattr(holder, attr, value)

    def _install(self):
        mods = {k: m for k, m in sys.modules.items() if k == "mouldcalc" or k.startswith("mouldcalc.")}
        with_defaults = [
            value
            for mod in mods.values()
            for value in vars(mod).values()
            if getattr(value, "__module__", None) == mod.__name__
            and getattr(value, "__defaults__", None)
        ]
        replaced = {}  # id(original) -> (original, wrapper)
        for layer, path, groups in TARGETS:
            module = mods["mouldcalc." + layer]
            name = f"{layer}.{path}"
            pre, post = self._hooks(name, layer)
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    self._set(cls, meth, staticmethod(self._wrap(raw.__func__, name, layer, groups, pre, post)))
                else:
                    self._set(cls, meth, self._wrap(raw, name, layer, groups, pre, post))
                continue
            original = getattr(module, path)
            fn = original
            if path == "rf_sum":
                fn = self._counting_rf_sum(original)
            wrapper = self._wrap(fn, name, layer, groups, pre, post)
            replaced[id(original)] = (original, wrapper)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper)
        claims = mods["mouldcalc.verify"].CLAIMS
        for key, value in list(claims.items()):
            if id(value) in replaced:
                self._set(claims, key, replaced[id(value)][1])

        def traced(d):
            original, wrapper = replaced.get(id(d), (None, None))
            return wrapper if original is d and wrapper is not None else d

        for fn in with_defaults:
            defaults = fn.__defaults__
            new = tuple(traced(d) for d in defaults)
            if new != defaults:
                self._undo.append((fn, "__defaults__", defaults))
                fn.__defaults__ = new

    def _counting_rf_sum(self, original):
        counts = self.counts

        def rf_sum(items):
            items = list(items)
            counts["rf_sum.items"] += len(items)
            return original(items)

        return rf_sum

    def _cache_totals(self):
        special = sys.modules["mouldcalc.special"]
        hits = misses = 0
        for name in SPECIAL_CACHES:
            info = getattr(special, name).cache_info()
            hits += info.hits
            misses += info.misses
        return hits, misses

    def __enter__(self):
        self._cache0 = self._cache_totals()
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        self._t0 = time.perf_counter()
        return self

    def _restore(self):
        for holder, attr, value in reversed(self._undo):
            if isinstance(holder, dict):
                holder[attr] = value
            else:
                setattr(holder, attr, value)
        self._undo.clear()

    def __exit__(self, *exc):
        self.wall_s = time.perf_counter() - self._t0
        self._restore()
        hits, misses = self._cache_totals()
        self.counts["special.cache_hits"] = hits - self._cache0[0]
        self.counts["special.cache_lookups"] = hits + misses - sum(self._cache0)
        return False

    def summary(self) -> dict:
        self_s = dict(self.self_s)
        self_s["job"] = self.wall_s - self._frames[0][0]
        return {
            "wall_s": self.wall_s,
            "self_s": self_s,
            "incl_s": dict(self.incl_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "spans": self.spans,
        }
