"""Spans and counters around ellsw's public functions, installed from outside.

The tracer replaces each target function at every module binding that
refers to it, so a call made through a name bound in the calling module
(``ellsw.cli.sw_dimension_report`` as well as
``ellsw.swindex.sw_dimension_report``) is seen; a target method is replaced
on its class.  Nothing in the package source changes, and `uninstall`
restores every original binding.

Every wrapped call updates, in memory: calls and self time (duration minus
the part covered by wrapped children) per span name, a call
count per (parent name, child name) edge, and per-call durations for the
names listed in `LATENCY_NAMES`.  Spans (id, parent id, root id, name,
start ns, end ns) are kept for `write_spans`, the first `SPANS_PER_DEPTH` at
each call depth, so the few outer calls are not crowded out by millions of
leaf calls; the rest are only counted as dropped.
A span name is ``<module>.<function>``; the leading underscore of `_model`
is dropped because metric names must start with a letter.
"""

from __future__ import annotations

import inspect
import itertools
import json
import sys
import time

# Spans kept for `write_spans` at each call depth.
SPANS_PER_DEPTH = 20_000

# Span names whose per-call durations are kept, for percentiles.
LATENCY_NAMES = ("swindex.sw_dimension_report", "groups.build_group")

# Module-level functions to wrap, per ellsw module.  Every cross-module entry
# point the three workloads reach is listed, so that a module's self time is
# time spent in that module's own code.
FUNCTIONS = {
    "cli": ("main",),
    "swindex": (
        "sw_dimension_report",
        "s_breakdown",
        "_singular_sums",
        "d_E",
        "singular_point_contribution",
        "closed_form_d_E",
        "sum_chi_by_elements",
        "chi",
        "sweep_specs",
    ),
    "rootsum": ("ramanujan_sum",),
    "seifert": ("normalized_invariant", "euler_number"),
    "_model": ("family_model", "su2_table"),
    "groups": (
        "build_group",
        "scalar_subgroup",
        "group_report",
        "eigen_angles",
        "verify_free_action",
        "build_binary_polyhedral",
    ),
    "bundle": (
        "rho",
        "extend_character",
        "section_equivariance_report",
        "verify_section_equivariance",
    ),
    "cyclo": ("root_of_unity", "euler_phi", "factorize", "mobius", "cyclotomic_polynomial"),
}

_MODEL_METHODS = (
    "mult",
    "validate_free_action",
    "eigen_exps",
    "rho_exp_2m",
    "is_scalar",
    "scalar_exp",
    "to_matrix",
    "generators",
    "elements",
)

# (module, class) -> methods to wrap; a property's getter is wrapped.
METHODS = {
    ("rootsum", "RootSum"): (
        "add_scaled",
        "mul",
        "rational_value",
        "inv_one_minus",
        "monomial",
        "galois_permuted",
        "is_galois_stable",
        "to_cyclotomic",
    ),
    ("_model", "DihedralModel"): _MODEL_METHODS + ("reflection_coset",),
    ("_model", "PolyhedralModel"): _MODEL_METHODS + ("nonscalar_cosets", "base_key"),
    ("swindex", "SWDimensionReport"): ("to_dict",),
    ("seifert", "SeifertInvariant"): ("euler_number", "to_dict"),
    ("groups", "GroupSpec"): ("validate", "order", "to_dict"),
    ("groups", "FiniteGroup"): (
        "from_generators",
        "inverse",
        "element_order",
        "is_scalar_key",
        "scalar_keys",
        "conjugacy_classes",
        "commutator_subgroup",
        "abelianization",
    ),
    ("groups", "UnitaryElement"): (
        "__mul__",
        "trace",
        "det",
        "matrix_order",
        "is_identity",
        "is_scalar",
        "__eq__",
        "__hash__",
    ),
    ("bundle", "Character"): ("value", "value_exp"),
    ("bundle", "BivariatePolynomial"): ("mul", "scale", "add", "__eq__"),
    ("cyclo", "CyclotomicNumber"): (
        "__mul__",
        "__rmul__",
        "__add__",
        "__radd__",
        "__sub__",
        "__rsub__",
        "__neg__",
        "__truediv__",
        "__rtruediv__",
        "__pow__",
        "__eq__",
        "__ne__",
        "__hash__",
        "inverse",
        "reduced",
        "conjugate",
        "galois",
        "embed",
        "is_zero",
        "is_one",
        "is_rational",
        "as_rational",
        "multiplicative_order",
        "from_rational",
        "zero",
        "one",
    ),
}


def _count_closure(tracer, group):
    counters = tracer.counters
    counters["groups.closure.elements"] += group.order
    counters["groups.closure.groups"] += 1


COUNTERS = ("groups.closure.elements", "groups.closure.groups")

# Span name -> hook that turns the returned value into counters.
ON_RETURN = {"groups.from_generators": _count_closure}

# Method names are prefixed where a bare name would read as the module's
# own arithmetic, or would clash with a function of the module:
# `groups.matrix_mul` is a 2x2 matrix product, `bundle.poly_mul` a bivariate
# polynomial product, `seifert.invariant_euler_number` the property beside the
# function `seifert.euler_number`.
_CLASS_PREFIX = {
    "UnitaryElement": "matrix_",
    "BivariatePolynomial": "poly_",
    "SeifertInvariant": "invariant_",
}


def _span_name(module: str, attr: str, cls: str | None = None) -> str:
    base = attr.strip("_")
    if cls is not None:
        base = _CLASS_PREFIX.get(cls, "") + base
    return f"{module.lstrip('_')}.{base}"


class Tracer:
    """In-memory spans and counters; see the module docstring."""

    def __init__(self, package):
        self.stack = []
        self.stats = {}  # name -> [calls, self ns]
        self.edges = {}  # (parent name or None, name) -> calls
        self.durations = {name: [] for name in LATENCY_NAMES}
        self.spans = []
        self.kept_per_depth = {}
        self.dropped = [0]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._ids = itertools.count(1)
        self._patches = []  # (owner, attribute, original, replacement)
        self._plan(package)

    # -- installation ----------------------------------------------------

    def _plan(self, package):
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == package.__name__ or name.startswith(package.__name__ + "."))
        ]
        wrapped = {}  # id(original function) -> wrapper, so aliases share one name
        for mod_name, names in FUNCTIONS.items():
            mod = sys.modules[f"{package.__name__}.{mod_name}"]
            for attr in names:
                fn = getattr(mod, attr)
                wrapper = wrapped.get(id(fn))
                if wrapper is None:
                    wrapper = wrapped[id(fn)] = self._wrap(fn, _span_name(mod_name, attr))
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._patches.append((m, key, fn, wrapper))
        for (mod_name, cls_name), names in METHODS.items():
            cls = getattr(sys.modules[f"{package.__name__}.{mod_name}"], cls_name)
            for attr in names:
                raw = cls.__dict__[attr]
                if isinstance(raw, property):
                    fn = raw.fget
                elif isinstance(raw, staticmethod):
                    fn = raw.__func__
                else:
                    fn = raw
                wrapper = wrapped.get(id(fn))
                if wrapper is None:
                    wrapper = wrapped[id(fn)] = self._wrap(fn, _span_name(mod_name, attr, cls_name))
                if isinstance(raw, property):
                    replacement = property(wrapper, raw.fset, raw.fdel, raw.__doc__)
                elif isinstance(raw, staticmethod):
                    replacement = staticmethod(wrapper)
                else:
                    replacement = wrapper
                self._patches.append((cls, attr, raw, replacement))

    def install(self):
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _wrap(self, fn, name):
        if inspect.isgeneratorfunction(fn):
            step = self._wrap(next, name)

            def generator_wrapper(*args, **kwargs):
                # Each resumption is one span, so time spent producing items is
                # charged to the generator's module, not to the consumer.
                it = fn(*args, **kwargs)
                while True:
                    try:
                        item = step(it)
                    except StopIteration:
                        return
                    yield item

            return generator_wrapper

        stat = self.stats.setdefault(name, [0, 0])
        stack = self.stack
        edges = self.edges
        spans = self.spans
        dropped = self.dropped
        cap = SPANS_PER_DEPTH
        kept = self.kept_per_depth
        durations = self.durations.get(name)
        on_return = ON_RETURN.get(name)
        ids = self._ids
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = next(ids)
            # [time covered by children (ns), span id, name, root span id, depth]
            frame = [0, span_id, name, parent[3] if parent else span_id, parent[4] + 1 if parent else 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stat[0] += 1
                stat[1] += dur - frame[0]
                if parent is None:
                    edge = (None, name)
                    parent_id = 0
                else:
                    parent[0] += dur
                    edge = (parent[2], name)
                    parent_id = parent[1]
                edges[edge] = edges.get(edge, 0) + 1
                if durations is not None:
                    durations.append(dur)
                held = kept.get(frame[4], 0)
                if held < cap:
                    kept[frame[4]] = held + 1
                    spans.append((span_id, parent_id, frame[3], name, t0, t1))
                else:
                    dropped[0] += 1
            if on_return is not None:
                on_return(self, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -----------------------------------------------------------

    def calls(self, name) -> int:
        return self.stats[name][0]

    def self_s(self, name) -> float:
        return self.stats[name][1] / 1e9

    def cyclotomic_spans(self):
        """Span names of cyclotomic-field arithmetic: CyclotomicNumber
        methods and root_of_unity, not the integer helpers in `cyclo`.
        (An alias such as __rmul__ shares the span of the method it names.)"""
        names = {_span_name("cyclo", a, "CyclotomicNumber") for a in METHODS[("cyclo", "CyclotomicNumber")]}
        names.add("cyclo.root_of_unity")
        return sorted(name for name in names if name in self.stats)

    def module_self_s(self) -> dict:
        out = {}
        for name, (_, self_ns) in self.stats.items():
            mod = name.split(".", 1)[0]
            out[mod] = out.get(mod, 0.0) + self_ns / 1e9
        return out

    def percentile_us(self, name, q) -> float:
        durations = sorted(self.durations[name])
        if not durations:
            return 0.0
        k = min(len(durations) - 1, int(q * len(durations)))
        return durations[k] / 1e3

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent_id, root_id, name, t0, t1 in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent_id, "root": root_id,
                         "name": name, "start_ns": t0, "end_ns": t1},
                        separators=(",", ":"),
                    )
                    + "\n"
                )
            fh.write(
                json.dumps(
                    {"counters": {**self.counters, "spans_dropped": self.dropped[0]},
                     "edges": [[p, c, n] for (p, c), n in sorted(self.edges.items(), key=str)]},
                    separators=(",", ":"),
                )
                + "\n"
            )
