"""Per-layer tracing of ncstar, installed from outside the package.

A `Tracer` replaces the names that `ncstar.verifier` and `ncstar.cli` bind
(and the `repmodels` entry points that `verifier` reaches through its module
attribute) with wrappers that record a span per call and count the work each
layer does.  Scalar arithmetic is counted, never timed: a span per
`GaussianRational` operation would cost more than the operation.

Spans stay in memory as tuples (name, layer, start, end, parent, task) and
are written out by the caller when the run ends.  `remove()` puts every
original back; `assert_clean()` proves that nothing is left installed.
"""

from __future__ import annotations

import functools
import os
import time
import weakref
from collections import Counter

from ncstar import cli, ncalg, repmodels, verifier
from ncstar.scalars import GaussianRational

LAYERS = ("presentations", "span", "hom", "reduce", "membership", "scalars",
          "repmodels", "verifier", "cli")

_BUILDERS = ("unitary_qg_presentation", "sphere_presentation",
             "orthogonal_qg_presentation", "tuple_space_presentation")

# (module or class, attribute, layer)
_TARGETS = (
    [(verifier, name, "presentations") for name in _BUILDERS + ("is_regular", "regularize", "validate_pair")]
    + [(cli, name, "presentations") for name in ("enumerate_pairs", "is_regular", "load_pair",
                                                  "pair_from_json_dict", "regularize")]
    + [(verifier, "build_quotient_basis", "span"),
       (verifier, "apply_tensor_hom", "hom"),
       (verifier, "is_zero_tensor", "reduce"),
       (verifier, "ideal_membership_bounded", "membership")]
    + [(repmodels, name, "repmodels") for name in (
        "model_residuals", "check_independence", "evaluate", "probe_pair_model",
        "noninjectivity_sphere_model", "torus_model", "free_unitary_model", "o2plus_model")]
    + [(verifier, name, "verifier") for name in (
        "verify_comultiplication", "verify_sphere_action", "verify_tuple_action",
        "verify_noninjectivity_example", "verify_independence_suite",
        "verify_regularization_consistency")]
    + [(cli, "main", "cli"), (cli, "_emit", "cli"),
       (verifier.VerificationReport, "to_json_dict", "cli")]
)

_SCALAR_OPS = (("__mul__", "scalars.mul_calls"), ("__add__", "scalars.add_calls"),
               ("__truediv__", "scalars.div_calls"))

_NAMES = [(o, n) for o, n, _ in _TARGETS] + [(GaussianRational, op) for op, _ in _SCALAR_OPS]
# Taken when this module is first imported, before any tracer exists.
_ORIGINALS = {(id(o), n): getattr(o, n) for o, n in _NAMES}


def assert_clean() -> None:
    """Raise unless every traced name is bound to its original object."""
    for owner, name in _NAMES:
        if getattr(owner, name) is not _ORIGINALS[(id(owner), name)]:
            raise RuntimeError(f"tracing wrapper still installed on {owner.__name__}.{name}")
    if verifier.apply_tensor_hom is not ncalg.apply_tensor_hom:
        raise RuntimeError("ncstar.verifier.apply_tensor_hom is not ncalg.apply_tensor_hom")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.task = None
        self._stack: list = []
        self._saved: list = []
        self._scalar = [0, 0, 0]
        self._words = weakref.WeakKeyDictionary()

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        assert_clean()
        try:
            for owner, name, layer in _TARGETS:
                self._patch(owner, name, self._wrap(getattr(owner, name), name, layer))
            for k, (op, _) in enumerate(_SCALAR_OPS):
                self._patch(GaussianRational, op, self._count_scalar(getattr(GaussianRational, op), k))
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)
        for k, (_, metric) in enumerate(_SCALAR_OPS):
            self.counts[metric] += self._scalar[k]
            self._scalar[k] = 0

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def _patch(self, owner, name, value):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _count_scalar(self, fn, k):
        cell = self._scalar

        @functools.wraps(fn)
        def counted(a, b):
            cell[k] += 1
            return fn(a, b)
        return counted

    def _wrap(self, fn, name, layer):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        after = getattr(self, f"_after_{layer}", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[f"{layer}.errors"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, layer, start, end, parent, self.task)
            self.counts[f"{layer}.calls"] += 1
            if after is not None:
                after(name, args, result)
            return result
        return traced

    # -- per-layer counters, taken where the work happens ----------------

    def _after_presentations(self, name, args, result):
        if name in _BUILDERS:
            self.counts["presentations.relations"] += len(result.all_relations())

    def _after_span(self, name, args, basis):
        d = basis.descriptor()
        for key in ("rank", "relation_rows", "monomials"):
            self.counts[f"span.{key}"] += d[key]

    def _after_hom(self, name, args, tensor):
        self.counts["hom.terms_in"] += len(args[0].terms)
        self.counts["hom.tensor_terms"] += len(tensor.terms)

    def _after_reduce(self, name, args, cert):
        tensor, left, right = args[:3]
        self.counts["reduce.word_queries"] += 2 * len(tensor.terms)
        for basis, leg in ((left, 0), (right, 1)):
            seen = self._words.get(basis)
            if seen is None:
                seen = self._words[basis] = set()
            before = len(seen)
            seen.update(key[leg] for key in tensor.terms)
            self.counts["reduce.distinct_words"] += len(seen) - before

    def _after_membership(self, name, args, cert):
        if cert.status == ncalg.PROVED_ZERO:
            self.counts["membership.proved"] += 1

    def _after_repmodels(self, name, args, result):
        if name == "model_residuals":
            self.counts["repmodels.residual_checks"] += len(result.per_relation)

    def _after_cli(self, name, args, result):
        if name == "_emit":
            config = args[0]
            if config.output and os.path.exists(config.output):
                self.counts["cli.report_bytes"] += os.path.getsize(config.output)

    # -- summaries -------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Busy time per layer (outermost spans only), verifier self time, and counters."""
        busy = Counter()
        child = Counter()
        serialize = 0.0
        for name, layer, start, end, parent, _ in self.spans:
            duration = end - start
            if parent >= 0:
                child[parent] += duration
            if not self._nested_in_layer(parent, layer):
                busy[layer] += duration
            if name in ("_emit", "to_json_dict"):
                serialize += duration
        verifier_self = sum(end - start - child[i]
                            for i, (_, layer, start, end, _, _) in enumerate(self.spans)
                            if layer == "verifier")
        c = self.counts
        out = {}
        for layer in ("presentations", "span", "hom", "reduce", "membership", "repmodels"):
            out[f"{layer}.calls"] = c[f"{layer}.calls"]
            out[f"{layer}.busy_s"] = busy[layer]
        out["presentations.relations"] = c["presentations.relations"]
        for key in ("rank", "relation_rows", "monomials"):
            out[f"span.{key}"] = c[f"span.{key}"]
        out["hom.terms_in"] = c["hom.terms_in"]
        out["hom.tensor_terms"] = c["hom.tensor_terms"]
        queries = c["reduce.word_queries"]
        out["reduce.word_queries"] = queries
        out["reduce.residue_hit_ratio"] = 1 - c["reduce.distinct_words"] / queries if queries else 0.0
        calls = c["membership.calls"]
        out["membership.proved_ratio"] = c["membership.proved"] / calls if calls else 0.0
        for _, metric in _SCALAR_OPS:
            out[metric] = c[metric]
        out["repmodels.residual_checks"] = c["repmodels.residual_checks"]
        out["cli.serialize_s"] = serialize
        out["cli.report_bytes"] = c["cli.report_bytes"]
        out["verifier.calls"] = c["verifier.calls"]
        out["verifier.self_s"] = verifier_self
        for layer in LAYERS:
            out[f"{layer}.errors"] = c[f"{layer}.errors"]
        return out

    def _nested_in_layer(self, parent, layer) -> bool:
        while parent >= 0:
            span = self.spans[parent]
            if span[1] == layer:
                return True
            parent = span[4]
        return False
