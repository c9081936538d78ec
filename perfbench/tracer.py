"""Span and counter wrappers around chainlab's entry points, installed from outside src/.

``Tracer.install()`` replaces each entry point on every ``chainlab`` module
attribute (and class attribute) that holds it, so callers that imported the
function by name (``chainlab.homology.smith_normal_form``) are traced too.
``uninstall()`` puts the originals back.  Spans (name, start, end, parent)
are kept in flat arrays in memory and written out only when the run ends.

A span's self time is its duration minus the durations of its direct child
spans.  Counters are taken at the same wrappers, by hooks that run after a
span closes; a hook's time is taken out of the enclosing span's self time
too, so the tracer's own counting shows only in ``trace.overhead_frac``.
An entry point that does not exist (removed by a later change) is skipped,
and its metrics are absent from the result rather than reported as zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

ROOT = -1  # parent id of top-level spans: the measured phase itself

# Smith normal form self time is split by matrix size rows*cols.
SNF_BUCKETS = ((1_024, "small"), (16_384, "mid"), (None, "large"))


@dataclass(frozen=True)
class Entry:
    name: str    # metric prefix, e.g. "intmat.smith_normal_form"
    module: str  # defining module
    attr: str    # "smith_normal_form" or "IntMatrix.__matmul__"
    span: bool = True  # False: count calls only (hot helpers)
    after: Optional[Callable] = None  # (tracer, span id, args, result) after the span closes


def _rank_mod_p_after(t: "Tracer", sid: int, args, result) -> None:
    m = args[0]
    if m is t.last_d1:  # the d1 of the summary being computed: rank is index - 1 if connected
        t.add("homology.d1_ranks", 1)
        t.add("homology.d1_ranks_known", int(result == m.rows - 1))


def _rank_over_q_after(t: "Tracer", sid: int, args, result) -> None:
    t.add("intmat.rank_over_q.entries", args[0].rows * args[0].cols)
    _rank_mod_p_after(t, sid, args, result)


def _snf_after(t: "Tracer", sid: int, args, result) -> None:
    m = args[0]
    size = m.rows * m.cols
    t.add("intmat.smith_normal_form.entries", size)
    t.add("intmat.smith_normal_form.nnz", sum(1 for row in m.data for v in row if v))
    factors = result.invariant_factors
    t.add("intmat.smith_normal_form.factors", len(factors))
    t.add("intmat.smith_normal_form.unit_factors", sum(1 for f in factors if f == 1))
    bits = max((f.bit_length() for f in factors), default=0)
    t.maximum("intmat.smith_normal_form.max_factor_bits", bits)
    t.tag[sid] = next(i for i, (limit, _) in enumerate(SNF_BUCKETS) if limit is None or size < limit)


def _fox_after(t: "Tracer", sid: int, args, result) -> None:
    t.last_d1 = result[0]


def _summary_after(t: "Tracer", sid: int, args, result) -> None:
    t.levels_seen.add(id(args[1]))


def _todd_coxeter_after(t: "Tracer", sid: int, args, result) -> None:
    t.add("coset.todd_coxeter.cosets", result.index)


def _graph_after(t: "Tracer", sid: int, args, result) -> None:
    t.add("qnormal.build_coset_graph.vertices", len(result.vertices))
    t.add("qnormal.build_coset_graph.edges", len(result.edges))


def _verify_after(t: "Tracer", sid: int, args, result) -> None:
    t.add("qnormal.verify_qnormal.witnesses", len(result.witness_reports))


def _normal_form_after(t: "Tracer", sid: int, args, result) -> None:
    t.add("words.raag_normal_form.letters", len(args[0]))


ENTRIES = (
    Entry("intmat.rank_over_q", "chainlab.intmat", "rank_over_q", after=_rank_over_q_after),
    Entry("intmat.rank_mod_p", "chainlab.intmat", "rank_mod_p", after=_rank_mod_p_after),
    Entry("intmat.smith_normal_form", "chainlab.intmat", "smith_normal_form", after=_snf_after),
    Entry("intmat.matmul", "chainlab.intmat", "IntMatrix.__matmul__"),
    Entry("homology.fox_boundary_matrices", "chainlab.homology", "fox_boundary_matrices",
          after=_fox_after),
    Entry("homology.homology_summary", "chainlab.homology", "homology_summary",
          after=_summary_after),
    Entry("coset.todd_coxeter", "chainlab.coset", "todd_coxeter", after=_todd_coxeter_after),
    Entry("coset.word_permutation", "chainlab.coset", "CosetTable.word_permutation"),
    Entry("coset.farber_prefix_check", "chainlab.coset", "farber_prefix_check"),
    Entry("words.raag_normal_form", "chainlab.words", "raag_normal_form", after=_normal_form_after),
    Entry("words.check_word", "chainlab.words", "Presentation.check_word", span=False),
    Entry("words.word", "chainlab.words", "word", span=False),
    Entry("words.presentation_init", "chainlab.words", "Presentation.__post_init__", span=False),
    Entry("contexts.equal", "chainlab.contexts", "RaagContext.equal"),
    Entry("contexts.equal", "chainlab.contexts", "QuotientBatteryContext.equal"),
    Entry("contexts.infinite_order_certificate", "chainlab.contexts", "infinite_order_certificate"),
    Entry("qnormal.verify_chain", "chainlab.qnormal", "verify_chain"),
    Entry("qnormal.verify_qnormal", "chainlab.qnormal", "verify_qnormal", after=_verify_after),
    Entry("qnormal.build_coset_graph", "chainlab.qnormal", "build_coset_graph", after=_graph_after),
    Entry("qnormal.trim_cocompact", "chainlab.qnormal", "trim_cocompact"),
    Entry("qnormal.blow_up", "chainlab.qnormal", "blow_up"),
    Entry("raag.is_inner_amenable_raag", "chainlab.raag", "is_inner_amenable_raag"),
    Entry("raag.chain_commuting_report", "chainlab.raag", "chain_commuting_report"),
    Entry("raag.chain_commuting_sequence", "chainlab.raag", "chain_commuting_sequence"),
    Entry("raag.emit_qnormal_chain", "chainlab.raag", "emit_qnormal_chain"),
    Entry("raag.exact_chain_contexts", "chainlab.raag", "exact_chain_contexts"),
    Entry("rebuilding.validate_rebuilding", "chainlab.rebuilding", "validate_rebuilding"),
    Entry("rebuilding.operator_norm", "chainlab.rebuilding", "operator_norm"),
    Entry("rebuilding.minimal_kappa", "chainlab.rebuilding", "minimal_kappa"),
    Entry("rebuilding.quality_check", "chainlab.rebuilding", "quality_check"),
    Entry("folner.inner_folner_defect", "chainlab.folner", "inner_folner_defect"),
    Entry("cli.main", "chainlab.cli", "main"),
)


def _resolve(module: str, attr: str):
    """(owner, name, original) for an entry point, or None if it no longer exists."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if name not in vars(owner):
        return None
    return owner, name, vars(owner)[name]


class Tracer:
    def __init__(self):
        self.names: list = []  # span name id -> entry name
        self.name_ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.raised = array("b")
        self.tag = array("b")  # per-span bucket (Smith normal form size)
        self.hook_s = array("d")  # per-span time of its after hook, charged to no span
        self.stack = [ROOT]
        self.counters: dict = {}
        self.call_counts: dict = {}  # count-only entries
        self.present: set = set()  # entry names that exist in this tree
        self.levels_seen: set = set()
        self.levels_total = 0
        self.last_d1 = None
        self._installed: list = []
        self.root_start = self.root_end = 0.0

    # ------------------------------------------------------------- counters

    def add(self, name: str, amount) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def maximum(self, name: str, value) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def begin_item(self) -> None:
        """Levels are told apart by table identity, which is only stable within one item."""
        self.levels_total += len(self.levels_seen)
        self.levels_seen = set()
        self.last_d1 = None

    # ------------------------------------------------------------- wrappers

    def _span_wrapper(self, entry: Entry, fn):
        if entry.name not in self.name_ids:
            self.name_ids[entry.name] = len(self.names)
            self.names.append(entry.name)
        nid = self.name_ids[entry.name]
        after = entry.after
        t = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = t.stack
            sid = len(t.span_name)
            t.span_name.append(nid)
            t.span_parent.append(stack[-1])
            t.span_start.append(0.0)
            t.span_end.append(0.0)
            t.raised.append(1)
            t.tag.append(0)
            t.hook_s.append(0.0)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                t.span_start[sid] = start
                t.span_end[sid] = end
            t.raised[sid] = 0
            if after is not None:
                after(t, sid, args, result)
                t.hook_s[sid] = perf_counter() - end
            return result

        return wrapper

    def _count_wrapper(self, entry: Entry, fn):
        counts = self.call_counts
        counts.setdefault(entry.name, 0)
        name = entry.name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        found_entries = [(entry, _resolve(entry.module, entry.attr)) for entry in ENTRIES]
        chainlab_modules = [m for n, m in list(sys.modules.items())
                            if m is not None and (n == "chainlab" or n.startswith("chainlab."))]
        for entry, found in found_entries:
            if found is None:
                continue
            owner, name, original = found
            self.present.add(entry.name)
            wrapper = (self._span_wrapper if entry.span else self._count_wrapper)(entry, original)
            if isinstance(owner, type):  # a method: callers look it up on the class
                self._installed.append((owner, name, original))
                setattr(owner, name, wrapper)
                continue
            for mod in chainlab_modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._installed.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    # ------------------------------------------------------------- results

    def start_root(self) -> None:
        self.root_start = perf_counter()

    def end_root(self) -> None:
        self.root_end = perf_counter()
        self.begin_item()

    def self_times(self) -> tuple:
        """(per-span self time list, root self time).

        A child costs its parent its duration plus its after hook.
        """
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        own = dur[:]
        root_self = self.root_end - self.root_start
        for i in range(n):
            parent = self.span_parent[i]
            if parent == ROOT:
                root_self -= dur[i] + self.hook_s[i]
            else:
                own[parent] -= dur[i] + self.hook_s[i]
        return own, root_self

    def metrics(self) -> dict:
        """Per-layer metrics of this pass: name -> value.  Absent entry points are left out."""
        own, root_self = self.self_times()
        wall = self.root_end - self.root_start
        calls: dict = {}
        self_s: dict = {}
        total_s: dict = {}
        raised_calls: dict = {}
        raised_s: dict = {}
        snf_bucket_s = [0.0] * len(SNF_BUCKETS)
        for i in range(len(self.span_name)):
            name = self.names[self.span_name[i]]
            dur = self.span_end[i] - self.span_start[i]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own[i]
            total_s[name] = total_s.get(name, 0.0) + dur
            if self.raised[i]:
                raised_calls[name] = raised_calls.get(name, 0) + 1
                raised_s[name] = raised_s.get(name, 0.0) + dur
            if name == "intmat.smith_normal_form":
                snf_bucket_s[self.tag[i]] += own[i]
        c = self.counters
        out: dict = {}

        def put(entry_name: str, metric: str, value) -> None:
            if entry_name in self.present:
                out[metric] = value

        for name in sorted(self.present):
            if name in self.call_counts:
                put(name, f"{name}.calls", self.call_counts[name])
            else:
                put(name, f"{name}.calls", calls.get(name, 0))
                put(name, f"{name}.self_s", self_s.get(name, 0.0))

        def ratio(a, b) -> float:
            return a / b if b else 0.0

        put("intmat.rank_over_q", "intmat.rank_over_q.entries", c.get("intmat.rank_over_q.entries", 0))
        snf = "intmat.smith_normal_form"
        for key in ("entries", "nnz", "max_factor_bits"):
            put(snf, f"{snf}.{key}", c.get(f"{snf}.{key}", 0))
        put(snf, f"{snf}.unit_factor_frac",
            ratio(c.get(f"{snf}.unit_factors", 0), c.get(f"{snf}.factors", 0)))
        for (_, label), seconds in zip(SNF_BUCKETS, snf_bucket_s):
            put(snf, f"{snf}.self_s.{label}", seconds)
        put("intmat.rank_over_q", "homology.d1_rank_known_frac",
            ratio(c.get("homology.d1_ranks_known", 0), c.get("homology.d1_ranks", 0)))
        put("homology.homology_summary", "homology.summaries_per_level",
            ratio(calls.get("homology.homology_summary", 0), self.levels_total))
        tc = "coset.todd_coxeter"
        put(tc, f"{tc}.cosets", c.get(f"{tc}.cosets", 0))
        put(tc, f"{tc}.cosets_per_s", ratio(c.get(f"{tc}.cosets", 0),
                                            total_s.get(tc, 0.0) - raised_s.get(tc, 0.0)))
        put(tc, f"{tc}.budget_exceeded", raised_calls.get(tc, 0))
        put(tc, f"{tc}.wasted_s", raised_s.get(tc, 0.0))
        put("words.raag_normal_form", "words.raag_normal_form.letters",
            c.get("words.raag_normal_form.letters", 0))
        vq = "qnormal.verify_qnormal"
        put(vq, "qnormal.witness_checks_per_s",
            ratio(c.get(f"{vq}.witnesses", 0), total_s.get(vq, 0.0)))
        for key in ("vertices", "edges"):
            put("qnormal.build_coset_graph", f"qnormal.build_coset_graph.{key}",
                c.get(f"qnormal.build_coset_graph.{key}", 0))
        put("cli.main", "cli.self_s", self_s.get("cli.main", 0.0))
        out["trace.unattributed_frac"] = ratio(root_self, wall)
        return out

    def write_spans(self, path) -> None:
        """One JSON line per span: name, start, end, parent (-1 for the measured phase)."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.span_end)):
                fh.write(json.dumps([self.names[self.span_name[i]],
                                     round(self.span_start[i] - self.root_start, 9),
                                     round(self.span_end[i] - self.root_start, 9),
                                     self.span_parent[i]]) + "\n")


def median_metrics(passes: list) -> dict:
    """Median of each metric over traced passes (counts repeat exactly, so theirs is exact)."""
    names = set().union(*passes) if passes else set()
    return {name: statistics.median(p[name] for p in passes if name in p) for name in sorted(names)}
