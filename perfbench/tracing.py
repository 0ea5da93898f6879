"""Spans and counts recorded from outside bfl, by wrapping its public names.

bfl modules import names from each other directly, so a wrapper replaces the
original at every import site: each loaded `bfl` module whose attribute is
the original function gets the wrapper.  Methods are wrapped on their class.

A span is [name, start, end, parent index]; spans stay in memory and the
pass writes them out when it ends.  Self time is a span's duration minus the
durations of its direct children (calls are synchronous, so children never
overlap).  Kernel products and `Chain.sift` are hot enough that a span per
call would distort every time, so they are counted only, and only in the
counting pass.
"""

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

ROOT = "pass"


class Recorder:
    """Span stack, span list and counters of one pass process."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self._patches = []  # (owner, attr, original) for uninstall

    def active(self, name):
        return any(self.spans[i][0] == name for i in self.stack)

    def wrap(self, name, fn, hook=None):
        """fn wrapped in a span; hook(recorder, result) adds counts."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, result)
            return result

        return wrapper

    def root(self):
        """Context manager for the span that covers a pass's operation list."""
        return _RootSpan(self)

    def patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()


class _RootSpan:
    def __init__(self, rec):
        self.rec = rec

    def __enter__(self):
        self.span = [ROOT, 0.0, 0.0, -1]
        self.rec.stack.append(len(self.rec.spans))
        self.rec.spans.append(self.span)
        self.span[1] = time.perf_counter()
        return self.span

    def __exit__(self, *exc):
        self.span[2] = time.perf_counter()
        self.rec.stack.pop()
        return False


# ---- what gets wrapped -------------------------------------------------------

def _add(key, value_of):
    def hook(rec, result):
        rec.counts[key] += value_of(result)
    return hook


def _verdict_counts(rec, result):
    rec.counts["verify.pairs"] += result.counters.get("pairs", 0)
    rec.counts["verify.closures"] += result.counters.get("closures", 0)


def _order_hook(rec, result):
    if rec.active("catalog.construct"):
        rec.counts["catalog.candidate_chains"] += 1
        rec.counts["catalog.open_candidates"] += 1


def _construct_hook(rec, G):
    """Final generators of constructs that tried candidate chains, for the
    accept ratio; constructs are never nested, so the open count is theirs."""
    if rec.counts.pop("catalog.open_candidates", 0):
        rec.counts["catalog.final_generators"] += len(G.gens)


# (span name, module, function name, hook)
FUNCTIONS = [
    ("cli.main", "bfl.cli", "main", None),
    ("catalog.construct", "bfl.catalog", "construct", _construct_hook),
    ("genfile.parse", "bfl.genfile", "parse_generator_file", None),
    ("groups.action", "bfl.groups", "matrix_action",
     _add("groups.action_points", lambda r: r.degree)),
    ("groups.closure", "bfl.groups", "closure_enumerate",
     _add("groups.elements_enumerated", len)),
    ("classes.enumerate", "bfl.classes", "enumerate_classes",
     _add("classes.classes_found", len)),
    ("verify.scan", "bfl.verify", "bf_pair_direct", _verdict_counts),
    ("verify.scan", "bfl.verify", "symmetric_bf_scan", None),
    ("verify.scan", "bfl.verify", "reflections_o3_scan", None),
    ("verify.scan", "bfl.verify", "sl2n3_scan", None),
    ("chartab.load", "bfl.chartab", "load_table", None),
    ("chartab.mult", "bfl.chartab", "class_mult_count", None),
    ("charcompute.build_table", "bfl.charcompute", "build_table", None),
    ("wreath.iso", "bfl.wreath", "iso_to_wreath", None),
    ("wreath.detect", "bfl.wreath", "wreath_section_detect", None),
    ("modrep.check", "bfl.modrep", "lemma21_check", None),
    ("modrep.check", "bfl.modrep", "cor22_check", None),
    ("report.emit", "bfl.report", "emit_report", None),
]

# (span name, module, class, method, hook)
METHODS = [
    ("groups.chain", "bfl.groups", "Chain", "build", None),
    ("groups.order", "bfl.groups", "Group", "order", _order_hook),
    ("groups.random", "bfl.groups", "Group", "random_element", None),
    ("smallgroup.class_partition", "bfl.smallgroup", "SmallGroup",
     "class_partition", None),
]

# (count key, module, class, method): counted in the counting pass only
KERNELS = [
    ("elements.matmul_calls", "bfl.elements", "SquareMatrix", "__mul__"),
    ("elements.matinv_calls", "bfl.elements", "SquareMatrix", "__invert__"),
    ("elements.permmul_calls", "bfl.elements", "Permutation", "__mul__"),
    ("groups.sifts", "bfl.groups", "Chain", "sift"),
]


def _bfl_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "bfl" or name.startswith("bfl."))]


def _patch_everywhere(rec, module, attr, wrapper):
    orig = getattr(sys.modules[module], attr)
    for m in _bfl_modules():
        if m.__dict__.get(attr) is orig:
            rec.patch(m, attr, wrapper)


def _pair_group_class(rec, Group):
    """Group subclass for bfl.verify: times each two-generator closure order."""
    order = rec.wrap("groups.pair_closure", Group.order)

    class PairGroup(Group):
        def order(self):
            if len(self.gens) == 2:
                return order(self)
            return Group.order(self)

    PairGroup.__name__ = PairGroup.__qualname__ = "Group"
    return PairGroup


def install(rec, count_kernels=False):
    """Wrap every layer boundary; with count_kernels also count products."""
    for name, module, attr, hook in FUNCTIONS:
        fn = getattr(importlib.import_module(module), attr)
        _patch_everywhere(rec, module, attr, rec.wrap(name, fn, hook))
    for name, module, cls_name, attr, hook in METHODS:
        cls = getattr(sys.modules[module], cls_name)
        rec.patch(cls, attr, rec.wrap(name, cls.__dict__[attr], hook))
    sg = sys.modules["bfl.smallgroup"].SmallGroup
    gen = sg.__dict__["generate"].__func__
    rec.patch(sg, "generate", classmethod(rec.wrap(
        "smallgroup.generate", gen,
        _add("smallgroup.generate_elements", lambda S: S.order))))
    verify = sys.modules["bfl.verify"]
    rec.patch(verify, "Group", _pair_group_class(rec, verify.Group))
    if count_kernels:
        for key, module, cls_name, attr in KERNELS:
            cls = getattr(sys.modules[module], cls_name)
            rec.patch(cls, attr, _counted(rec.counts, key, cls.__dict__[attr]))


def _counted(counts, key, fn):
    @functools.wraps(fn)
    def wrapper(*args):
        counts[key] += 1
        return fn(*args)
    return wrapper


# ---- reading spans ------------------------------------------------------------

def self_times(spans):
    """Total self time and call count per span name."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = defaultdict(float)
    calls = Counter()
    for i, (name, start, end, parent) in enumerate(spans):
        totals[name] += (end - start) - child[i]
        calls[name] += 1
    return dict(totals), dict(calls)


def durations(spans, name):
    return [end - start for n, start, end, _ in spans if n == name]
