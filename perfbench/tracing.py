"""Spans and counters around the public functions of each cyclojones module.

Only the traced run installs these wrappers; an untraced run executes the
library untouched.  A span is recorded around every wrapped call, and a
span's self time is its duration minus the time covered by the wrapped
calls made inside it.  Functions are patched in every module namespace
that holds them (``bracket`` imports its own ``jones_wnk``, ``cli`` its own
``print_poly``), and methods on the classes themselves.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# span name -> (module, attribute names).  Methods are given as
# "Class.method"; a name the library no longer has is skipped, and its
# metrics then read 0.
SPANS = {
    "laurent.add": ("laurent", ["LaurentPoly.__add__", "LaurentPoly.__radd__"]),
    "laurent.shift": ("laurent", ["LaurentPoly.shift"]),
    "laurent.mul": ("laurent", ["LaurentPoly.__mul__", "LaurentPoly.__rmul__"]),
    "laurent.divide": ("laurent", ["LaurentPoly.divide_exact"]),
    "laurent.residue": (
        "laurent",
        [
            "LaurentPoly.evaluate_residue",
            "ResidueElement.from_coeffs",
            "ResidueElement.from_int",
            "ResidueElement.__add__",
            "ResidueElement.__neg__",
            "ResidueElement.__sub__",
            "ResidueElement.__mul__",
            "ResidueElement.__pow__",
            "ResidueElement.__eq__",
        ],
    ),
    "laurent.format": (
        "laurent",
        ["print_poly", "parse_poly", "poly_to_json", "poly_from_json"],
    ),
    "cyclotomic.phi": ("cyclotomic", ["phi"]),
    "cyclotomic.phi_tilde": ("cyclotomic", ["phi_tilde"]),
    "cyclotomic.is_cyclo": ("cyclotomic", ["is_cyclotomic_product"]),
    "cyclotomic.mahler": ("cyclotomic", ["mahler_measure"]),
    "wnk.jones": ("wnk", ["jones_wnk"]),
    "wnk.classify": ("wnk", ["classify_symmetry"]),
    "wnk.mersenne": ("wnk", ["mersenne_knot"]),
    "bracket.levels": ("bracket", ["bracket_levels"]),
    "bracket.s_sum": ("bracket", ["s_sum"]),
    "bracket.base": ("bracket", ["bracket_wnk_base"]),
    "bracket.convert": ("bracket", ["bracket_to_jones", "jones_to_bracket"]),
    "obstructions.special": ("obstructions", ["special_value_check"]),
    "obstructions.open_q": (
        "obstructions",
        ["open_question_candidates", "realized_orders"],
    ),
    "cli": ("cli", ["main"]),
}

# counter name -> (module, attribute) of a foreign function to count calls of
CALL_COUNTERS = {
    "cyclotomic.factorint_calls": ("cyclotomic", "factorint"),
    "obstructions.factorint_calls": ("obstructions", "factorint"),
}

# metric name -> (module, attribute) of an lru_cache whose misses are read
CACHE_MISSES = {
    "cyclotomic.phi_misses": ("cyclotomic", "phi"),
    "cyclotomic.totient_misses": ("cyclotomic", "euler_totient"),
}

# Exact counts: these must repeat from one traced run to the next.
COUNTS = [
    "laurent.add_calls",
    "laurent.shift_calls",
    "laurent.mul_calls",
    "laurent.divide_calls",
    "laurent.divide_failed",
    "laurent.max_terms",
    "cyclotomic.phi_misses",
    "cyclotomic.totient_misses",
    "cyclotomic.factorint_calls",
    "cyclotomic.trial_divisions",
    "cyclotomic.useful_divisions",
    "wnk.jones_calls",
    "bracket.level_cells",
    "bracket.s_sum_calls",
    "obstructions.special_calls",
    "obstructions.factorint_calls",
    "cli.calls",
]

SELF_TIMES = [
    "laurent.add_self_s",
    "laurent.shift_self_s",
    "laurent.mul_self_s",
    "laurent.divide_self_s",
    "laurent.residue_self_s",
    "laurent.format_self_s",
    "cyclotomic.phi_self_s",
    "cyclotomic.phi_tilde_self_s",
    "cyclotomic.is_cyclo_self_s",
    "cyclotomic.mahler_self_s",
    "wnk.jones_self_s",
    "wnk.classify_self_s",
    "wnk.mersenne_self_s",
    "bracket.levels_self_s",
    "bracket.s_sum_self_s",
    "bracket.base_self_s",
    "bracket.convert_self_s",
    "obstructions.special_self_s",
    "obstructions.open_q_self_s",
    "cli.self_s",
]


def _module(short: str):
    return sys.modules.get(f"cyclojones.{short}")


def library_modules() -> list:
    """The package and every loaded cyclojones submodule."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "cyclojones" or name.startswith("cyclojones."))]


def library_caches() -> list:
    """Every functools cache defined in a cyclojones module."""
    seen = {}
    for mod in library_modules():
        for value in vars(mod).values():
            if (callable(getattr(value, "cache_clear", None))
                    and getattr(value, "__module__", "").startswith("cyclojones")):
                seen[id(value)] = value
    return list(seen.values())


class Tracer:
    """Wraps library functions with spans; totals accumulate until read."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.scale = 1.0  # host normalization applied to self times
        # each frame is [span name, time covered by child spans]
        self._stack: list[list] = [["root", 0.0]]
        self._originals: list[tuple[object, str, object]] = []
        self._caches = {}
        for metric, (short, attr) in CACHE_MISSES.items():
            fn = getattr(_module(short), attr, None)
            if callable(getattr(fn, "cache_info", None)):
                self._caches[metric] = fn

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        from cyclojones.laurent import LaurentPoly

        self._laurent_type = LaurentPoly
        for span, (short, names) in SPANS.items():
            mod = _module(short)
            if mod is None:
                continue
            for name in names:
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(mod, cls_name, None)
                    if cls is not None and meth in vars(cls):
                        self._patch_method(cls, meth, span)
                elif callable(getattr(mod, name, None)):
                    self._patch_everywhere(getattr(mod, name), self._span(span, getattr(mod, name)))
        for metric, (short, attr) in CALL_COUNTERS.items():
            mod = _module(short)
            fn = getattr(mod, attr, None)
            if fn is not None:
                self._set(mod, attr, self._counter(metric, fn))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._originals):
            setattr(owner, attr, value)
        self._originals.clear()

    def _set(self, owner, attr: str, value) -> None:
        self._originals.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, wrapper) -> None:
        for mod in library_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _patch_method(self, cls, meth: str, span: str) -> None:
        raw = vars(cls)[meth]
        if isinstance(raw, classmethod):
            self._set(cls, meth, classmethod(self._span(span, raw.__func__)))
        else:
            self._set(cls, meth, self._span(span, raw))

    # -- wrappers --------------------------------------------------------

    def _span(self, name: str, fn):
        stack = self._stack
        calls, self_s, counts = self.calls, self.self_s, self.counts
        laurent = self._laurent_type
        tracer = self
        divide = name == "laurent.divide"
        levels = name == "bracket.levels"

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            failed = True
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                parent[1] += elapsed
                calls[name] += 1
                self_s[name] += (elapsed - frame[1]) * tracer.scale
                if divide:
                    counts["laurent.divide_failed"] += failed
                    if parent[0] == "cyclotomic.is_cyclo":
                        counts["cyclotomic.trial_divisions"] += 1
                        counts["cyclotomic.useful_divisions"] += not failed
                if not failed:
                    if type(out) is laurent and len(out) > counts["laurent.max_terms"]:
                        counts["laurent.max_terms"] = len(out)
                    if levels:  # a list of BracketLevel, each a dict of values
                        counts["bracket.level_cells"] += sum(
                            len(getattr(lv, "values", ())) for lv in out)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, metric: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- reading ---------------------------------------------------------

    def before_cache_clear(self) -> None:
        """Bank the misses of the watched caches before they are emptied."""
        for metric, fn in self._caches.items():
            self.counts[metric] += fn.cache_info().misses

    def metrics(self, rounds: int) -> dict[str, float]:
        """Counts and host-normalized self times per round of the workload."""
        totals = dict(self.counts)
        for span, n in self.calls.items():
            totals[f"{span}_calls" if span != "cli" else "cli.calls"] = n
        out = {}
        for name in COUNTS:
            value = totals.get(name, 0)
            if name == "laurent.max_terms":
                out[name] = value
            else:
                out[name] = value // rounds if value % rounds == 0 else value / rounds
        for name in SELF_TIMES:
            span = name[: -len("self_s") - 1]
            out[name] = self.self_s.get(span, 0.0) / rounds
        return out
