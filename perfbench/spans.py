"""Span recording from outside the program.

`Tracer.install` replaces chosen public functions of the `qmds` modules by
wrappers that open a span on entry and close it on exit.  A name is patched
in every loaded `qmds` module that holds the same function object, so
`from .linalg import min_weight` in `qmds.qstab` is traced as well as
`qmds.linalg.min_weight`.  Generator functions get one span per chunk they
yield, since their work happens while the consumer advances them.

Spans stay in memory as [function id, parent span, start ns, end ns] and
are written out by `dump` when the run ends.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# Public functions wrapped per module.  Per-element helpers (gf.conjugate,
# gf.norm, linalg.hermitian_inner, ...) and plain arithmetic
# (kernels.projective_count, kernels.level_gate) are left out: a wrapper
# costs more than they do, and none of them is a layer boundary.
TARGETS = {
    "gf": ("build_field", "embed", "poly_from_roots"),
    "ccodes": ("mds_spec", "build_code", "bch_ht_bound"),
    "linalg": (
        "linear_code", "code_from_parity", "dual", "is_subcode",
        "words_supported_in", "subfield_subcode", "mds_verify", "min_weight",
        "min_weight_relative",
    ),
    "kernels": (
        "gf_matmul", "rref", "null_space", "batch_rank", "iter_projective_words",
        "iter_sampled_words", "probe_support", "scan_level",
    ),
    "pcode": (
        "puncture_direct", "puncture_spectral", "weight_present", "weight_spectrum",
        "respects_product_pairing", "rescale_self_orthogonal",
    ),
    "qstab": (
        "stabilizer_from_self_orthogonal", "family_q2plus1", "char2_q2plus2",
        "run_pipeline",
    ),
}

LAYERS = ("gf", "ccodes", "linalg", "kernels", "pcode", "qstab", "cli")

# Functions whose own self time is a metric.  Every workload calls each of
# them, so none of these times reads 0 on every run of a workload.  The
# other wrapped functions report calls and counters, their time shows in
# their layer's self_s, and the raw results keep every function's self time.
TIMED = (
    "gf.build_field", "ccodes.build_code", "linalg.linear_code", "linalg.min_weight",
    "kernels.rref", "kernels.null_space", "kernels.batch_rank",
    "pcode.puncture_spectral", "qstab.stabilizer_from_self_orthogonal",
)

LEVEL_ROUTES = ("enumerated", "scanned", "sampled", "unknown")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.spans: list[list[int]] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _open(self, fid: int) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([fid, parent, time.perf_counter_ns(), 0])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter_ns()
        self.stack.pop()

    def parent_name(self) -> str | None:
        """Name of the function whose span encloses the current one."""
        if len(self.stack) < 2:
            return None
        return self.names[self.spans[self.stack[-2]][0]]

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- wrapping ----------------------------------------------------------

    def _register(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        return len(self.names) - 1

    def wrap(self, name: str, fn, on_result=None):
        """Traced stand-in for fn.  on_result(tracer, args, kwargs, result)
        runs inside the span, so it can still see the enclosing span; for a
        generator it runs once per yielded chunk."""
        fid = self._register(name)
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                tracer.calls[fid] += 1
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        idx = tracer._open(fid)
                        try:
                            item = next(inner)
                            if on_result is not None:
                                on_result(tracer, args, kwargs, item)
                        except StopIteration:
                            return
                        finally:
                            tracer._close(idx)
                        yield item
                finally:
                    inner.close()

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[fid] += 1
            idx = tracer._open(fid)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(tracer, args, kwargs, result)
            finally:
                tracer._close(idx)
            return result

        return traced

    def patch(self, modules, owner, attr: str, name: str, on_result=None) -> None:
        """Replace owner.attr by its traced form in every module of `modules`
        that holds the same object."""
        original = getattr(owner, attr)
        traced = self.wrap(name, original, on_result)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, key, original))
                    setattr(mod, key, traced)

    def install(self) -> None:
        """Wrap TARGETS and `cli.main` of the imported qmds package."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "qmds" or key.startswith("qmds."))
        ]
        for short, attrs in TARGETS.items():
            owner = sys.modules[f"qmds.{short}"]
            for attr in attrs:
                self.patch(modules, owner, attr, f"{short}.{attr}", HOOKS.get(attr))
        self.patch(modules, sys.modules["qmds.cli"], "main", "cli.main")

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self seconds per function id."""
        child = [0] * len(self.spans)
        for fid, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = [0] * len(self.names)
        for i, (fid, _, t0, t1) in enumerate(self.spans):
            out[fid] += (t1 - t0) - child[i]
        return [ns / 1e9 for ns in out]

    def function_self_times(self) -> dict[str, float]:
        """Self seconds of every wrapped function, by name."""
        return dict(zip(self.names, self.self_times()))

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics: self time per layer and per function of TIMED,
        calls per wrapped function, and the counters the hooks collected
        with the rates built from them."""
        selfs = self.function_self_times()
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                v for name, v in selfs.items() if name.startswith(layer + ".")
            )
        for name in TIMED:
            out[f"{name}.self_s"] = selfs[name]
        for fid, name in enumerate(self.names):
            if name != "cli.main":
                out[f"{name}.calls"] = self.calls[fid]
        c = self.counts
        out["kernels.batch_rank.matrices"] = c.get("batch_rank.matrices", 0)
        out["kernels.batch_rank.matrices_per_s"] = _rate(
            c.get("batch_rank.matrices", 0), selfs["kernels.batch_rank"]
        )
        out["kernels.scan_level.supports"] = c.get("scan_level.supports", 0)
        out["kernels.scan_level.prefilter_pass"] = _rate(
            c.get("scan_level.rank_deficient", 0), c.get("scan_level.ranked", 0)
        )
        for gen in ("iter_projective_words", "iter_sampled_words"):
            words = c.get(f"{gen}.words", 0)
            out[f"kernels.{gen}.words"] = words
            out[f"kernels.{gen}.words_per_s"] = _rate(words, selfs[f"kernels.{gen}"])
        for route in LEVEL_ROUTES:
            out[f"pcode.levels_{route}"] = c.get(f"levels.{route}", 0)
        out["traced.spans"] = len(self.spans)
        return out

    def dump(self, path: str) -> None:
        """Write every span as one JSON line: name, parent span, start and
        end in ns."""
        with open(path, "w") as handle:
            for fid, parent, t0, t1 in self.spans:
                handle.write(
                    json.dumps({"name": self.names[fid], "parent": parent, "t0": t0, "t1": t1})
                    + "\n"
                )


def _rate(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- counters taken at the layer boundaries ----------------------------------


def _on_batch_rank(tracer, args, kwargs, ranks) -> None:
    mats = args[1] if len(args) > 1 else kwargs["mats"]
    tracer.count("batch_rank.matrices", int(mats.shape[0]))
    if tracer.parent_name() == "kernels.scan_level":
        # scan_level ranks (r x w) parity columns; rank < w lets a support through
        tracer.count("scan_level.ranked", int(mats.shape[0]))
        tracer.count("scan_level.rank_deficient", int((ranks < mats.shape[2]).sum()))


def _on_scan_level(tracer, args, kwargs, outcome) -> None:
    tracer.count("scan_level.supports", int(outcome.supports_scanned))


def _on_projective_chunk(tracer, args, kwargs, words) -> None:
    tracer.count("iter_projective_words.words", int(words.shape[0]))


def _on_sampled_chunk(tracer, args, kwargs, item) -> None:
    tracer.count("iter_sampled_words.words", int(item[1].shape[0]))


def level_route(result, pc) -> str:
    """Which route decided a PresenceResult, read from its effort.

    A cached answer ({"cache": True}) is credited to the pass that filled
    the cache: the enumeration when the PunctureCode holds exact counts,
    else the shared sampling pass for a witness, else an earlier scan.
    """
    effort = result.effort
    if result.verdict == "UnknownWithinBudget":
        return "unknown"
    if "enumerated" in effort:
        return "enumerated"
    if "samples" in effort:
        return "sampled"
    if "supports_scanned" in effort:
        return "scanned"
    if effort.get("cache"):
        if pc.exact_counts is not None:
            return "enumerated"
        if result.verdict == "FoundWitness" and pc.sampled:
            return "sampled"
        return "scanned"
    return "enumerated"  # the zero code: its one word is known


def _on_weight_present(tracer, args, kwargs, result) -> None:
    pc = args[0] if args else kwargs["pc"]
    tracer.count(f"levels.{level_route(result, pc)}")


HOOKS = {
    "batch_rank": _on_batch_rank,
    "scan_level": _on_scan_level,
    "iter_projective_words": _on_projective_chunk,
    "iter_sampled_words": _on_sampled_chunk,
    "weight_present": _on_weight_present,
}
