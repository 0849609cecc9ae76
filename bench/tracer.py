"""Wrapper tracer for the traced benchmark run, and the ``sys.setprofile``
reference that checks it.

``install`` replaces each traced function at every binding inside the
package: the module attribute, every ``from .x import y`` copy, and class
attributes (``MPoly.__mul__`` is also bound as ``__rmul__``).  Wrappers keep a
stack of open frames, so a function's self time is its duration minus the
time of traced calls below it.  Generator functions are timed over every
resumption of their body until exhaustion or close, not at creation.

Calls to the coarse layers are also recorded as spans (name, start, end,
parent span) in memory.  The hot primitives (``MPoly.__mul__``,
``RatFunc.make`` and the like run up to a million times in one op) are
aggregated in place instead: calls, self time and work counts, no span per
call.  ``mon_mul`` and ``fast_linear_div`` are counted without a frame.
"""

from __future__ import annotations

import importlib
import sys
import time

PKG = "quiver_fmo"

# (metric key, module, attribute path, mode).  Modes:
#   span    frame plus a recorded span per call
#   hot     frame, aggregated only
#   gen     generator: frame per resumption, one span per instance, items as terms
#   count   call count only, no frame
#   hits    count plus how many calls returned something other than None
TARGETS = (
    ("cli.main", "cli", "main", "span"),
    ("multipoly.mon_mul", "multipoly", "mon_mul", "count"),
    ("multipoly.fast_linear_div", "multipoly", "fast_linear_div", "hits"),
    ("multipoly.MPoly.mul", "multipoly", "MPoly.__mul__", "hot"),
    ("multipoly.RatFunc.make", "multipoly", "RatFunc.make", "hot"),
    ("multipoly.RatFunc.subs_u", "multipoly", "RatFunc.subs_u", "span"),
    ("multipoly.ratfunc_sum", "multipoly", "ratfunc_sum", "hot"),
    ("multipoly.terms_sum_to_zero", "multipoly", "terms_sum_to_zero", "hot"),
    ("multipoly.factor_denominator", "multipoly", "factor_denominator", "hot"),
    ("multipoly.poly_gcd", "multipoly", "poly_gcd", "span"),
    ("multipoly.poly_text", "multipoly", "poly_text", "hot"),
    ("gklo.fmo_plus_terms", "gklo", "fmo_plus_terms", "gen"),
    ("gklo.fmo_minus_terms", "gklo", "fmo_minus_terms", "gen"),
    ("gklo.chevalley", "gklo", "chevalley", "span"),
    ("gklo.involution_fmo_report", "gklo", "involution_fmo_report", "span"),
    ("gklo.orientation_flip_sign", "gklo", "orientation_flip_sign", "span"),
    ("gklo.d_identity_check", "gklo", "d_identity_check", "span"),
    ("defect_embed.phi_fmo_terms", "defect_embed", "phi_fmo_terms", "gen"),
    ("defect_embed.verify_restriction", "defect_embed", "verify_restriction", "span"),
    ("defect_embed.verify_adding_defect_theorem", "defect_embed",
     "verify_adding_defect_theorem", "span"),
    ("km_embedding.compose_embedding", "km_embedding", "compose_embedding", "span"),
    ("km_embedding.split_and_project", "km_embedding", "split_and_project", "span"),
    ("km_embedding.fourier_step", "km_embedding", "fourier_step", "span"),
    ("km_embedding.forget_matter_step", "km_embedding", "forget_matter_step", "span"),
    ("monopole_hilbert.hilbert_series", "monopole_hilbert", "hilbert_series", "span"),
    ("monopole_hilbert.classify_theory", "monopole_hilbert", "classify_theory", "span"),
    ("monopole_hilbert.dominant_shell", "monopole_hilbert", "dominant_shell", "hot"),
    ("monopole_hilbert.two_delta_general", "monopole_hilbert", "two_delta_general", "hot"),
    ("monopole_hilbert.stabilizer_poincare", "monopole_hilbert", "stabilizer_poincare",
     "hot"),
    ("monopole_hilbert.TruncSeries.mul", "monopole_hilbert", "TruncSeries.__mul__", "hot"),
    ("quiver.check_conicity", "quiver", "check_conicity", "span"),
    ("quiver.check_good", "quiver", "check_good", "span"),
    ("quiver.affine_classify", "quiver", "affine_classify", "span"),
)

# Work counted in ``terms``: the length of the input list, or of the result.
TERMS_OF_INPUT = {"multipoly.ratfunc_sum", "multipoly.terms_sum_to_zero"}
TERMS_OF_RESULT = {"monopole_hilbert.dominant_shell"}
# Recursive: ``top`` counts calls with no frame of the same key open.
RECURSIVE = {"multipoly.poly_gcd"}

CALLS, SELF_S, TERMS, EXTRA, TOP = range(5)

perf = time.perf_counter


def _resolve(module, path):
    obj = importlib.import_module("%s.%s" % (PKG, module))
    owner = None
    for part in path.split("."):
        owner = obj
        obj = owner.__dict__[part] if isinstance(owner, type) else getattr(owner, part)
    return owner, obj


def _function(obj):
    return obj.__func__ if isinstance(obj, staticmethod) else obj


def code_of(obj):
    """The code object that runs when ``obj`` is called (through an lru_cache
    only on a miss)."""
    fn = _function(obj)
    return getattr(fn, "__wrapped__", fn).__code__


class Tracer:
    """Per-process trace state.  Installed in the driver before forking, so
    every op's child starts with empty counters."""

    def __init__(self):
        self.stack = []      # open frames: [key, start, child_seconds, span_id]
        self.stats = {}      # key -> [calls, self_s, terms, extra, top]
        self.spans = []      # [key, start, end, parent_span_id]
        self.originals = {}  # key -> the unwrapped object

    # -- frames -------------------------------------------------------------

    def _open(self, key, record):
        sid = None
        if record:
            parent = None
            for frame in reversed(self.stack):
                if frame[3] is not None:
                    parent = frame[3]
                    break
            sid = len(self.spans)
            self.spans.append([key, perf(), None, parent])
        frame = [key, perf(), 0.0, sid]
        self.stack.append(frame)
        return frame

    def _close(self, frame, st):
        end = perf()
        popped = self.stack.pop()
        if popped is not frame:
            raise RuntimeError("trace stack out of order at %s" % frame[0])
        dur = end - frame[1]
        st[SELF_S] += dur - frame[2]
        if self.stack:
            self.stack[-1][2] += dur
        if frame[3] is not None:
            self.spans[frame[3]][2] = end

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, key, fn, mode):
        st = self.stats.setdefault(key, [0, 0.0, 0, 0, 0])
        tracer = self

        if mode == "count":
            def counted(*args):
                st[CALLS] += 1
                return fn(*args)
            return counted

        if mode == "hits":
            def hit_counted(*args):
                st[CALLS] += 1
                out = fn(*args)
                if out is not None:
                    st[EXTRA] += 1
                return out
            return hit_counted

        if mode == "gen":
            def generator(*args, **kwargs):
                st[CALLS] += 1
                return tracer._drive(key, st, fn(*args, **kwargs))
            return generator

        record = mode == "span"
        terms_in = key in TERMS_OF_INPUT
        terms_out = key in TERMS_OF_RESULT
        recursive = key in RECURSIVE

        def timed(*args, **kwargs):
            st[CALLS] += 1
            if recursive and not any(f[0] == key for f in tracer.stack):
                st[TOP] += 1
            frame = tracer._open(key, record)
            try:
                if terms_in:
                    args = (list(args[0]),) + args[1:]
                    st[TERMS] += len(args[0])
                out = fn(*args, **kwargs)
            finally:
                tracer._close(frame, st)
            if terms_out:
                st[TERMS] += len(out)
            return out
        return timed

    def _drive(self, key, st, gen):
        """Iterate ``gen`` with a frame around each resumption; EXTRA counts
        resumptions, including the one a close before exhaustion makes."""
        sid = None
        try:
            while True:
                frame = self._open(key, sid is None)
                if sid is None:
                    sid = frame[3]
                else:
                    frame[3] = sid
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    st[EXTRA] += 1
                    self._close(frame, st)
                st[TERMS] += 1
                yield item
        finally:
            if gen.gi_frame is not None:  # suspended: closing resumes the body once
                frame = self._open(key, False)
                frame[3] = sid
                try:
                    gen.close()
                finally:
                    st[EXTRA] += 1
                    self._close(frame, st)

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every target at every binding in the loaded package modules."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == PKG or name.startswith(PKG + ".")]
        for key, module, path, mode in TARGETS:
            owner, obj = _resolve(module, path)
            self.originals[key] = obj
            fn = _function(obj)
            wrapper = self._wrap(key, fn, mode)
            bound = 0
            if isinstance(owner, type):
                for name, value in list(owner.__dict__.items()):
                    if value is obj:
                        setattr(owner, name, staticmethod(wrapper)
                                if isinstance(obj, staticmethod) else wrapper)
                        bound += 1
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is obj:
                        setattr(mod, name, wrapper)
                        bound += 1
            if not bound:
                raise RuntimeError("no binding found for %s" % key)

    def snapshot(self) -> dict:
        return {"stats": self.stats, "spans": self.spans}


class ProfileReference:
    """Counts calls of the traced code objects with ``sys.setprofile``: the
    reference the wrapper counts must equal.  For a generator a ``call``
    event is one resumption of its body, and each new frame one instance."""

    def __init__(self, tracer: Tracer):
        self.keys = {code_of(obj): key for key, obj in tracer.originals.items()}
        self.generators = {key for key, _, _, mode in TARGETS if mode == "gen"}
        self.calls = {}
        self.frames = {}  # generator key -> {id: frame}, kept alive so ids stay unique

    def hook(self, frame, event, arg):
        if event == "call":
            key = self.keys.get(frame.f_code)
            if key is not None:
                self.calls[key] = self.calls.get(key, 0) + 1
                if key in self.generators:
                    self.frames.setdefault(key, {})[id(frame)] = frame

    def snapshot(self) -> dict:
        return {"calls": self.calls,
                "instances": {key: len(frames) for key, frames in self.frames.items()}}
