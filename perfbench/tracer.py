"""In-memory spans around the calls into llgvm's modules.

The program is not edited. Each public function is wrapped at every site
that binds it: every module-level name in the ``llgvm`` package that refers
to the function object is rebound to the wrapper, so callers that did
``from .kinetic import deposit`` are traced as well as the home module.
Methods are wrapped on their class. FFTs are wrapped at the numpy.fft and
scipy.fft boundary, both as module attributes and wherever llgvm bound them.

A span is ``[name, start, end, parent, amount, flag]``; ``amount`` holds the
bytes an FFT moved, the particles a push moved or the bytes a snapshot wrote,
and ``flag`` marks an FFT whose input was all zeros. A call into a layer made
while the same layer is already open (``mollify`` calling
``Mollifier.apply_values``) is not a new span.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from time import perf_counter

import numpy as np

# (span name, module, attribute): functions whose bindings are wrapped
FUNCTIONS = (
    ("config.parse", "llgvm.config", "parse_config"),
    ("textures.make_texture", "llgvm.textures", "make_texture"),
    ("kinetic.sample_initial", "llgvm.kinetic", "sample_initial"),
    ("kinetic.lorentz_push", "llgvm.kinetic", "lorentz_push"),
    ("kinetic.deposit", "llgvm.kinetic", "deposit"),
    ("maxwell.init_compatible", "llgvm.maxwell", "init_compatible"),
    ("maxwell.step_fields", "llgvm.maxwell", "step_fields"),
    ("maxwell.gauss_residual", "llgvm.maxwell", "gauss_residual"),
    ("maxwell.div_b_norm", "llgvm.maxwell", "div_b_norm"),
    ("maxwell.avg_to_nodes", "llgvm.maxwell", "avg_E_to_nodes"),
    ("maxwell.avg_to_nodes", "llgvm.maxwell", "avg_B_to_nodes"),
    ("smoothing.mollify", "llgvm.smoothing", "mollify"),
    ("magnetization.step", "llgvm.magnetization", "step"),
    ("magnetization.energy", "llgvm.magnetization", "energy"),
    ("emergent.compute_b", "llgvm.emergent", "compute_b"),
    ("emergent.compute_e", "llgvm.emergent", "compute_e"),
    ("topology.hopf_invariant", "llgvm.topology", "hopf_invariant"),
    ("topology.skyrmion_number", "llgvm.topology", "skyrmion_number"),
    ("coupler.advance", "llgvm.coupler", "advance"),
    ("coupler.total_force_fields", "llgvm.coupler", "total_force_fields"),
    ("coupler.energy_audit", "llgvm.coupler", "energy_audit"),
    ("runner.ledger_row", "llgvm.runner", "ledger_row"),
    ("snapshots.write", "llgvm.snapshots", "write_snapshot"),
)

# (span name, module, class, attribute): methods wrapped on their class
METHODS = (
    ("smoothing.mollify", "llgvm.smoothing", "Mollifier", "apply_values"),
    ("smoothing.build", "llgvm.smoothing", "Mollifier", "build"),
    # the initial ensemble of a run without particles
    ("kinetic.sample_initial", "llgvm.kinetic", "ParticleEnsemble", "empty"),
)

FFT_MODULES = ("numpy.fft", "scipy.fft")
FFT_NAMES = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)


def _llgvm_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "llgvm" or n.startswith("llgvm.")]


class Patches:
    """Rebinding of names, undone in reverse order by restore()."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value):
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def rebind(self, original, replacement, modules):
        """Point every module-level name bound to ``original`` at ``replacement``."""
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, name, replacement)

    def restore(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class StepClock:
    """Start time of every coupler.advance call; installed in traced and untraced runs."""

    def __init__(self):
        self.starts = []

    def install(self, patches: Patches):
        original = importlib.import_module("llgvm.coupler").advance
        starts = self.starts

        @functools.wraps(original)
        def clocked(*args, **kwargs):
            starts.append(perf_counter())
            return original(*args, **kwargs)

        patches.rebind(original, clocked, _llgvm_modules())


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.unbound = []  # targets that no longer exist in the program

    def wrap(self, name, fn, measure=None):
        """``measure(args, kwargs, result)`` gives the span's (amount, flag) after the call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            if stack and self.spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, 0]
            stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if measure is not None:
                span[4], span[5] = measure(args, kwargs, result)
            return result

        return traced

    def install(self, patches: Patches):
        try:
            importlib.import_module("scipy.fft")
        except ImportError:
            pass
        modules = _llgvm_modules()
        for modname in FFT_MODULES:
            mod = sys.modules.get(modname)
            for fname in FFT_NAMES if mod is not None else ():
                original = getattr(mod, fname, None)
                if original is not None:
                    wrapper = self.wrap("grid.fft", original, _fft_bytes)
                    patches.set(mod, fname, wrapper)
                    patches.rebind(original, wrapper, modules)
        for name, modname, attr in FUNCTIONS:
            original = getattr(importlib.import_module(modname), attr, None)
            if original is None:
                self.unbound.append(f"{modname}.{attr}")
                continue
            patches.rebind(original, self.wrap(name, original, _MEASURES.get(name)), modules)
        for name, modname, clsname, attr in METHODS:
            cls = getattr(importlib.import_module(modname), clsname, None)
            raw = vars(cls).get(attr) if cls is not None else None
            if raw is None:
                self.unbound.append(f"{modname}.{clsname}.{attr}")
                continue
            if isinstance(raw, classmethod):
                wrapper = classmethod(self.wrap(name, raw.__func__))
            else:
                wrapper = self.wrap(name, raw)
            patches.set(cls, attr, wrapper)


def _fft_bytes(args, kwargs, result):
    """Input plus output bytes, and whether the input was all zeros."""
    arr = np.asarray(args[0] if args else kwargs.get("a", kwargs.get("x")))
    return arr.nbytes + result.nbytes, int(not arr.any())


def _particles_pushed(args, kwargs, result):
    return (args[0] if args else kwargs["p"]).count, 0


def _snapshot_bytes(args, kwargs, result):
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"]), 0


_MEASURES = {
    "kinetic.lorentz_push": _particles_pushed,
    "snapshots.write": _snapshot_bytes,
}


def summarize(spans, since: float) -> dict:
    """Per-name totals over spans that start at or after ``since``.

    Returns name -> {calls, seconds, self_seconds, amount, flagged}; a span's
    self time is its duration minus that of its direct children.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for i, (name, start, end, parent, amount, flag) in enumerate(spans):
        if start < since:
            continue
        agg = out.setdefault(
            name, {"calls": 0, "seconds": 0.0, "self_seconds": 0.0, "amount": 0, "flagged": 0}
        )
        agg["calls"] += 1
        agg["seconds"] += end - start
        agg["self_seconds"] += end - start - child_time[i]
        agg["amount"] += amount
        agg["flagged"] += flag
    return out
