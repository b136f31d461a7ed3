"""Per-module tracer for the benchmark's traced run.

The tracer times calls into g2kit's public functions and methods from
outside the library: it patches methods on their classes and rebinds
module-level functions in every loaded g2kit module that holds them
(several modules use ``from .x import f``).  Nothing under ``src/`` is
changed, and ``uninstall`` puts every original back.

Every target keeps aggregate counters: calls, total time and self time
(total minus the time spent in other traced calls made from inside it).
Targets of SPAN_LAYERS, the EndV level and above, also record a span per
call with a link to the enclosing span.  Scalar, linalg and octonion
operations are too numerous for per-call spans.
"""

from __future__ import annotations

import importlib
import sys
import time

# (layer, op, module, attribute) -- the attribute is "f" for a module
# function or "Class.method" for a method.
TARGETS = (
    ("scalars", "mul", "g2kit.scalars", "Scalar.__mul__"),
    ("scalars", "add", "g2kit.scalars", "Scalar.__add__"),
    ("scalars", "sub", "g2kit.scalars", "Scalar.__sub__"),
    ("scalars", "neg", "g2kit.scalars", "Scalar.__neg__"),
    ("scalars", "inv", "g2kit.scalars", "Scalar.inv"),
    ("linalg", "mat_mul", "g2kit.linalg", "mat_mul"),
    ("linalg", "inv", "g2kit.linalg", "inv"),
    ("linalg", "rref", "g2kit.linalg", "rref"),
    ("linalg", "kernel", "g2kit.linalg", "kernel"),
    ("linalg", "solve", "g2kit.linalg", "solve"),
    ("octonions", "mul", "g2kit.octonions", "Octonion.__mul__"),
    ("octonions", "norm", "g2kit.octonions", "Octonion.norm"),
    ("octonions", "bilinear_f", "g2kit.octonions", "bilinear_f"),
    ("octonions", "double", "g2kit.octonions", "double"),
    ("endo", "mul", "g2kit.endo", "EndV.__mul__"),
    ("endo", "add", "g2kit.endo", "EndV.__add__"),
    ("endo", "sub", "g2kit.endo", "EndV.__sub__"),
    ("endo", "inverse", "g2kit.endo", "EndV.inverse"),
    ("endo", "is_derivation", "g2kit.endo", "is_derivation"),
    ("triality", "solve_lie_triple", "g2kit.triality", "solve_lie_triple"),
    ("triality", "check_related", "g2kit.triality", "check_related"),
    ("triality", "lie_apply", "g2kit.triality", "LieTrialityGroup.apply"),
    ("triality", "group_apply", "g2kit.triality", "GroupTriality.apply"),
    ("norms", "filtration_lattice", "g2kit.norms", "filtration_lattice"),
    ("norms", "lattice_contains", "g2kit.norms", "FiltrationLattice.contains"),
    ("norms", "extend_sl3", "g2kit.norms", "extend_sl3"),
    ("norms", "extend_su21", "g2kit.norms", "extend_su21"),
    ("norms", "extend_dim4", "g2kit.norms", "extend_dim4"),
    ("norms", "is_algebra_norm", "g2kit.norms", "is_algebra_norm"),
    ("strata", "validate", "g2kit.strata", "validate"),
    ("strata", "classify", "g2kit.strata", "classify"),
    ("strata", "lift_type_d_sl3", "g2kit.strata", "lift_type_d_sl3"),
    ("filtration", "cayley", "g2kit.filtration", "cayley"),
    ("filtration", "quotient_iso_check", "g2kit.filtration", "quotient_iso_check"),
    ("filtration", "psi_b", "g2kit.filtration", "psi_b"),
    ("filtration", "gamma_perp", "g2kit.filtration", "gamma_perp"),
    ("filtration", "modp_vectors", "g2kit.filtration", "ModpSubspace.vectors"),
)
SPAN_LAYERS = ("endo", "triality", "norms", "strata", "filtration")
# Layers whose calls are too cheap for a total time to say more than
# self time does.
SELF_ONLY_LAYERS = ("scalars", "linalg")
# Errors counted once each, by the first traced layer they leave.
COUNTED_ERRORS = {"scalars": ("PrecisionError", "scalars.precision_errors"),
                  "linalg": ("SingularError", "linalg.singular_errors")}
EXTRA_COUNTS = ("scalars.mul.zero_operand", "scalars.mul.full_window",
                "scalars.precision_errors", "linalg.singular_errors",
                "filtration.modp.vectors_enumerated")


def _resolve(module_name, attr):
    """(owner, name, original) for a target, or None if it does not exist."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    if "." not in attr:
        obj = getattr(module, attr, None)
        return (module, attr, obj) if callable(obj) else None
    cls_name, meth = attr.split(".", 1)
    cls = getattr(module, cls_name, None)
    obj = vars(cls).get(meth) if isinstance(cls, type) else None
    return (cls, meth, obj) if callable(obj) else None


class Tracer:
    """Install with ``with Tracer() as tr:``; read ``tr.metrics()`` after."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.stats = {}          # (layer, op) -> [calls, total_s, self_s]
        self.extra = dict.fromkeys(EXTRA_COUNTS, 0)
        self.absent = []         # "module:attr" of targets not found
        self.window_unknown = False
        self.spans = []          # (id, parent, name, start, end, item)
        self.item = None         # index of the workload item running now
        self._patches = []       # (owner, name, original)
        # [time in traced children of the running call, running span id,
        #  last span id]
        self._state = [0.0, 0, 0]

    # -- install / uninstall -------------------------------------------------

    def install(self):
        errors = importlib.import_module("g2kit.errors")
        hooks = self._hooks()
        for layer, op, module_name, attr in self.targets:
            found = _resolve(module_name, attr)
            if found is None:
                self.absent.append(f"{module_name}:{attr}")
                continue
            owner, name, original = found
            stat = self.stats.setdefault((layer, op), [0, 0.0, 0.0])
            err_name, err_key = COUNTED_ERRORS.get(layer, (None, None))
            wrapper = self._wrap(
                original, stat,
                f"{layer}.{op}" if layer in SPAN_LAYERS else None,
                getattr(errors, err_name, None) if err_name else None,
                err_key, hooks.get((layer, op)))
            if isinstance(owner, type):
                holders = [owner]
            else:
                holders = [m for n, m in list(sys.modules.items())
                           if m is not None
                           and (n == "g2kit" or n.startswith("g2kit."))]
            for holder in holders:
                for key, val in list(vars(holder).items()):
                    if val is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)
        return self

    def uninstall(self):
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- wrappers ------------------------------------------------------------

    def _hooks(self):
        extra = self.extra

        def mul_result(result):
            # a product of nonzero truncated series is nonzero, so a zero
            # product means a zero operand
            if getattr(result, "is_zero", False):
                extra["scalars.mul.zero_operand"] += 1
                return
            coeffs = getattr(result, "coeffs", None)
            if coeffs is None:
                self.window_unknown = True
            elif len(coeffs) == result.cfg.precision:
                extra["scalars.mul.full_window"] += 1

        def vectors_result(result):
            extra["filtration.modp.vectors_enumerated"] += len(result)
        return {("scalars", "mul"): mul_result,
                ("filtration", "modp_vectors"): vectors_result}

    def _wrap(self, fn, stat, span_name, err_cls, err_key, on_result):
        st = self._state
        spans = self.spans
        extra = self.extra
        clock = time.perf_counter
        marker = "_perfbench_counted"
        counted = err_cls or ()
        tracer = self

        def wrapper(*args, **kwargs):
            outer_child = st[0]
            st[0] = 0.0
            if span_name is not None:
                parent = st[1]
                st[2] += 1
                sid = st[1] = st[2]
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except counted as exc:
                if not getattr(exc, marker, False):
                    setattr(exc, marker, True)
                    extra[err_key] += 1
                raise
            finally:
                t1 = clock()
                dt = t1 - t0
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - st[0]
                st[0] = outer_child + dt
                if span_name is not None:
                    st[1] = parent
                    spans.append((sid, parent, span_name, t0, t1, tracer.item))
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        """{name: (value, unit)} for every target, present or not."""
        out = {}
        for layer, op, _, _ in self.targets:
            calls, total, self_s = self.stats.get((layer, op), (0, 0.0, 0.0))
            out[f"{layer}.{op}.calls"] = (calls, "count")
            out[f"{layer}.{op}.self_s"] = (self_s, "s")
            if layer not in SELF_ONLY_LAYERS:
                out[f"{layer}.{op}.total_s"] = (total, "s")
        muls = self.stats.get(("scalars", "mul"), (0,))[0]
        x = self.extra
        out["scalars.mul.zero_operand_share"] = (
            x["scalars.mul.zero_operand"] / muls if muls else 0.0, "ratio")
        out["scalars.mul.full_window_share"] = (
            x["scalars.mul.full_window"] / muls if muls else 0.0, "ratio")
        for key in ("scalars.precision_errors", "linalg.singular_errors",
                    "filtration.modp.vectors_enumerated"):
            out[key] = (x[key], "count")
        absent = len(self.absent) + (1 if self.window_unknown else 0)
        out["trace.absent_targets"] = (absent, "count")
        out["trace.spans"] = (len(self.spans), "count")
        return out

    def write_spans(self, path):
        """Spans as tab-separated lines, times in seconds from the first."""
        base = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\titem\n")
            for sid, parent, name, t0, t1, item in self.spans:
                fh.write(f"{sid}\t{parent}\t{name}\t{t0 - base:.6f}\t"
                         f"{t1 - base:.6f}\t{item}\n")
