"""Spans at the package's module boundaries, and the per-layer metrics from them.

The package modules import functions by name (``from .sim import
run_deferred_batch``), so each boundary is wrapped in its caller's namespace.
Spans (name, start, end, parent, attributes) stay in memory; the worker writes
them out when the run ends.  A target that no longer exists is recorded as
missing and the metrics that need it are reported absent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
from time import perf_counter

FRONTS = (
    "conv", "midcircuit-rx", "midcircuit-ry", "ancilla-cy", "ancilla-cz",
    "mod-a", "mod-b", "mod-c", "select-sign", "select-tanh", "classical",
)
QUANTUM_FRONTS = FRONTS[:-1]


def _rows(fn, args, kwargs, result):
    return {"rows": int(result.shape[0])}


def _sim_rows(fn, args, kwargs, result):
    circuit = args[0] if args else kwargs["circuit"]
    gates = sum(1 for op in circuit.ops if hasattr(op, "kind"))
    rows = int(result.shape[0])
    return {"rows": rows, "gate_rows": rows * gates,
            "state_bytes": rows * (1 << circuit.num_qubits) * 16}


def _quantum_front(fn, args, kwargs, result):
    return {"front": args[0].ansatz.key}


def _classical_front(fn, args, kwargs, result):
    return {"front": "classical"}


def _score_rows(fn, args, kwargs, result):
    return {"rows": int(result[0].shape[0]) + int(result[1]), "skipped": int(result[1])}


def _draws(fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return {"draws": int(bound.arguments["theta_samples"])}


# (module, attribute, span name, attribute extractor); "Class.method" wraps a
# method.  Extractors run after the span ends: (fn, args, kwargs, result) -> dict.
TARGETS = (
    ("qccnn.cli", "cmd_train", "cmd_train", None),
    ("qccnn.cli", "cmd_eval", "cmd_eval", None),
    ("qccnn.cli", "cmd_ed", "cmd_ed", None),
    ("qccnn.cli", "load_dataset", "load_dataset", None),
    ("qccnn.cli", "fit", "fit", None),
    ("qccnn.cli", "evaluate", "evaluate", None),
    ("qccnn.cli", "effective_dimension", "effective_dimension", _draws),
    ("qccnn.cli", "effective_dimension_from_fims", "effective_dimension_from_fims", None),
    ("qccnn.nn", "run_deferred_batch", "run_deferred_batch", _sim_rows),
    ("qccnn.nn", "extract_patches", "extract_patches", _rows),
    ("qccnn.nn", "build_ansatz", "build_ansatz", None),
    ("qccnn.nn", "adam_step", "adam_step", None),
    ("qccnn.nn", "evaluate", "evaluate", None),
    ("qccnn.nn", "softmax_cross_entropy", "softmax_cross_entropy", None),
    ("qccnn.nn", "QuantumConvLayer.forward", "QuantumConvLayer.forward", _quantum_front),
    ("qccnn.nn", "QuantumConvLayer.backward", "QuantumConvLayer.backward", _quantum_front),
    ("qccnn.nn", "ClassicalConvLayer.forward", "ClassicalConvLayer.forward", _classical_front),
    ("qccnn.nn", "DenseLayer.forward", "DenseLayer.forward", None),
    ("qccnn.nn", "DenseLayer.backward", "DenseLayer.backward", None),
    ("qccnn.nn", "HybridModel.loss_and_grads", "HybridModel.loss_and_grads", None),
    ("qccnn.autodiff", "run_deferred_batch", "run_deferred_batch", _sim_rows),
    ("qccnn.capacity", "run_deferred_batch", "run_deferred_batch", _sim_rows),
    ("qccnn.capacity", "score_batch", "score_batch", _score_rows),
    ("qccnn.capacity", "effective_dimension_from_fims", "effective_dimension_from_fims", None),
    ("qccnn.capacity", "build_ansatz", "build_ansatz", None),
    ("qccnn.capacity", "extract_patches", "extract_patches", _rows),
)

# Metric name (or prefix of a per-front family) -> wrap targets it needs.
_NEEDS = {
    "data.load_s": ("qccnn.cli:load_dataset",),
    "data.patch": ("qccnn.nn:extract_patches",),
    "circuits.build_s": ("qccnn.nn:build_ansatz",),
    "sim.forward": ("qccnn.nn:run_deferred_batch", "qccnn.nn:QuantumConvLayer.forward"),
    "sim.backward": ("qccnn.autodiff:run_deferred_batch", "qccnn.nn:QuantumConvLayer.backward"),
    "sim.ed": ("qccnn.capacity:run_deferred_batch", "qccnn.cli:effective_dimension"),
    "sim.state_bytes_max": ("qccnn.nn:run_deferred_batch", "qccnn.autodiff:run_deferred_batch",
                            "qccnn.capacity:run_deferred_batch"),
    "autodiff.backward_s": ("qccnn.nn:QuantumConvLayer.backward",),
    "autodiff.backward_self_s": ("qccnn.nn:QuantumConvLayer.backward",
                                 "qccnn.autodiff:run_deferred_batch"),
    "nn.kernel_forward_s": ("qccnn.nn:QuantumConvLayer.forward",
                            "qccnn.nn:ClassicalConvLayer.forward"),
    "nn.head_s": ("qccnn.nn:DenseLayer.forward", "qccnn.nn:DenseLayer.backward",
                  "qccnn.nn:softmax_cross_entropy"),
    "nn.adam_s": ("qccnn.nn:adam_step",),
    "nn.val_s": ("qccnn.nn:evaluate", "qccnn.cli:fit"),
    "nn.step": ("qccnn.nn:HybridModel.loss_and_grads", "qccnn.nn:adam_step"),
    "capacity.score": ("qccnn.capacity:score_batch",),
    "capacity.skipped_ratio": ("qccnn.capacity:score_batch",),
    "capacity.label_s": ("qccnn.cli:effective_dimension",),
    "capacity.draws": ("qccnn.cli:effective_dimension",),
    "capacity.reduce_s": ("qccnn.capacity:effective_dimension_from_fims",),
    "cli.self_s": ("qccnn.cli:cmd_train", "qccnn.cli:cmd_eval", "qccnn.cli:cmd_ed"),
}

# Metrics summed over spans and reported per traced round.
_SUMMED = (
    *(f"sim.{ctx}{suffix}" for ctx in ("forward", "backward", "ed")
      for suffix in ("_s", "_rows", "_gate_rows")),
    "data.load_s", "data.patches_s", "data.patch_rows", "circuits.build_s",
    "autodiff.backward_s", "autodiff.backward_self_s", "nn.kernel_forward_s", "nn.head_s",
    "nn.adam_s", "nn.val_s", "nn.steps", "capacity.score_s", "capacity.score_rows",
    "capacity.label_s", "capacity.reduce_s", "capacity.draws", "cli.self_s",
    *(f"nn.kernel_forward_s.{front}" for front in FRONTS),
    *(f"{name}.{front}" for name in ("autodiff.backward_s", "sim.backward_rows")
      for front in QUANTUM_FRONTS),
)

_SIM_CONTEXT = {
    "QuantumConvLayer.forward": "forward",
    "QuantumConvLayer.backward": "backward",
    "effective_dimension": "ed",
}


def _resolve(module: str, attr: str):
    """(owner object, attribute name) of a wrap target, or None if it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, name) if callable(getattr(owner, name, None)) else None


class Tracer:
    """Records spans while installed; removes every wrapper on uninstall."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, attrs]
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        for module, attr, _, _ in TARGETS:
            if _resolve(module, attr) is None:
                self.missing.append(f"{module}:{attr}")

    def _wrap(self, fn, name, extract):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if extract is not None:
                span[4] = extract(fn, args, kwargs, result)
            return result

        return wrapper

    def __enter__(self):
        for module, attr, name, extract in TARGETS:
            target = _resolve(module, attr)
            if target is None:
                continue
            owner, attr_name = target
            original = owner.__dict__[attr_name]
            self._saved.append((owner, attr_name, original))
            setattr(owner, attr_name, self._wrap(original, name, extract))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr_name, original = self._saved.pop()
            setattr(owner, attr_name, original)
        return False


def _absent(metric: str, missing: set) -> bool:
    for prefix, needs in _NEEDS.items():
        if metric.startswith(prefix) and any(n in missing for n in needs):
            return True
    return False


def layer_metrics(spans, missing, rounds: int, traced_wall: float, untraced_wall: float):
    """Per-layer values per traced round (times in s), keyed by metric name.

    `traced_wall` and `untraced_wall` are mean round wall times.  Ratios, the
    largest state and the step median are not divided by rounds.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += dur[i]
    self_time = [dur[i] - child_time[i] for i in range(n)]

    def context(i):
        i = spans[i][3]
        while i >= 0:
            ctx = _SIM_CONTEXT.get(spans[i][0])
            if ctx:
                return ctx, (spans[i][4] or {}).get("front")
            i = spans[i][3]
        return None, None

    totals = dict.fromkeys(_SUMMED, 0.0)

    def add(name, value):
        totals[name] += value

    state_bytes_max = 0
    skipped = scored = 0
    steps = []
    pending_step: dict[int, float] = {}
    top_level = 0.0
    for i, (name, _, _, parent, attrs) in enumerate(spans):
        attrs = attrs or {}
        if parent < 0:
            top_level += dur[i]
        if name == "run_deferred_batch":
            state_bytes_max = max(state_bytes_max, attrs["state_bytes"])
            ctx, front = context(i)
            if ctx:
                add(f"sim.{ctx}_s", dur[i])
                add(f"sim.{ctx}_rows", attrs["rows"])
                add(f"sim.{ctx}_gate_rows", attrs["gate_rows"])
                if ctx == "backward":
                    add(f"sim.backward_rows.{front}", attrs["rows"])
            if parent >= 0 and spans[parent][0] == "effective_dimension":
                # The label phase holds the first forward pass of each draw.
                add("capacity.label_s", dur[i])
        elif name == "load_dataset":
            add("data.load_s", dur[i])
        elif name == "extract_patches":
            add("data.patches_s", dur[i])
            add("data.patch_rows", attrs["rows"])
        elif name == "build_ansatz":
            add("circuits.build_s", dur[i])
        elif name == "QuantumConvLayer.backward":
            add("autodiff.backward_s", dur[i])
            add("autodiff.backward_self_s", self_time[i])
            add(f"autodiff.backward_s.{attrs['front']}", dur[i])
        elif name in ("QuantumConvLayer.forward", "ClassicalConvLayer.forward"):
            add("nn.kernel_forward_s", self_time[i])
            add(f"nn.kernel_forward_s.{attrs['front']}", self_time[i])
        elif name in ("DenseLayer.forward", "DenseLayer.backward", "softmax_cross_entropy"):
            add("nn.head_s", dur[i])
        elif name == "adam_step":
            add("nn.adam_s", dur[i])
            if parent in pending_step:
                steps.append(pending_step.pop(parent) + dur[i])
        elif name == "HybridModel.loss_and_grads":
            add("nn.steps", 1)
            pending_step[parent] = dur[i]
        elif name == "evaluate" and parent >= 0 and spans[parent][0] == "fit":
            add("nn.val_s", dur[i])
        elif name == "score_batch":
            add("capacity.score_s", dur[i])
            add("capacity.score_rows", attrs["rows"])
            scored += attrs["rows"]
            skipped += attrs["skipped"]
        elif name == "effective_dimension":
            add("capacity.draws", attrs["draws"])
            add("capacity.label_s", self_time[i])
        elif name == "effective_dimension_from_fims":
            add("capacity.reduce_s", dur[i])
        elif name.startswith("cmd_"):
            add("cli.self_s", self_time[i])

    out = {name: value / rounds for name, value in totals.items()}
    out["sim.state_bytes_max"] = float(state_bytes_max)
    out["nn.step_s.p50"] = statistics.median(steps) if steps else 0.0
    out["capacity.skipped_ratio"] = skipped / scored if scored else 0.0
    out["trace.overhead_ratio"] = traced_wall / untraced_wall - 1.0
    out["trace.coverage"] = top_level / rounds / traced_wall
    missing = set(missing)
    return {k: v for k, v in out.items() if not _absent(k, missing)}
