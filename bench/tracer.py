"""Outside-in tracer for the qens layers.

The tracer wraps public functions of the qens modules from outside the
package: each wrapper is bound in place of the original in every
``qens.*`` namespace that holds it by name (``simulator``, ``weighting``
and ``figures`` each import ``predict_many`` under their own name), in
``figures.RUNNERS``, and on ``EnsembleState`` for its probability methods.
``src/`` is never edited.

Every wrapper records a span.  Span stacks are thread-local, so work that
``figures`` runs on its thread pool is recorded as busy time of the pool
threads.  A span's self time is its duration minus the time of the spans
it encloses in the same thread.  Time the main thread spends outside any
span is left to the caller to report as the unattributed residual.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import threading
import time

import numpy as np


def _rows(a) -> int:
    shape = np.shape(a)
    return 1 if len(shape) < 2 else shape[0]


# (module, attribute, span name, name of the Tracer method that counts the
# call's work, or None)
_FUNCTIONS = [
    ("model", "decode_all", "model.decode_all", None),
    ("model", "predict_many", "model.predict_many", "_count_predict"),
    ("model", "correct_counts", "model.correct_counts", None),
    ("model", "grid_correct_counts", "model.grid_correct_counts", None),
    ("weighting", "tree_sum", "weighting.tree_sum", "_count_tree_sum"),
    ("weighting", "vote", "weighting.vote", None),
    ("weighting", "ensemble_decide", "weighting.ensemble_decide", None),
    ("weighting", "weights_for", "weighting.weights_for", None),
    ("simulator", "prepare_uniform", "simulator.prepare_uniform", None),
    ("simulator", "apply_accuracy_rotation_exact", "simulator.rotation", None),
    ("simulator", "apply_accuracy_rotation_sequential", "simulator.rotation", None),
    ("simulator", "postselect_accuracy_zero", "simulator.postselect_accuracy_zero", None),
    ("simulator", "apply_classifier", "simulator.apply_classifier", None),
    ("simulator", "measure_label_distribution", "simulator.readout", None),
    ("simulator", "expectation_sigma_z", "simulator.readout", None),
    ("simulator", "sample_measurements", "simulator.readout", None),
    ("simulator", "grover_amplify_counts", "simulator.grover_amplify_counts", None),
    ("analytic", "expectation_quadrature", "analytic.expectation_quadrature", None),
    ("analytic", "expectation_closed_equal_sigma", "analytic.expectation_closed_equal_sigma", None),
    ("analytic", "decision_boundary", "analytic.decision_boundary", None),
    ("analytic", "boundary_decomposition", "analytic.boundary_decomposition", None),
    ("committee", "condorcet_error", "committee.condorcet_error", None),
    ("datagen", "gaussian_blobs", "datagen", None),
    ("datagen", "gaussian_1d_pair", "datagen", None),
    ("figures", "write_curve_csv", "figures.write_curve_csv", None),
    ("svgplot", "render_curves", "svgplot.render_curves", None),
]

_STATE_METHODS = ("norm", "parameter_distribution", "accuracy_zero_probabilities")


class Tracer:
    """Span and counter store for one traced process."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, self seconds]
        self.counts: dict[str, float] = {}
        self.main_covered_s = 0.0
        self._predicted: set = set()  # (model count, points digest) seen
        self._main = threading.get_ident()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = max(self.counts.get(name, value), value)

    def set(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = value

    def _count_predict(self, args, kwargs) -> None:
        """Classifier evaluations E * M of a predict_many call, in total and
        counting each (models, points) pair once.  The models are told apart
        by their number only: every caller passes the grid or lattice of its
        command, or a subset of it, so equal counts mean equal models."""
        thetas = args[1] if len(args) > 1 else kwargs["thetas"]
        xs = np.asarray(args[2] if len(args) > 2 else kwargs["xs"], dtype=np.float64)
        evals = _rows(thetas) * _rows(xs)
        key = (_rows(thetas), hashlib.blake2b(xs.tobytes(), digest_size=16).digest())
        self.add("model.predict_many.evals", evals)
        with self._lock:
            seen = key in self._predicted
            self._predicted.add(key)
        self.add("model.predict_many.unique_evals", 0 if seen else evals)

    def _count_tree_sum(self, args, kwargs) -> None:
        self.add("weighting.tree_sum.elements", int(np.size(args[0] if args else kwargs["values"])))

    def wrap(self, name: str, fn, counter=None, observe=None):
        """`fn` recording span `name`; `counter(args, kwargs)` counts the
        call's work, `observe(result)` sees the return value."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            children = [0.0]
            stack.append(children)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                elif threading.get_ident() == self._main:
                    self.main_covered_s += elapsed
                with self._lock:
                    entry = self.spans.setdefault(name, [0, 0.0])
                    entry[0] += 1
                    entry[1] += elapsed - children[0]
            if counter is not None:
                counter(args, kwargs)
            if observe is not None:
                observe(result)
            return result

        return traced

    def _observe_state(self, state) -> None:
        self.peak("simulator.qubits", state.layout.total_qubits)
        self.peak("simulator.state_bytes", state.amplitudes.nbytes)

    def _observe_postselect(self, result) -> None:
        self._observe_state(result[0])
        self.set("simulator.p_acc", result[1].acceptance_probability)

    def _observe_grover(self, result) -> None:
        state, report = result
        self._observe_state(state)
        self.set("simulator.p_acc", report.marked_probability)
        self.set("simulator.grover.iterations", report.iterations)

    def install(self) -> None:
        """Rebind the wrapped functions; qens.cli must already be imported."""
        from qens import figures, simulator

        namespaces = [
            vars(mod)
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "qens" or name.startswith("qens."))
        ]
        observers = {
            "prepare_uniform": self._observe_state,
            "postselect_accuracy_zero": self._observe_postselect,
            "grover_amplify_counts": self._observe_grover,
        }
        replaced = {}
        for module, attr, name, counter_name in _FUNCTIONS:
            original = getattr(sys.modules[f"qens.{module}"], attr)
            counter = None if counter_name is None else getattr(self, counter_name)
            replaced[id(original)] = self.wrap(name, original, counter, observers.get(attr))
        for runner in figures.RUNNERS.values():
            replaced[id(runner)] = self.wrap("figures.run", runner)

        # The chunk map is the thread-pool boundary: each chunk is charged to
        # figures.run in whichever thread runs it, and the main thread's wait
        # for the pool goes to a span of its own, so it is not charged to
        # figures.run a second time.
        chunk_map = figures._chunk_map
        run_chunk = functools.partial(self.wrap, "figures.run")
        replaced[id(chunk_map)] = self.wrap(
            "figures.pool_wait", lambda fn, n, threads: chunk_map(run_chunk(fn), n, threads)
        )

        for ns in namespaces + [figures.RUNNERS]:
            for key, value in list(ns.items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    ns[key] = wrapper
        for method in _STATE_METHODS:
            original = getattr(simulator.EnsembleState, method)
            setattr(simulator.EnsembleState, method, self.wrap("simulator.readout", original))
