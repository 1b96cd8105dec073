"""Span tracing of tnqc's public functions, installed from outside the program.

``Tracer.install`` replaces every binding of each listed function across the
loaded ``tnqc.*`` modules - including names brought in with ``from ... import``
- by a wrapper that records a span (name, start, end, parent) while the
tracer is active.  Spans stay in memory until ``write`` dumps them.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

# function -> name of the argument whose length counts as rows, or None
LAYERS = {
    "circuits": {"run_states": "states", "run_many": "param_rows"},
    "gradients": {"batch_loss_grad": "states", "batch_energy_and_grad": "param_rows"},
    "training": {
        "adam_step": None,
        "train": None,
        "evaluate": "dataset",
        "confusion_matrix": "dataset",
        "save_checkpoint": None,
        "load_checkpoint": None,
    },
    "xxz": {
        "vqe_optimize": None,
        "generate_dataset": None,
        "build_hamiltonian": None,
        "exact_ground_energy": None,
        "states_from_records": "records",
        "load_records": None,
        "save_records": None,
    },
    "encoding": {"encode_dataset": "features"},
    "mnist": {
        "load_image_label_pair": None,
        "filter_classes": None,
        "fit_pca": "train_matrix",
        "transform": "matrix",
        "save_features": None,
        "load_features": None,
    },
    "fileio": {"read_jsonl": None, "write_jsonl": None, "sha256_file": None},
    "cli": {"main": None},
}

# inclusive time is reported where self time hides the work: the sequential
# VQE chain heads spend almost all of it in their children
TOTAL_TIME = {"xxz.vqe_optimize"}


def metric_names() -> list[str]:
    """Per-layer metric names in a fixed order: ``<module>.<function>.<stat>``."""
    names = []
    for module, functions in LAYERS.items():
        for function, rows_arg in functions.items():
            stem = f"{module}.{function}"
            names += [f"{stem}.self_s", f"{stem}.calls"]
            if rows_arg:
                names.append(f"{stem}.rows")
            if stem in TOTAL_TIME:
                names.append(f"{stem}.total_s")
    return names


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: list[list] = []  # [name, start, end, parent index, rows]
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, rows_arg):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rows = None
            if rows_arg:
                rows = len(signature.bind(*args, **kwargs).arguments[rows_arg])
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), None, parent, rows]
            self.spans.append(span)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()

        return traced

    def install(self) -> None:
        """Rebind every listed function in every loaded tnqc module.

        A function the program no longer has is skipped; its metrics read 0.
        """
        wrappers = {}
        for module, functions in LAYERS.items():
            owner = sys.modules.get(f"tnqc.{module}")
            for function, rows_arg in functions.items():
                fn = getattr(owner, function, None)
                if callable(fn):
                    wrappers[id(fn)] = self._wrap(f"{module}.{function}", fn, rows_arg)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "tnqc" and not mod_name.startswith("tnqc."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])

    def summary(self, rounds: int) -> dict[str, float]:
        """Self time, calls, rows (and inclusive time where listed), per round."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = defaultdict(float)
        for i, (name, start, end, _, rows) in enumerate(self.spans):
            totals[f"{name}.self_s"] += end - start - child_time[i]
            totals[f"{name}.calls"] += 1
            if rows is not None:
                totals[f"{name}.rows"] += rows
            if name in TOTAL_TIME:
                totals[f"{name}.total_s"] += end - start
        return {key: totals.get(key, 0.0) / rounds for key in metric_names()}

    def write(self, path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, rows in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "rows": rows}) + "\n")
