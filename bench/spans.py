"""In-memory spans and counts around okmlib's module attributes.

The program calls its layers through module globals (``cli.load_csv``,
``okm.assign_point``, ...), so replacing those attributes with timing
wrappers measures each layer from outside without touching the package
source.  A span is (id, parent id, name, start, end); a layer's self time
is its span's duration minus the durations of its direct children.
"""

import importlib
import time
from collections import Counter, defaultdict

ROOT = "cli.main"
# (module, attribute, span name): wrapped in a timed span.
SPANNED = (
    ("okmlib.cli", "load_csv", "dataio.load_csv"),
    ("okmlib.cli", "gram", "kernels.gram"),
    ("okmlib.cli", "estimate_k", "model_selection.estimate_k"),
    ("okmlib.cli", "run_okm", "okm.run"),
    ("okmlib.cli", "pair_metrics", "evaluation.pair_metrics"),
    ("okmlib.model_selection", "sorted_eigenvalues", "linalg.eigen"),
    ("okmlib.okm", "assign_point", "okm.assign"),
    ("okmlib.okm", "_update_prototypes", "okm.update"),
    ("okmlib.okm", "_objective", "okm.objective"),
)
# (module, attribute, counter name): called too often for a span, so only
# counted, keyed by the innermost open span.
COUNTED = (
    ("okmlib.okm", "dissim", "divergences.dissim"),
    ("okmlib.kernels", "kernel_eval", "kernels.kernel_eval"),
)
# Counts that must repeat exactly between two traced passes of one input.
EXACT_COUNTS = (
    "okm.iterations",
    "okm.iterations_reverted",
    "divergences.dissim_calls",
    "kernels.kernel_eval_calls",
    "evaluation.pairs_examined",
)


class Tracer:
    """Records spans and counts while installed; restores the originals on exit.

    A wrapped attribute that the package no longer has is listed in
    `absent` and its metrics read 0.
    """

    def __init__(self):
        self.spans = []
        self.calls = Counter()  # (counter name, innermost span name) -> calls
        self.facts = Counter()
        self.runs = []  # (okm.run span id, n, accepted iterations)
        self.absent = []
        self._stack = []
        self._next_id = 0
        self._patched = []

    def span(self, name, fn):
        after = _AFTER.get(name)

        def wrapper(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            span_id = self._next_id
            self._next_id += 1
            self._stack.append((span_id, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((span_id, parent, name, start, end))
            if after is not None:
                after(self, span_id, args, kwargs, result)
            return result

        return wrapper

    def counter(self, name, fn):
        def wrapper(*args, **kwargs):
            self.calls[(name, self._stack[-1][1] if self._stack else None)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def __enter__(self):
        for module_name, attr, name in SPANNED + COUNTED:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            counted = (module_name, attr, name) in COUNTED
            setattr(module, attr, self.counter(name, original) if counted else self.span(name, original))
            self._patched.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    def summary(self):
        """Per-layer metrics of everything recorded so far."""
        child_time = defaultdict(float)
        assigns_in = Counter()
        for _, parent, name, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
            if name == "okm.assign":
                assigns_in[parent] += 1
        total = defaultdict(float)
        own = defaultdict(float)
        spans = Counter()
        for span_id, _, name, start, end in self.spans:
            total[name] += end - start
            own[name] += end - start - child_time[span_id]
            spans[name] += 1

        iterations = sum(n_iter for _, _, n_iter in self.runs)
        # One assign round calls assign_point once per point; a run without
        # assign_point spans has no rounds to compare and counts 0 reverted.
        reverted = sum(assigns_in[span_id] // n - n_iter
                       for span_id, n, n_iter in self.runs if assigns_in[span_id])
        assigns = spans["okm.assign"]
        calls = lambda name: sum(v for (c, _), v in self.calls.items() if c == name)
        per_assign = lambda v: v / assigns if assigns else 0.0
        return {
            "cli.invocations": spans[ROOT],
            "cli.self_s": own[ROOT],
            "dataio.load_csv_s": total["dataio.load_csv"],
            "dataio.rows_loaded": self.facts["dataio.rows_loaded"],
            "kernels.gram_s": total["kernels.gram"],
            "kernels.kernel_eval_calls": calls("kernels.kernel_eval"),
            "linalg.eigen_s": total["linalg.eigen"],
            "linalg.eigen_calls": spans["linalg.eigen"],
            "model_selection.estimate_k_s": total["model_selection.estimate_k"],
            "okm.run_s": total["okm.run"],
            "okm.self_s": own["okm.run"],
            "okm.assign_s": total["okm.assign"],
            "okm.update_s": total["okm.update"],
            "okm.objective_s": total["okm.objective"],
            "okm.restarts": spans["okm.run"],
            "okm.iterations": iterations,
            "okm.iterations_reverted": reverted,
            "okm.assign_changed_frac": per_assign(self.facts["okm.assign_changed"]),
            "okm.assign_us_per_point_iter": per_assign(1e6 * total["okm.assign"]),
            "divergences.dissim_calls": calls("divergences.dissim"),
            "divergences.dissim_per_assign": per_assign(self.calls[("divergences.dissim", "okm.assign")]),
            "evaluation.pair_metrics_s": total["evaluation.pair_metrics"],
            "evaluation.pairs_examined": self.facts["evaluation.pairs_examined"],
            "trace.self_sum_s": float(sum(own.values())),
        }

    def span_records(self):
        return [{"id": i, "parent": p, "name": name, "start": s, "end": e}
                for i, p, name, s, e in self.spans]


def _after_assign(tracer, span_id, args, kwargs, result):
    previous = args[3] if len(args) > 3 else kwargs.get("previous")
    if result != previous:
        tracer.facts["okm.assign_changed"] += 1


def _after_run(tracer, span_id, args, kwargs, result):
    values = getattr(args[0], "values", args[0])
    tracer.runs.append((span_id, len(values), getattr(result, "n_iter", 0)))


def _after_pairs(tracer, span_id, args, kwargs, result):
    # Each side's linked_pairs looks at all n(n-1)/2 pairs once.
    n = len(getattr(args[0], "assignments", args[0]))
    tracer.facts["evaluation.pairs_examined"] += n * (n - 1)


def _after_load(tracer, span_id, args, kwargs, result):
    tracer.facts["dataio.rows_loaded"] += getattr(result, "n", 0)


_AFTER = {
    "okm.assign": _after_assign,
    "okm.run": _after_run,
    "evaluation.pair_metrics": _after_pairs,
    "dataio.load_csv": _after_load,
}
