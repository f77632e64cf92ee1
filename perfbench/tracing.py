"""Out-of-process view of schurkit's layers: spans around calls into each
module's public functions, recorded by the benchmark, not by the package.

Modules import each other with ``from .x import f``, so a function has one
binding per importing module.  ``Tracer.install`` replaces every binding of
each traced function in every loaded ``schurkit`` namespace, including the
defining module (which catches calls a module makes to itself).

A span is ``[name, start_ns, end_ns, parent_index]``.  Spans nest strictly
(one thread), so a span's self time is its duration minus the durations of
its direct children, and the self times of all spans plus the root's own
self time add up to the root's duration exactly.  ``span_problems`` checks
that nesting, on which that sum rests.  The benchmark's own checks run in a
``paused`` span: wrappers pass calls straight through, and its duration is
left out of the window.
"""

from __future__ import annotations

import importlib.abc
import importlib.machinery
import sys
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager

import numpy as np

# public functions timed per layer (module of src/schurkit); cheap helpers
# called in inner loops (dim_q, pad, normalize, ...) are left unwrapped so
# their cost stays with the caller and the overhead stays small
TRACED = {
    "wigner": ["cg_block", "cg_output_blocks", "that_matrix", "reduced_wigner"],
    "schur_transform": [
        "schur_unitary",
        "measure_schur",
        "dfs_encode",
        "dfs_decode",
        "central_projector_oracle",
    ],
    "operators": [
        "right_multiply_collective",
        "real_complex_matmul",
        "permute_columns_like",
        "permutation_action",
        "collective_unitary",
    ],
    "duality_checks": [
        "verify_block_diagonal",
        "rep_matrix_q",
        "rep_matrix_p",
        "rho_blocks",
        "spectral_weights",
    ],
    "characters": ["young_orthogonal", "character"],
    "combinatorics": [
        "enumerate_gz",
        "enumerate_yy",
        "enumerate_partitions",
        "schur_poly",
        "kostka",
    ],
    "permutations": ["all_permutations", "conjugacy_classes"],
    "sn_fourier": ["sn_qft_from_schur", "verify_fourier", "gpe_measure", "gpe_instrument"],
    "channels": ["channel_normal_form", "invariant_basis", "kronecker", "phi_lambda"],
    "qtypes": [
        "concentrate",
        "spectrum_estimate",
        "compress_rate",
        "sector_distribution",
        "typical_mass",
        "trace_bound_check",
        "classical_type_bounds",
    ],
    "cli": ["main"],
}

LAYERS = list(TRACED) + ["bench"]
PAUSED = "paused"
OPERATOR_FUNCTIONS = ["right_multiply_collective", "real_complex_matmul", "permute_columns_like"]


def _schurkit_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "schurkit" or name.startswith("schurkit."))
    ]


def rebind(fn, replacement) -> list:
    """Point every binding of fn in loaded schurkit namespaces at
    replacement; returns (module, attribute, fn) triples for undoing it."""
    patches = []
    for m in _schurkit_modules():
        for attr, value in list(vars(m).items()):
            if value is fn:
                setattr(m, attr, replacement)
                patches.append((m, attr, fn))
    return patches


def _arrays(value, depth=0):
    """ndarrays inside a returned value: an array, a DenseOperator, a short
    tuple, list or dict of them, or a schurkit dataclass holding them.  Long
    containers (basis labels and their index maps) are not searched."""
    if isinstance(value, np.ndarray):
        return [value]
    if depth >= 3:
        return []
    if isinstance(value, (tuple, list)) and len(value) <= 64:
        children = value
    elif isinstance(value, dict) and len(value) <= 64:
        children = value.values()
    elif hasattr(value, "__dict__") and type(value).__module__.startswith("schurkit"):
        children = vars(value).values()
    else:
        return []
    return [a for c in children for a in _arrays(c, depth + 1)]


def _cell_key(args):
    d, n = args[0], args[1]
    return (int(d), int(n))


class Tracer:
    """Span recorder plus per-layer counters, installed by patching."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self._built = set()
        self.counts = Counter()
        self.cg_keys = set()
        self.largest = Counter()  # layer -> bytes
        self.bytes_moved = 0
        self.build_spans = {}  # "d4n6" -> seconds (inclusive)
        self.active = True
        self._sn_depth = 0
        self._sn_calls = []  # (fn, args, kwargs) of outermost sn_fourier calls

    # -- spans --------------------------------------------------------
    def open_span(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close_span(self, idx):
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self.open_span(name)
        try:
            yield
        finally:
            self.close_span(idx)

    @contextmanager
    def paused(self):
        """A span for benchmark-only work: nothing inside it is recorded, and
        layer_summary leaves its duration out of the window."""
        idx = self.open_span(PAUSED)
        self.active = False
        try:
            yield
        finally:
            self.active = True
            self.close_span(idx)

    def reset(self):
        """Drop recorded spans and counters; which (d, n) were built stays."""
        self.spans.clear()
        self._sn_calls.clear()
        self.counts.clear()
        self.cg_keys.clear()
        self.largest.clear()
        self.bytes_moved = 0
        self.build_spans.clear()

    # -- import spans ---------------------------------------------------
    def import_hook(self):
        """A meta-path finder that times each schurkit submodule's body as a
        '<layer>.import' span.  Install before the first schurkit import."""
        tracer = self

        class _Finder(importlib.abc.MetaPathFinder):
            def find_spec(self, name, path, target=None):
                if not name.startswith("schurkit."):
                    return None
                spec = importlib.machinery.PathFinder.find_spec(name, path)
                if spec is None or spec.loader is None:
                    return spec
                layer = name.split(".")[1]
                inner = spec.loader.exec_module

                def exec_module(module):
                    if not tracer.active:
                        return inner(module)
                    with tracer.span(layer + ".import"):
                        inner(module)

                spec.loader.exec_module = exec_module
                return spec

        finder = _Finder()
        sys.meta_path.insert(0, finder)
        return finder

    # -- function wrappers ----------------------------------------------
    def _wrap(self, layer, fname, fn):
        tracer = self
        name = f"{layer}.{fname}"
        sn = layer == "sn_fourier"

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_name = name
            if layer == "schur_transform":
                # the first schur_unitary call per (d, n) in a process runs
                # the cascade; every other call reads the cached transform
                span_name = "schur_transform.apply"
                if fname == "schur_unitary" and _cell_key(args) not in tracer._built:
                    tracer._built.add(_cell_key(args))
                    span_name = "schur_transform.build"
            if sn:
                if tracer._sn_depth == 0:
                    tracer._sn_calls.append((fn, args, kwargs))
                tracer._sn_depth += 1
            idx = tracer.open_span(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close_span(idx)
                if sn:
                    tracer._sn_depth -= 1
            tracer._observe(idx, span_name, layer, fname, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", fname)
        return wrapper

    def _observe(self, idx, span_name, layer, fname, args, result):
        self.counts[span_name + ".calls"] += 1
        self.counts[layer + ".calls"] += 1
        if span_name == "schur_transform.build":
            d, n = _cell_key(args)
            _, start, end, _ = self.spans[idx]
            self.build_spans[f"d{d}n{n}"] = (end - start) / 1e9
        if layer == "schur_transform":
            for a in _arrays(result):
                self.largest["schur_transform"] = max(self.largest["schur_transform"], a.nbytes)
        elif layer == "wigner" and fname == "cg_block":
            self.cg_keys.add((tuple(int(x) for x in args[0] if x), int(args[1])))
        elif layer == "operators":
            self.bytes_moved += sum(a.nbytes for a in _arrays(args))
            self.bytes_moved += sum(a.nbytes for a in _arrays(result))

    def install(self):
        """Wrap every binding of every traced function in all loaded
        schurkit namespaces."""
        if self._patches:
            return
        for layer, names in TRACED.items():
            home = sys.modules.get(f"schurkit.{layer}")
            if home is None:
                continue
            for fname in names:
                fn = getattr(home, fname)
                self._patches += rebind(fn, self._wrap(layer, fname, fn))

    def uninstall(self):
        for m, attr, fn in reversed(self._patches):
            setattr(m, attr, fn)
        self._patches.clear()

    def measure_sn_fourier(self):
        """sn_fourier.largest_array_mb: replay each outermost sn_fourier call
        of the window once more, uninstalled and untimed, under tracemalloc
        (which sees numpy buffers), and keep the largest peak allocation.
        Kept out of the timed calls, where tracemalloc would slow them."""
        assert not self._patches, "uninstall before measuring"
        for fn, args, kwargs in self._sn_calls:
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            self.largest["sn_fourier"] = max(self.largest["sn_fourier"], peak)

    # -- results --------------------------------------------------------
    def self_times(self, root_index):
        """name -> summed self time (s) for spans under root_index, and the
        root's own duration."""
        spans = self.spans
        child_total = [0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child_total[s[3]] += s[2] - s[1]
        out = Counter()
        for i, s in enumerate(spans):
            if i == root_index or _descends(spans, i, root_index):
                out[s[0]] += (s[2] - s[1] - child_total[i]) / 1e9
        root = spans[root_index]
        return out, (root[2] - root[1]) / 1e9


def _descends(spans, i, root):
    p = spans[i][3]
    while p >= 0:
        if p == root:
            return True
        p = spans[p][3]
    return False


def span_problems(tracer, roots) -> list:
    """Spans under the roots that are unclosed or not inside their parent's
    interval; the self-time decomposition holds only when this is empty."""
    spans, out = tracer.spans, []
    for i, (name, start, end, parent) in enumerate(spans):
        if i not in roots and not any(_descends(spans, i, r) for r in roots):
            continue
        if end < start:
            out.append(f"span {name} #{i} is not closed")
        elif parent >= 0 and i not in roots and not (spans[parent][1] <= start and end <= spans[parent][2]):
            out.append(f"span {name} #{i} overlaps the end of its parent {spans[parent][0]}")
    return out[:5]


def layer_summary(tracer, roots):
    """Per-layer metrics of the windows under the root spans, as a flat
    dict.  The '<layer>.self_s' values add up to 'trace.wall_s'; paused
    spans count in neither."""
    selfs, wall = Counter(), 0.0
    for root in roots:
        part, secs = tracer.self_times(root)
        selfs.update(part)
        wall += secs
    wall -= selfs.pop(PAUSED, 0.0)
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for name, secs in selfs.items():
        layer = name.split(".")[0]
        out[f"{layer}.self_s"] += secs
    for part in ("build", "apply"):
        out[f"schur_transform.{part}.self_s"] = selfs.get(f"schur_transform.{part}", 0.0)
    for fname in OPERATOR_FUNCTIONS:
        out[f"operators.{fname}.self_s"] = selfs.get(f"operators.{fname}", 0.0)
    c = tracer.counts
    out.update(
        {
            "trace.wall_s": wall,
            "wigner.cg_block.calls": c["wigner.cg_block.calls"],
            "wigner.cg_block.distinct": len(tracer.cg_keys),
            "schur_transform.build.count": c["schur_transform.build.calls"],
            "schur_transform.apply.calls": c["schur_transform.apply.calls"],
            "schur_transform.largest_array_mb": tracer.largest["schur_transform"] / 1e6,
            "operators.calls": c["operators.calls"],
            "operators.bytes_mb": tracer.bytes_moved / 1e6,
            "duality_checks.calls": c["duality_checks.calls"],
            "characters.young_orthogonal.calls": c["characters.young_orthogonal.calls"],
            "sn_fourier.largest_array_mb": tracer.largest["sn_fourier"] / 1e6,
        }
    )
    return out
