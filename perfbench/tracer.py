"""Per-layer timing of the program from outside it.

The tracer replaces each listed function of the ``cqcovert`` package with a
timing wrapper at every module attribute bound to it (and methods on their
class), so calls made from inside the package are caught too.  Spans are
aggregated in memory per name: calls, inclusive seconds and self seconds
(inclusive minus the time of child spans).  ``remove`` restores the
originals, so untraced passes run the program unchanged.  The open-span
stack is shared, so traced code must run on one thread (the benchmark pins
``CQCOVERT_WORKERS`` to 1).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

# Traced spans, named "<module>.<function>" or "<module>.<Class>.<method>";
# "<module>.<Class>" alone wraps the constructor.
SPANS = (
    "cli.main",
    "channel.load_channel",
    "channel.classify_scenario",
    "channel.average_states",
    "coding.run_experiment",
    "coding.default_epsilon_target",
    "coding.sample_codebook",
    "coding.ProductBasis",
    "coding.ProductBasis.rotated_block",
    "coding.ProductBasis.to_original_basis",
    "coding.build_srm_decoder",
    "coding.exact_pe_bob",
    "coding.product_state",
    "coding.willie_average_state",
    "coding.covertness_report",
    "scaling.optimize_ptilde",
    "scaling._coefficient_pair",
    "scaling.scaling_report",
    "verify.run_suites",
    "divergences.relative_entropy",
    "divergences.chi_squared",
    "divergences.helstrom_error",
    "operators.spectral_decomposition",
    "operators.support_projector",
    "operators.kron_power",
    "operators.eigenvalue_clusters",
)

# Structure counts taken from the return values of two spans (see OBSERVERS).
COUNTS = ("coding.rows", "coding.distinct_rows", "coding.keys", "coding.clusters")


def _count_codebook(counts, args, codebook):
    counts["coding.rows"] += codebook.m_count * codebook.k_count
    counts["coding.distinct_rows"] += len(np.unique(codebook.symbols, axis=0))
    counts["coding.keys"] += codebook.k_count


def _count_clusters(counts, args, _result):
    counts["coding.clusters"] += len(args[0].clusters)


OBSERVERS = {
    "coding.sample_codebook": _count_codebook,
    "coding.ProductBasis": _count_clusters,
}


class Tracer:
    """Installs timing wrappers on ``SPANS`` and aggregates their spans."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, s, self_s]
        self.edges = defaultdict(int)                    # (parent, child) -> calls
        self.counts = defaultdict(int)
        self._stack = []                                 # open spans: [name, child_s]
        self._patches = []

    def _wrap(self, name, fn):
        stats, edges, stack = self.stats[name], self.edges, self._stack
        observe = OBSERVERS.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if parent is not None:
                    parent[1] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
                edges[(parent[0] if parent else None, name)] += 1
            if observe is not None:
                observe(counts, args, result)
            return result
        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "cqcovert" or key.startswith("cqcovert.")]
        for name in SPANS:
            module_name, *path = name.split(".")
            owner = sys.modules[f"cqcovert.{module_name}"]
            if isinstance(getattr(owner, path[0]), type):
                cls = getattr(owner, path[0])
                attr = path[1] if len(path) > 1 else "__init__"
                self._patch(cls, attr, self._wrap(name, cls.__dict__[attr]))
                continue
            original = getattr(owner, path[0])
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
