"""Per-layer spans recorded from outside the library.

The tracer replaces each listed function in every ``pachner33`` module
namespace that binds it (several modules import names directly), and in the
module-level tuples, lists and dicts that hold it (``identities`` runs its
batteries from the ``ALL_BATTERIES`` tuple), records one span per call in
memory and restores the originals afterwards.  A listed function that a
later version no longer has is reported as absent.
"""
from __future__ import annotations

import functools
import gzip
import json
import sys
import time

# Wrapped functions, grouped by the per-operation timings they should move,
# and the workloads on which every function of the group must be called.
# The timing names are those printed for each operation kind.
LAYERS = (
    (
        (
            "geometry.dihedral_angles_from_lengths",
            "geometry.validate_length_table",
            "geometry.cm_squared_volume",
            "jacobians.dtheta_dL_simplex",
            "jacobians.assemble_domega_dL",
        ),
        "invariant_s.n26, invariant_s.n86, jacobian_s.*, compare_s.*; identities_s a little",
        ("ladder", "moves", "identities"),
    ),
    (("jacobians.rank_and_submatrix",), "invariant_s.n406; negligible on identities",
     ("ladder", "moves")),
    (
        (
            "complexes.build_complex",
            "complexes.pachner_33",
            "complexes.move_cluster",
            "flatmetric.realize",
        ),
        "compare_s.join and setup_s, not compare_s.stellar",
        ("moves",),
    ),
    (("invariants.virtual_rebuild",), "compare_s.stellar only", ("moves",)),
    (("invariants.full_invariant",), "self time: products and glue", ("ladder",)),
    (("invariants.compare_under_move",), "self time: products and glue", ("moves",)),
    (("jacobians.assemble_domega_dS", "io.dumps"), "jacobian_s.*; invariant_s.* barely",
     ("ladder",)),
    (("flatmetric.deficit_omega", "flatmetric.deficit_Omega"), "checkflat_s.n406", ("ladder",)),
    (
        (
            "invariants.ClusterSix.omega_gradient",
            "geometry.dihedral_angle",
            "identities.battery_opposite_edge_derivative",
            "identities.battery_two_edge_ratio",
            "identities.battery_six_term",
            "identities.battery_schlafli",
            "identities.battery_modified_schlafli",
            "identities.battery_cluster_closed_forms",
        ),
        "identities_s",
        ("identities",),
    ),
    (("io.load_document", "cli.main"), "self time: parse and report overhead, every operation",
     ("ladder", "moves")),
)

PACKAGE = "pachner33"
TRACED = tuple(name for names, _, _ in LAYERS for name in names)
BYTES_COUNTED = "io.dumps"


def expected_calls(workload):
    """Traced functions that a traced run of `workload` must call."""
    return [name for names, _, workloads in LAYERS if workload in workloads for name in names]


def per_layer_names():
    """(metric name, unit, better) for every metric the traced run reports."""
    out = []
    for name in TRACED:
        out += [
            (f"{name}.calls", "count", "lower"),
            (f"{name}.self_s", "s", "lower"),
            (f"{name}.errors", "count", "lower"),
        ]
    out += [
        (f"{BYTES_COUNTED}.bytes", "bytes", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
    return out


def _replaced(container, original, wrapper):
    """A copy of `container` holding `wrapper` where it held `original`, or None."""
    if isinstance(container, dict):
        if not any(v is original for v in container.values()):
            return None
        return {k: wrapper if v is original else v for k, v in container.items()}
    if not any(v is original for v in container):
        return None
    return type(container)(wrapper if v is original else v for v in container)


class Tracer:
    """Spans (name, start, end, parent, operation) of the wrapped calls."""

    def __init__(self):
        self.names = TRACED
        self.absent = []
        self.spans = []  # (name index, start, end, parent span, op id, raised)
        self.ops = []  # (op id, kind, start, end)
        self.op = None
        self.bytes = 0
        self._stack = []
        self._patches = []

    def _wrap(self, index, original):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        count_bytes = self.names[index] == BYTES_COUNTED

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            raised = True
            start = clock()
            try:
                result = original(*args, **kwargs)
                raised = False
                if count_bytes:
                    self.bytes += len(result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[me] = (index, start, end, parent, self.op, raised)

        return wrapper

    def install(self):
        prefix = PACKAGE + "."
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(prefix))]
        for index, name in enumerate(self.names):
            module_name, *path = name.split(".")
            owner = sys.modules.get(prefix + module_name)
            try:
                for attr in path[:-1]:
                    owner = getattr(owner, attr)
                original = getattr(owner, path[-1])
            except AttributeError:
                self.absent.append(name)
                continue
            wrapper = self._wrap(index, original)
            if len(path) > 1:  # a method: its class is the one binding
                self._patch(owner, path[-1], original, wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, original, wrapper)
                    elif type(value) in (tuple, list, dict):
                        held = _replaced(value, original, wrapper)
                        if held is not None:
                            self._patch(module, attr, value, held)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def begin_op(self, op_id, kind):
        self.op = op_id
        self.ops.append([op_id, kind, time.perf_counter(), None])

    def end_op(self):
        self.ops[-1][3] = time.perf_counter()
        self.op = None

    def totals(self):
        """{name: [calls, self seconds, errors]} over every recorded span."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: [0, 0.0, 0] for name in self.names}
        for n, (index, start, end, _, _, raised) in enumerate(self.spans):
            row = out[self.names[index]]
            row[0] += 1
            row[1] += end - start - child[n]
            row[2] += raised
        return out

    def write(self, path):
        """Operations, then spans, as gzip JSON lines.

        A span line is [name, start, end, parent, operation, raised]; parent
        is the index of the calling span among the span lines, or -1.
        """
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            for op_id, kind, start, end in self.ops:
                fh.write(json.dumps({"op": op_id, "kind": kind, "start": start, "end": end}) + "\n")
            for index, start, end, parent, op_id, raised in self.spans:
                fh.write(json.dumps([self.names[index], start, end, parent, op_id, raised]) + "\n")
