"""Span tracing for the benchmark's traced pass, installed from outside the library.

Each target function is replaced, for the duration of the traced set-up, by
a wrapper at the name its caller looks it up by: ``build_local_kernels`` is
wrapped where ``assembly`` calls it, ``polygon_rule`` where ``local`` calls
it, methods on their class. A wrapper records one span (name, start, end,
parent) in typed arrays kept in memory and, for some targets, counts taken
from the arguments or the result. Self times are derived afterwards: a
span's duration minus the durations of its direct children.

A target that no longer exists is reported as missing by name, never
dropped silently.
"""

from __future__ import annotations

import importlib
import inspect
import time
import types
from array import array
from collections import Counter
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Target:
    """A wrap target: the span name, and where the caller finds the function."""

    span: str
    module: str
    attr: str  # dotted path inside ``module``; may pass through a class or a module

    @property
    def where(self) -> str:
        return f"{self.module}.{self.attr}"


TARGETS = (
    Target("generators.build", "platevem.generators", "build_family"),
    Target("mesh.derive_topology", "platevem.generators", "derive_topology"),
    Target("geometry.star_point", "platevem.geometry", "star_point"),
    Target("local.kernels", "platevem.assembly", "build_local_kernels"),
    Target("local.cell_kernels", "platevem.local", "build_cell_kernels"),
    Target("local.projector", "platevem.local", "elliptic_projector"),
    Target("local.dof_matrix", "platevem.local", "dof_matrix"),
    Target("local.moment_operator", "platevem.local", "moment_operator"),
    Target("local.stiffness", "platevem.local", "local_stiffness"),
    Target("polynomials.eval", "platevem.polynomials", "ScaledMonomialBasis.eval"),
    Target("polynomials.edge_restriction", "platevem.polynomials",
           "ScaledMonomialBasis.edge_restriction"),
    Target("polynomials.derivative_matrix", "platevem.polynomials",
           "ScaledMonomialBasis.derivative_matrix"),
    Target("quadrature.polygon_rule", "platevem.local", "polygon_rule"),
    Target("quadrature.edge_rule", "platevem.local", "edge_rule"),
    Target("quadrature.edge_rule", "platevem.assembly", "edge_rule"),
    Target("plate.grams", "platevem.local", "energy_and_seminorm_grams"),
    Target("plate.edge_operators", "platevem.local", "normal_moment_matrix"),
    Target("plate.edge_operators", "platevem.local", "shear_matrix"),
    Target("plate.edge_operators", "platevem.local", "twist_matrix"),
    Target("assembly.dofmap", "platevem.assembly", "global_dof_map"),
    Target("assembly.dofmap", "platevem.assembly", "GlobalDofMap.boundary_mask"),
    Target("assembly.scatter", "platevem.assembly", "assemble_stiffness"),
    Target("assembly.factor", "platevem.assembly", "spla.splu"),
    Target("assembly.load", "platevem.assembly", "assemble_load"),
    Target("assembly.boundary", "platevem.assembly", "boundary_values"),
    Target("local.load", "platevem.assembly", "local_load"),
    Target("local.compute_dofs", "platevem.convergence", "compute_dofs"),
    Target("convergence.project_exact", "platevem.convergence", "project_exact"),
    Target("convergence.project_solution", "platevem.convergence", "project_solution"),
    Target("convergence.error", "platevem.convergence", "error_2h"),
)


class _ModuleView:
    """Stands in for a module at one caller, overriding some of its names.

    Lets ``assembly.spla.splu`` be wrapped for ``assembly`` alone, without
    touching ``scipy.sparse.linalg`` for everyone else in the process.
    """

    def __init__(self, module: types.ModuleType):
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


class _Factor:
    """The factor ``splu`` returned, with its triangular solves traced."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """In-memory spans and counts of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._restore: list = []

    def wrap(self, span: str, fn, on_result=None):
        """``fn`` recording one span per call; ``on_result(args, result)``
        may count and may replace the result."""
        nid = self._ids.setdefault(span, len(self._ids))
        if nid == len(self.names):
            self.names.append(span)
        clock = time.perf_counter
        name_id, start, end, parent, stack = (
            self.name_id, self.start, self.end, self.parent, self._stack,
        )

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                result = on_result(args, result)
            return result

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        """Wrap every target; record the ones that cannot be found.

        Hooks are keyed by the target's location and count at the boundary.
        """
        hooks = self._hooks()
        for target in targets:
            try:
                owner, parent, name = _resolve(target)
            except (ImportError, AttributeError):
                self.missing.append(target.where)
                continue
            original = inspect.getattr_static(owner, name)
            hook = hooks.get(target.where)
            if isinstance(original, property):
                replacement = property(self.wrap(target.span, original.fget, hook))
            elif callable(original):
                replacement = self.wrap(target.span, original, hook)
            else:
                self.missing.append(target.where)
                continue
            if isinstance(owner, types.ModuleType) and parent is not None:
                # The caller reaches the name through another module: give
                # the caller a view of that module carrying the wrapper.
                view = _ModuleView(owner)
                setattr(view, name, replacement)
                attr = target.attr.split(".")[-2]
                self._restore.append((parent, attr, getattr(parent, attr)))
                setattr(parent, attr, view)
            else:
                self._restore.append((owner, name, original))
                setattr(owner, name, replacement)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _hooks(self) -> dict:
        counts = self.counts

        def factor(args, lu):
            counts["assembly.nnz_LU"] = int(lu.nnz)
            return _Factor(lu, self.wrap("assembly.trisolve", lu.solve))

        def mesh(args, result):
            counts["mesh.cells"] = result.n_cells
            counts["mesh.edges"] = result.n_edges
            counts["mesh.vertices"] = result.n_vertices
            return result

        def cell(args, result):
            counts[f"local.cells_by_nverts.{args[0].n_vertices}"] += 1
            return result

        def rule(args, result):
            counts["quadrature.polygon_points"] += len(result.weights)
            return result

        def dofmap(args, result):
            counts["assembly.n_dofs"] = int(result.n_total)
            return result

        def mask(args, result):
            counts["assembly.n_free"] = int(np.count_nonzero(~result))
            return result

        def scatter(args, result):
            counts["assembly.nnz_A"] = int(result.nnz)
            return result

        return {
            "platevem.assembly.spla.splu": factor,
            "platevem.generators.build_family": mesh,
            "platevem.local.build_cell_kernels": cell,
            "platevem.local.polygon_rule": rule,
            "platevem.assembly.global_dof_map": dofmap,
            "platevem.assembly.GlobalDofMap.boundary_mask": mask,
            "platevem.assembly.assemble_stiffness": scatter,
        }

    # -- analysis -----------------------------------------------------------

    def spans(self) -> dict:
        """Spans as arrays, plus each span's self time."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        duration = end - start
        child = np.zeros(len(start))
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        return {
            "names": np.array(self.names),
            "name_id": name_id,
            "start": start,
            "end": end,
            "parent": parent,
            "self": duration - child,
        }

    def totals(self) -> dict:
        """Per span name: calls, self time and inclusive time."""
        sp = self.spans()
        n = len(self.names)
        calls = np.bincount(sp["name_id"], minlength=n)
        self_s = np.bincount(sp["name_id"], weights=sp["self"], minlength=n)
        incl_s = np.bincount(sp["name_id"], weights=sp["end"] - sp["start"], minlength=n)
        return {
            name: (int(calls[i]), float(self_s[i]), float(incl_s[i]))
            for i, name in enumerate(self.names)
        }

    def root_time(self, t_from: float, t_to: float) -> float:
        """Summed duration of top-level spans inside ``[t_from, t_to]``."""
        sp = self.spans()
        top = (sp["parent"] < 0) & (sp["start"] >= t_from) & (sp["end"] <= t_to)
        return float((sp["end"][top] - sp["start"][top]).sum())

    def save(self, path) -> None:
        np.savez(path, **self.spans())


def _resolve(target: Target):
    """(owner, owner's parent or None, name) of a target's attribute."""
    obj = importlib.import_module(target.module)
    parts = target.attr.split(".")
    parent = None
    for part in parts[:-1]:
        parent, obj = obj, getattr(obj, part)
    inspect.getattr_static(obj, parts[-1])  # raises AttributeError when absent
    return obj, parent, parts[-1]
