"""Shared fixtures: randomized polygon corpus and cached meshes."""

from __future__ import annotations

import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from platevem import assembly, local
from platevem.mesh import PolygonMesh, derive_topology, validate_regularity
from platevem.plate import DEFAULT_MATERIAL
from platevem.quadrature import polygon_rule

from oracles import (
    ScaledMonomialBasis,
    edge_normal_slice,
    edge_rule,
    edge_value_slice,
    group_frame,
    normal_moment_matrix,
    outward_normal,
    regularity_passes,
    shear_matrix,
    traversal_tangent,
    twist_matrix,
)


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_module(name: str):
    """Import ``perfbench/<name>.py`` by path, registered once."""
    key = f"perfbench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module
        spec.loader.exec_module(module)
    return sys.modules[key]


def random_star_polygon(rng: np.random.Generator, n_vertices: int) -> np.ndarray:
    """Star polygon with jittered angles and bounded radii.

    Rejection keeps the corpus at the shape regularity of the generated mesh
    families (their reports all pass 0.15), the regime the method targets.
    """
    for _ in range(200):
        jitter = rng.uniform(0.35, 0.65, n_vertices)
        angles = 2.0 * np.pi * (np.arange(n_vertices) + jitter) / n_vertices
        radii = rng.uniform(0.7, 1.0, n_vertices) * rng.uniform(0.05, 1.0)
        center = rng.uniform(0.2, 0.8, 2)
        verts = center + np.column_stack(
            [radii * np.cos(angles), radii * np.sin(angles)]
        )
        mesh = derive_topology(verts, [list(range(n_vertices))])
        if regularity_passes(validate_regularity(mesh), 0.15):
            return verts
    raise RuntimeError("could not draw a shape-regular polygon")


def single_cell_mesh(vertices: np.ndarray) -> PolygonMesh:
    return derive_topology(vertices, [list(range(len(vertices)))])


@dataclass
class CellView:
    """One cell's rows of the kernel group stacks, with its global unknowns.

    Carries what a ``LocalKernels`` record carries (the cell's group, its
    row ``k`` there and its load operator row), so ``local.local_load``
    accepts it, plus the cell's frame, stiffness block, projector and
    seminorm rows, its scaled monomial basis and the transform T of its
    element basis q = T m, which the projector and seminorm rows are in.
    ``moment_op`` and ``moment_mass`` are the interior moment operator and
    the Gram of the degree order - 2 monomials, which the load operator
    combines: from ``local.moment_operator`` and the exact cell moments.
    """

    group: object
    k: int
    frame: object
    layout: local.DofLayout
    basis: ScaledMonomialBasis
    dofs: np.ndarray  # global indices of the cell's unknowns, layout order
    pi: np.ndarray
    stiffness: np.ndarray
    load_op: np.ndarray
    moment_op: np.ndarray
    moment_mass: np.ndarray
    seminorm_gram: np.ndarray
    transform: np.ndarray

    def element_values(self, points: np.ndarray) -> np.ndarray:
        """Values of the element basis at ``points``: (len(points), dim)."""
        return self.basis.eval(points) @ self.transform.T

    def element_gram(self, gram: np.ndarray) -> np.ndarray:
        """T M T^T of a Gram matrix M of the scaled monomials."""
        return self.transform @ gram @ self.transform.T


def cell_views(mesh: PolygonMesh, order: int, material=DEFAULT_MATERIAL) -> list[CellView]:
    """Per-cell views of a mesh's kernel groups, in mesh cell order."""
    kernels, stiffness = local.build_local_kernels(mesh, order, material)
    dofmap = assembly.global_dof_map(mesh, order)
    views: list = [None] * mesh.n_cells
    for group, stiff, cells in zip(kernels, stiffness, mesh.cell_groups()):
        dofs = dofmap.group_dofs(group.index)
        gb = local.group_basis(cells, order)
        moment_op = local.moment_operator(gb, group.pi)
        mid = moment_op.shape[1]
        moment_mass = gb.moments[:, local._order_tables(order).mass[:mid, :mid]]
        for k, c in enumerate(group.index):
            kern = group.cells[k]
            frame = group_frame(mesh, kern.group, kern.k)
            views[c] = CellView(
                group=kern.group,
                k=kern.k,
                frame=frame,
                layout=group.layout,
                basis=ScaledMonomialBasis(frame.centroid, frame.diameter, order),
                dofs=dofs[k],
                pi=group.pi[k],
                stiffness=stiff[k],
                load_op=group.load_op[k],
                moment_op=moment_op[k],
                moment_mass=moment_mass[k],
                seminorm_gram=group.seminorm_gram[k],
                transform=gb.transform[k],
            )
    return views


def cell_kernels(mesh: PolygonMesh, order: int) -> CellView:
    """Kernels of the only cell of a one-cell mesh."""
    return cell_views(mesh, order)[0]


def reference_project_solution(views: list[CellView], solution: np.ndarray) -> np.ndarray:
    """Cell-by-cell projection coefficients: one matvec per cell."""
    return np.array([v.pi @ solution[v.dofs] for v in views])


def reference_seminorm_2h(views: list[CellView], coefficients: np.ndarray) -> float:
    """Cell-by-cell broken H2 seminorm: one quadratic form per cell."""
    total = 0.0
    for v, c in zip(views, coefficients):
        total += float(c @ v.seminorm_gram @ c)
    return float(np.sqrt(max(total, 0.0)))


def reference_seminorm_scale(views: list[CellView], coefficients: np.ndarray) -> float:
    """Cell-by-cell form of the scale of ``convergence.seminorm_terms``."""
    total = 0.0
    for v, c in zip(views, coefficients):
        total += float(np.abs(v.seminorm_gram).max() * (c**2).sum())
    return float(np.sqrt(total))


def reference_load(views: list[CellView], n_total: int, f) -> np.ndarray:
    """Cell-by-cell load by a solve with the moment mass: each cell's
    pairings moment_op^T mass^-1 (integrals of f against the degree
    order - 2 monomials, by its fan rule), added in cell order."""
    b = np.zeros(n_total)
    for v in views:
        rule = polygon_rule(v.frame.vertices, v.frame.star, local.data_degree(v.layout.order))
        vals = v.basis.eval(rule.points)[:, : len(v.moment_mass)]
        fmom = vals.T @ (rule.weights * f(rule.points[:, 0], rule.points[:, 1]))
        np.add.at(b, v.dofs, v.moment_op.T @ np.linalg.solve(v.moment_mass, fmom))
    return b


def group_stabilization(group, order: int) -> np.ndarray:
    """Stabilization stack s (I - D pi)^T (I - D pi), s = rigidity / h^2, of a
    group, from the projector and unknowns ``local`` builds."""
    gb = local.group_basis(group, order)
    gram, _ = local.energy_grams(gb, DEFAULT_MATERIAL)
    dofs = local.dof_matrix(gb)
    pi = local.elliptic_projector(gb, DEFAULT_MATERIAL, gram, dofs)
    residual = np.eye(dofs.shape[1]) - dofs @ pi
    scale = DEFAULT_MATERIAL.rigidity / group.diameters**2
    return scale[:, None, None] * (np.swapaxes(residual, 1, 2) @ residual)


def cell_group_basis(mesh: PolygonMesh, order: int):
    """Batched basis data of a one-cell mesh (a group of one cell)."""
    (group,) = mesh.cell_groups()
    return local.group_basis(group, order)


def cell_dof_matrix(mesh: PolygonMesh, order: int) -> np.ndarray:
    """Unknowns of the element basis of the only cell of a one-cell mesh."""
    return local.dof_matrix(cell_group_basis(mesh, order))[0]


def cell_interpolant(mesh: PolygonMesh, order: int, w, grad_w) -> np.ndarray:
    """Unknowns of a smooth function on a one-cell mesh, in local layout order.

    A one-cell mesh numbers its unknowns exactly as the local layout does,
    which ``test_one_cell_numbering_is_local_layout`` checks.
    """
    return assembly.interpolate(assembly.global_dof_map(mesh, order), w, grad_w)


def reference_cell_dofs(frame, order: int, w, grad_w) -> np.ndarray:
    """Local unknowns of a smooth function on one cell, edge by edge.

    Independent route to the interpolant: one edge rule per local edge, laid
    in the global orientation, with the centered edge variable recomputed
    from the quadrature points; the interior moments use the cell's fan rule.
    """
    layout = local.DofLayout(order, frame.n_vertices)
    degree = order + 8
    out = np.empty(layout.n_total)
    out[: layout.n_vertices] = w(frame.vertices[:, 0], frame.vertices[:, 1])
    for i in range(frame.n_vertices):
        p0 = frame.vertices[i]
        p1 = frame.vertices[(i + 1) % frame.n_vertices]
        if frame.edge_signs[i] < 0:
            p0, p1 = p1, p0
        rule = edge_rule(p0, p1, degree)
        x, y = rule.points[:, 0], rule.points[:, 1]
        mid = 0.5 * (p0 + p1)
        that = 2.0 * ((rule.points - mid) @ frame.tangents[i]) / frame.edge_lengths[i]
        gx, gy = grad_w(x, y)
        dn = frame.normals[i][0] * gx + frame.normals[i][1] * gy
        wvals = w(x, y)
        for k in range(layout.n_edge_normal):
            out[edge_normal_slice(layout, i)][k] = rule.weights @ (dn * that**k)
        for k in range(layout.n_edge_value):
            out[edge_value_slice(layout, i)][k] = (
                rule.weights @ (wvals * that**k) / frame.edge_lengths[i]
            )
    if layout.n_cell:
        rule = polygon_rule(frame.vertices, frame.star, degree)
        low = ScaledMonomialBasis(frame.centroid, frame.diameter, order - 4)
        vals_low = low.eval(rule.points)
        wvals = w(rule.points[:, 0], rule.points[:, 1])
        out[layout.cell_slice] = vals_low.T @ (rule.weights * wvals) / frame.area
    return out


def dense_lower(cholesky) -> tuple[np.ndarray, np.ndarray]:
    """The factor L of a ``multifrontal.Cholesky`` as a dense matrix in
    elimination order, and the mask of the entries its fronts store."""
    n = len(cholesky.tree.perm)
    lower = np.zeros((n, n))
    stored = np.zeros((n, n), dtype=bool)
    for start, updates, diagonal, below in cholesky.fronts:
        stop = start + len(diagonal)
        rows = np.concatenate([np.arange(start, stop), updates])
        panel = np.vstack([np.tril(diagonal), below])
        keep = rows[:, None] >= np.arange(start, stop)
        lower[rows[:, None], np.arange(start, stop)] = np.where(keep, panel, 0.0)
        stored[rows[:, None], np.arange(start, stop)] = keep
    return lower, stored


def polygon_corpus(seed: int, count: int) -> list[PolygonMesh]:
    """Seeded corpus of single-cell meshes with 3 to 8 vertices."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        m = int(rng.integers(3, 9))
        out.append(single_cell_mesh(random_star_polygon(rng, m)))
    return out


@pytest.fixture(scope="session")
def small_corpus():
    return polygon_corpus(seed=2024, count=20)


@pytest.fixture(scope="session")
def unit_square_mesh():
    return single_cell_mesh(
        np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    )


@pytest.fixture(scope="session")
def mesh_cache():
    """Session-wide cache of generated family meshes keyed by (family, n)."""
    from platevem.generators import build_family

    cache: dict = {}

    def get(family: str, n: int, seed: int = 0):
        key = (family, n, seed)
        if key not in cache:
            cache[key] = build_family(family, n, seed)
        return cache[key]

    return get


def boundary_identity_expansion(frame, basis, material, rule):
    """Energy pairings assembled from the integration-by-parts identity.

    Independent route cross-checking the volume Gram matrix: interior
    bilaplacian term plus edge moment, shear, and endpoint twist pairings,
    all evaluated by quadrature on the cell traversal.
    """
    bilap = basis.bilaplacian_matrix()
    vals = basis.eval(rule.points)
    mass = (vals * rule.weights[:, None]).T @ vals
    out = material.rigidity * (mass @ bilap).T
    m = frame.n_vertices
    for i in range(m):
        a = frame.vertices[i]
        b = frame.vertices[(i + 1) % m]
        n_out = outward_normal(frame, i)
        t_out = traversal_tangent(frame, i)
        erule = edge_rule(a, b, 2 * basis.order)
        evals = basis.eval(erule.points)
        egrads = n_out[0] * basis.eval(erule.points, (1, 0)) + n_out[1] * basis.eval(
            erule.points, (0, 1)
        )
        mnn_vals = evals @ normal_moment_matrix(basis, n_out, material)
        shear_vals = evals @ shear_matrix(basis, n_out, t_out, material)
        out += mnn_vals.T @ (erule.weights[:, None] * egrads)
        out -= shear_vals.T @ (erule.weights[:, None] * evals)
        twist = twist_matrix(basis, n_out, t_out, material)
        for point, sign in ((a, -1.0), (b, 1.0)):
            pvals = basis.eval(point[None, :])[0]
            out += sign * np.outer(twist.T @ pvals, pvals)
    return out


def divergence_theorem_integrals(frame, basis):
    """Closed-form polygon integrals of the basis via boundary quadrature."""

    total = np.zeros(basis.dim)
    m = frame.n_vertices
    for i in range(m):
        a = frame.vertices[i]
        b = frame.vertices[(i + 1) % m]
        rule = edge_rule(a, b, basis.order + 3)
        tangent = (b - a) / np.linalg.norm(b - a)
        normal = np.array([tangent[1], -tangent[0]])
        x = rule.points[:, 0]
        y = rule.points[:, 1]
        xi = (x - basis.center[0]) / basis.h
        eta = (y - basis.center[1]) / basis.h
        for k, (p, q) in enumerate(basis.exponents):
            antider = basis.h * xi ** (p + 1) * eta**q / (p + 1)
            total[k] += rule.weights @ (antider * normal[0])
    return total
