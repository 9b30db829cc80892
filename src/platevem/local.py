"""Per-cell virtual element machinery.

Local unknowns of a cell with m vertices, ordered as

* vertex values, one per vertex;
* per edge, moments of the normal derivative against powers of the centered
  edge variable up to degree order - 2 (un-normalized integrals);
* per edge and order >= 3, length-averaged moments of the trace against
  powers up to degree order - 3;
* for order >= 4, area-averaged interior moments against the scaled cell
  monomials up to degree order - 4.

Edge quantities are always taken in the global edge convention (normal and
centered arclength induced by the lower-to-higher vertex orientation) so
that the two cells sharing an edge address identical functionals. Edge
moment test polynomials are powers of t = 2 (s - s_mid) / |e| in [-1, 1];
the doubled variable keeps high-order moment columns of the local systems
away from underflow-like scales.

The kernels of all cells with the same vertex count are built together:
every array below carries the cells of one group on axis 0. A group too
large for one pass is taken in chunks of consecutive cells, each chunk
holding as many cells as keep its stiffness stack within
``KERNEL_CHUNK_BYTES``, so that the temporaries of a high-order build stay
cache-sized; every chunk writes its rows into the group's stacks. Volume
integrals of products of monomials are gathered from one table of exact
cell moments, which come from edge integrals alone; no cell quadrature is
involved. Quadrature serves only non-polynomial data: fan rules for loads
and interior moments, one Gauss-Legendre rule for the edge moments of an
interpolated function.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .mesh import CellFrame, CellGroup
from .plate import MaterialParams
from .polynomials import (
    ScaledMonomialBasis,
    _derivative_factors,
    centered_power_moments,
    derivative_map,
    exponent_table,
    monomials,
    power_table,
    space_dim,
)
from .quadrature import FanPointError, fan_rules, gauss_legendre, polygon_rule


class ProjectorError(Exception):
    """Singular local projector system, or a projector that fails to
    reproduce polynomials (degenerate or badly shaped cell)."""


# Largest exact polynomial-reproduction residual max |I - pi D| a cell's
# projector may keep. Shape-regular cells of the mesh families stay below
# about 2e-10 at order 5; a badly shaped cell whose conditioning has
# destroyed its projector lands many orders of magnitude above.
REPRODUCTION_TOL = 1e-8


@dataclass(frozen=True)
class DofLayout:
    """Index layout of the local unknowns of one cell."""

    order: int
    n_vertices: int

    @property
    def n_edge_normal(self) -> int:
        return self.order - 1

    @property
    def n_edge_value(self) -> int:
        return self.order - 2 if self.order >= 3 else 0

    @property
    def n_cell(self) -> int:
        return space_dim(self.order - 4)

    @property
    def n_total(self) -> int:
        return self.n_vertices * (1 + self.n_edge_normal + self.n_edge_value) + self.n_cell

    def vertex_index(self, i: int) -> int:
        return i

    def edge_normal_slice(self, i: int) -> slice:
        start = self.n_vertices + i * self.n_edge_normal
        return slice(start, start + self.n_edge_normal)

    def edge_value_slice(self, i: int) -> slice:
        start = self.n_vertices * (1 + self.n_edge_normal) + i * self.n_edge_value
        return slice(start, start + self.n_edge_value)

    @property
    def cell_slice(self) -> slice:
        start = self.n_vertices * (1 + self.n_edge_normal + self.n_edge_value)
        return slice(start, start + self.n_cell)


def dof_layout(n_vertices: int, order: int) -> DofLayout:
    """Local layout for a cell with ``n_vertices`` vertices at ``order`` >= 2."""
    if order < 2:
        raise ValueError("order must be at least 2")
    return DofLayout(order, n_vertices)


@dataclass(frozen=True)
class _OrderTables:
    """Constant index and coefficient tables of one order (shared, read-only).

    ``mass``, ``xx``, ``yy`` and ``mixed`` index the flat cell moment table
    of :func:`group_basis`: entry (j, k) of ``mass`` addresses the moment of
    m_j m_k, and ``xx``, ``yy``, ``mixed`` those of the products of second
    derivatives d_xx m_j d_xx m_k, d_yy m_j d_yy m_k and every product
    carrying two x and two y derivatives in total. Absent products point at
    the table's final zero entry. The ``c_*`` matrices hold the matching
    products of derivative factors.
    """

    mass: np.ndarray  # (dim_{order-2}, dim)
    xx: np.ndarray  # (dim, dim)
    yy: np.ndarray
    mixed: np.ndarray
    c_xx: np.ndarray  # d_xx x d_xx
    c_yy: np.ndarray  # d_yy x d_yy
    c_cross: np.ndarray  # d_xx x d_yy + d_yy x d_xx
    c_xy: np.ndarray  # d_xy x d_xy
    first: np.ndarray  # (2, dim, dim) unit-scale maps of d_x, d_y
    second: np.ndarray  # (3, dim, dim) d_xx, d_xy, d_yy
    third: np.ndarray  # (4, dim, dim) d_xxx, d_xxy, d_xyy, d_yyy
    bilap: np.ndarray  # (dim, dim) unit-scale bilaplacian
    normal_pairing: np.ndarray  # (order - 1, order + 1) t^k against s^j
    value_pairing: np.ndarray  # (n_edge_value, order + 1)


def _moment_degree(order: int) -> int:
    """Highest total degree of a moment any kernel reads: order + (order - 2)."""
    return 2 * order - 2


@lru_cache(maxsize=None)
def _order_tables(order: int) -> _OrderTables:
    degree = _moment_degree(order)
    width = degree + 1
    exps = exponent_table(order)
    a = exps[:, 0, None] + exps[None, :, 0]
    b = exps[:, 1, None] + exps[None, :, 1]

    def flat(da, db):
        aa, bb = a - da, b - db
        ok = (aa >= 0) & (bb >= 0) & (aa + bb <= degree)
        return np.where(ok, aa * width + bb, width * width)

    fxx, fxy, fyy = (_derivative_factors(order, i, j) for i, j in ((2, 0), (1, 1), (0, 2)))
    lap = derivative_map(order, 2, 0) + derivative_map(order, 0, 2)
    sigma = centered_power_moments(2 * order)
    n = order + 1
    layout = dof_layout(3, order)

    def pairing(rows):
        return np.array([2.0**k * sigma[k : k + n] for k in range(rows)]).reshape(rows, n)

    def maps(pairs):
        return np.stack([derivative_map(order, i, j) for i, j in pairs])

    tables = _OrderTables(
        mass=flat(0, 0)[: space_dim(order - 2)],
        xx=flat(4, 0),
        yy=flat(0, 4),
        mixed=flat(2, 2),
        c_xx=np.outer(fxx, fxx),
        c_yy=np.outer(fyy, fyy),
        c_cross=np.outer(fxx, fyy) + np.outer(fyy, fxx),
        c_xy=np.outer(fxy, fxy),
        first=maps(((1, 0), (0, 1))),
        second=maps(((2, 0), (1, 1), (0, 2))),
        third=maps(((3, 0), (2, 1), (1, 2), (0, 3))),
        bilap=lap @ lap,
        normal_pairing=pairing(layout.n_edge_normal),
        value_pairing=pairing(layout.n_edge_value),
    )
    for value in vars(tables).values():
        value.flags.writeable = False
    return tables


@dataclass(frozen=True)
class GroupBasis:
    """Scaled cell monomials of one order on every cell of a group.

    Holds the closed-form data every local operator is built from: the
    exact cell moments, the basis values at the vertices, and the exact
    restrictions of the basis to the edges in the global edge orientation.
    """

    group: CellGroup
    layout: DofLayout
    moments: np.ndarray  # (G, (2 order - 1)^2 + 1), see _cell_moments
    vertex_values: np.ndarray  # (G, m, dim)
    restrictions: np.ndarray  # (G, m, order + 1, dim): s-coefficients per edge

    @property
    def order(self) -> int:
        return self.layout.order


def _cell_moments(scaled: np.ndarray, diameters: np.ndarray, degree: int) -> np.ndarray:
    """Exact integrals of xi^a eta^b over each cell, for a + b <= degree.

    ``scaled`` holds the vertices in each cell's scaled coordinates
    (xi, eta) = (x - x_c) / h. Row c of the result holds the moment of
    xi^a eta^b at position a * (degree + 1) + b, zeros where a + b > degree,
    and one trailing zero that gathers of absent products point at.

    xi^a eta^b is homogeneous of degree d = a + b about the centroid, so by
    the homogeneous-function theorem (Chin, Lasserre and Sukumar, Comput.
    Mech. 2015) its integral is (d + 2)^-1 sum_e (x_e . n_e) int_e f, for
    any point x_e of edge e; with x_e the edge start, (x_e . n_e) |e| is the
    cross product of the edge's end points. The edge integrals use
    Gauss-Legendre rules exact to ``degree``.
    """
    nxt = np.roll(scaled, -1, axis=1)
    cross = scaled[..., 0] * nxt[..., 1] - scaled[..., 1] * nxt[..., 0]  # (G, m)
    nodes, weights = gauss_legendre(degree // 2 + 1)
    tau = 0.5 * (nodes + 1.0)
    points = scaled[:, :, None, :] + tau[:, None] * (nxt - scaled)[:, :, None, :]
    px = power_table(points[..., 0], degree)  # (G, m, n_gauss, degree + 1)
    py = power_table(points[..., 1], degree)
    table = np.einsum("cmg,cmga,cmgb->cab", cross[..., None] * (0.5 * weights), px, py)
    a, b = np.indices(table.shape[1:])
    table = np.where(a + b <= degree, table / (a + b + 2), 0.0)
    table *= diameters[:, None, None] ** 2  # back from scaled to physical area
    flat = np.zeros((len(table), table[0].size + 1))
    flat[:, :-1] = table.reshape(len(table), -1)
    return flat


def group_basis(group: CellGroup, order: int) -> GroupBasis:
    """Moments, vertex values and edge restrictions of a group's cell bases."""
    layout = dof_layout(group.n_vertices, order)
    exps = exponent_table(order)
    h = group.diameters[:, None, None]
    scaled = (group.vertices - group.centroids[:, None, :]) / h
    vertex_values = monomials(scaled[..., 0], scaled[..., 1], order)

    # Edge i in the global orientation runs p0 -> p1, x(s) = mid + s (p1 - p0)
    # for s in [-1/2, 1/2]; each scaled coordinate is c0 + c1 s along it.
    nxt = np.roll(group.vertices, -1, axis=1)
    forward = (group.edge_signs > 0)[..., None]
    p0 = np.where(forward, group.vertices, nxt)
    p1 = np.where(forward, nxt, group.vertices)
    c0 = ((0.5 * (p0 + p1) - group.centroids[:, None, :]) / h)[..., None]
    c1 = ((p1 - p0) / h)[..., None]
    # pw[..., x, i, p]: coefficient of s^p in (c0 + c1 s)^i for coordinate x
    n = order + 1
    pw = np.zeros(c0.shape[:-1] + (n, n))
    pw[..., 0, 0] = 1.0
    for i in range(1, n):
        pw[..., i, : i + 1] = c0 * pw[..., i - 1, : i + 1]
        pw[..., i, 1 : i + 1] += c1 * pw[..., i - 1, :i]
    pa = pw[..., 0, exps[:, 0], :]  # (G, m, dim, n)
    pb = pw[..., 1, exps[:, 1], :]
    restrictions = np.zeros(pa.shape[:2] + (n, len(exps)))
    for p in range(n):
        for q in range(n - p):
            restrictions[..., p + q, :] += pa[..., p] * pb[..., q]

    moments = _cell_moments(scaled, group.diameters, _moment_degree(order))
    return GroupBasis(group, layout, moments, vertex_values, restrictions)


def _by_unknown(vertex, edge_normal, edge_value, interior) -> np.ndarray:
    """Stack per-unknown rows (G, ., dim) in layout order: (G, n_total, dim)."""
    g, _, dim = vertex.shape
    edges = [edge_normal.reshape(g, -1, dim), edge_value.reshape(g, -1, dim)]
    return np.concatenate([vertex, *edges, interior], axis=1)


def energy_grams(gb: GroupBasis, material: MaterialParams):
    """Energy and broken-H2 seminorm Gram matrices of the basis, (G, dim, dim).

    The energy Gram is symmetric positive semidefinite with the linear
    polynomials as kernel; the seminorm counts each mixed derivative once.
    """
    t = _order_tables(gb.order)
    scale = gb.group.diameters[:, None, None] ** -4.0
    straight = gb.moments[:, t.xx] * t.c_xx + gb.moments[:, t.yy] * t.c_yy
    mixed = gb.moments[:, t.mixed]
    nu = material.poisson
    coupling = nu * t.c_cross + 2.0 * (1.0 - nu) * t.c_xy
    energy = material.rigidity * scale * (straight + coupling * mixed)
    seminorm = scale * (straight + t.c_xy * mixed)
    return energy, seminorm


def dof_matrix(gb: GroupBasis) -> np.ndarray:
    """Unknowns of every basis monomial: (G, n_total, dim), exact.

    Edge moments pair the exact edge restrictions with the closed-form
    integrals of centered powers; interior moments are gathered from the
    cell moments.
    """
    group, layout = gb.group, gb.layout
    t = _order_tables(gb.order)
    restr = gb.restrictions
    by_axis = restr[..., None, :, :] @ t.first  # (G, m, 2, order + 1, dim)
    normal = np.einsum("gmx,gmxkd->gmkd", group.normals, by_axis)
    normal /= group.diameters[:, None, None, None]
    edge_normal = group.edge_lengths[..., None, None] * (t.normal_pairing @ normal)
    edge_value = t.value_pairing @ restr
    interior = gb.moments[:, t.mass[: layout.n_cell]] / group.areas[:, None, None]
    return _by_unknown(gb.vertex_values, edge_normal, edge_value, interior)


def load_rows(gb: GroupBasis, material: MaterialParams) -> np.ndarray:
    """Energy pairings a(m_beta, .) of all monomials against the unknowns.

    Row beta of each returned (dim x n_total) block represents the
    functional v -> a_K(m_beta, v) through the boundary expansion of the
    cell energy (interior bilaplacian, edge bending moment and effective
    shear, corner twist), which involves only the local unknowns.
    """
    group, layout = gb.group, gb.layout
    t = _order_tables(gb.order)
    rigidity, nu = material.rigidity, material.poisson
    h = group.diameters[:, None]
    nx, ny = group.normals[..., 0], group.normals[..., 1]
    tx, ty = group.tangents[..., 0], group.tangents[..., 1]
    sign = group.edge_signs
    restr = gb.restrictions
    # restrictions come in powers of s in [-1/2, 1/2]; the edge moments pair
    # against powers of t = 2 s, so coefficient k picks up 2^-k
    halving = 0.5 ** np.arange(layout.order + 1)

    # bending moment D (nu Lap + (1 - nu) d_nn), even in the normal
    n_mom = layout.n_edge_normal
    w_moment = np.stack(
        [nu + (1.0 - nu) * nx**2, 2.0 * (1.0 - nu) * nx * ny, nu + (1.0 - nu) * ny**2],
        axis=-1,
    ) * (rigidity / h**2)[..., None]
    moment = np.einsum("gmx,gmxkd->gmkd", w_moment, restr[..., None, :n_mom, :] @ t.second)
    edge_normal = (sign[..., None, None] * halving[:n_mom, None]) * moment

    # effective shear D (d_n Lap + (1 - nu) d_ntt) on the outward pair
    # (sign n, sign t), odd in the pair
    n_val = layout.n_edge_value
    w_shear = np.stack(
        [
            nx + (1.0 - nu) * tx**2 * nx,
            ny + (1.0 - nu) * (tx**2 * ny + 2.0 * tx * ty * nx),
            nx + (1.0 - nu) * (ty**2 * nx + 2.0 * tx * ty * ny),
            ny + (1.0 - nu) * ty**2 * ny,
        ],
        axis=-1,
    ) * (sign * rigidity / h**3)[..., None]
    shear = np.einsum("gmx,gmxkd->gmkd", w_shear, restr[..., None, :n_val, :] @ t.third)
    edge_value = -(group.edge_lengths[..., None, None] * halving[:n_val, None]) * shear

    # corner twist D (1 - nu) d_nt, even in the pair: -1 at the edge start,
    # +1 at its end, which is the next vertex
    w_twist = np.stack([nx * tx, nx * ty + ny * tx, ny * ty], axis=-1) * (
        rigidity * (1.0 - nu) / h**2
    )[..., None]
    at_vertex = (gb.vertex_values[..., None, None, :] @ t.second)[..., 0, :]  # (G, m, 3, dim)
    start = np.einsum("gmx,gmxd->gmd", w_twist, at_vertex)
    end = np.einsum("gmx,gmxd->gmd", w_twist, np.roll(at_vertex, -1, axis=1))
    vertex = np.roll(end, 1, axis=1) - start

    scale = rigidity * group.areas / group.diameters**4
    interior = scale[:, None, None] * t.bilap[: layout.n_cell]
    return _by_unknown(vertex, edge_normal, edge_value, interior).transpose(0, 2, 1)


def _solve_saddle(saddle: np.ndarray, rhs: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Batched solve; a failure is blamed on the first cell that fails alone."""
    try:
        sol = np.linalg.solve(saddle, rhs)
    except np.linalg.LinAlgError as exc:
        for k in range(len(saddle)):
            try:
                np.linalg.solve(saddle[k], rhs[k])
            except np.linalg.LinAlgError:
                raise ProjectorError(f"cell {cells[k]}: singular projector system") from exc
        raise ProjectorError(
            f"{len(cells)}-cell group from cell {cells[0]}: singular projector system"
        ) from exc
    bad = ~np.isfinite(sol).all(axis=(1, 2))
    if bad.any():
        cell = cells[np.argmax(bad)]
        raise ProjectorError(f"cell {cell}: projector system produced non-finite values")
    return sol


def _saddle_system(gb: GroupBasis, material: MaterialParams, gram: np.ndarray):
    """Projector systems [[G, C^T], [C, 0]] and right-hand sides [B; D].

    B holds the energy pairings of the monomials against the unknowns; C and
    D the vertex-average pairings against the linear monomials, read off the
    basis and the vertex unknowns, which close the rank-3 deficiency of G.
    """
    b = load_rows(gb, material)
    lin = np.swapaxes(gb.vertex_values[..., :3], 1, 2)  # (G, 3, m): 1, x, y
    g, n, n_total = b.shape
    saddle = np.zeros((g, n + 3, n + 3))
    saddle[:, :n, :n] = gram
    saddle[:, n:, :n] = lin @ gb.vertex_values
    saddle[:, :n, n:] = np.swapaxes(saddle[:, n:, :n], 1, 2)
    rhs = np.zeros((g, n + 3, n_total))
    rhs[:, :n] = b
    rhs[:, n:, : gb.layout.n_vertices] = lin
    return saddle, rhs


def split_on_grid(x: np.ndarray, axis: int, bits: int):
    """Exact split ``x = hi + lo`` with hi on a power-of-two grid per row or column.

    Along ``axis`` (-1: per row, -2: per column) the largest magnitude is
    bounded by 2^tau, and hi rounds every entry to a multiple of
    2^(tau - bits), so hi / 2^(tau - bits) is an integer of magnitude at most
    2^bits. lo = x - hi is exact: hi lies within half a grid step of x, on a
    grid no finer than the last bit of x.
    """
    _, tau = np.frexp(np.abs(x).max(axis=axis, keepdims=True))
    grid = np.ldexp(1.0, tau - bits)
    hi = np.rint(x / grid) * grid
    return hi, x - hi


def split_bits(n_inner: int) -> int:
    """Grid bits for which every partial sum of ``hi @ hi`` is exact.

    Each product of two hi entries is an integer of at most 2^(2 bits) on
    the grid of its row and column, so ``n_inner`` of them sum to below
    2^51 and never round in float64 whatever order the matmul adds them in.
    """
    return (51 - (n_inner - 1).bit_length()) // 2


def reproduction_residual(pi_split, dofs_split) -> np.ndarray:
    """I - pi D from the splits of pi by rows and of D by columns.

    The product of the hi parts is exact, and so is subtracting it from I
    wherever it is within a factor two of I (Sterbenz); only the three
    products with a lo factor round, at 2^-bits of the size of |pi| |D|
    (Ozaki, Ogita, Oishi and Rump, "Error-free transformations of matrix
    multiplication by using fast routines of matrix multiplication",
    Numer. Algorithms 2012).
    """
    (p_hi, p_lo), (d_hi, d_lo) = pi_split, dofs_split
    residual = p_hi @ d_hi
    residual *= -1.0
    diag = np.arange(residual.shape[1])
    residual[:, diag, diag] += 1.0
    residual -= p_hi @ d_lo + p_lo @ d_hi
    residual -= p_lo @ d_lo
    return residual


def elliptic_projector(
    gb: GroupBasis,
    material: MaterialParams,
    gram: np.ndarray,
    dofs_of_basis: np.ndarray,
) -> np.ndarray:
    """Energy projector onto polynomials, computable from the unknowns.

    Returns pi (G, dim, n_total): coefficients of the projected polynomial
    per unit unknown, satisfying ``pi @ dofs_of_basis = identity`` to
    within ``REPRODUCTION_TOL``; a cell that misses it raises
    :class:`ProjectorError`.
    """
    n = gram.shape[1]
    cells = gb.group.index
    pi = _solve_saddle(*_saddle_system(gb, material, gram), cells)[:, :n]
    # One Newton-Schulz step squares the polynomial-reproduction residual,
    # which the monomial conditioning would otherwise amplify at high order.
    # A float64 residual would bottom out at the rounding floor of the
    # large-coefficient products pi D, so it is formed from exact splits.
    bits = split_bits(dofs_of_basis.shape[1])
    dofs_split = split_on_grid(dofs_of_basis, -2, bits)
    pi = pi + reproduction_residual(split_on_grid(pi, -1, bits), dofs_split) @ pi
    worst = np.abs(reproduction_residual(split_on_grid(pi, -1, bits), dofs_split)).max(axis=(1, 2))
    bad = ~(worst <= REPRODUCTION_TOL)  # NaN fails too
    if bad.any():
        k = np.argmax(bad)
        raise ProjectorError(
            f"cell {cells[k]}: polynomial reproduction residual {worst[k]:.2e} "
            f"exceeds {REPRODUCTION_TOL:g}"
        )
    return pi


@dataclass
class LocalKernels:
    """What the per-cell load reads: one cell's rows of its group stacks (views)."""

    frame: CellFrame
    layout: DofLayout
    moment_op: np.ndarray  # (dim_{order-2} x n_total) interior moments
    moment_mass: np.ndarray  # (dim_{order-2} x dim_{order-2})


@dataclass(frozen=True)
class KernelGroup:
    """Kernels of the cells of one vertex count, stacked along axis 0.

    Row k of every stack belongs to mesh cell ``index[k]``; ``cells[k]`` is
    that cell's :class:`LocalKernels` view for the per-cell load.
    """

    index: np.ndarray  # (G,) mesh cell ids
    layout: DofLayout
    pi: np.ndarray  # (G, dim, n_total) projector coefficients
    moment_op: np.ndarray  # (G, dim_{order-2}, n_total)
    moment_mass: np.ndarray  # (G, dim_{order-2}, dim_{order-2})
    seminorm_gram: np.ndarray  # (G, dim, dim) broken H2 metric
    seminorm_max: np.ndarray  # (G,) largest |seminorm_gram| entry per cell
    cells: list[LocalKernels]

    @property
    def dim(self) -> int:
        return self.pi.shape[1]


def _symmetrized(stack: np.ndarray) -> np.ndarray:
    out = stack + np.swapaxes(stack, 1, 2)
    out *= 0.5
    return out


def local_stiffness(
    gb: GroupBasis,
    material: MaterialParams,
    gram: np.ndarray,
    pi: np.ndarray,
    dofs_of_basis: np.ndarray,
):
    """Consistency plus stabilization stiffness, (G, n_total, n_total) each.

    The consistency part evaluates the energy of the projected polynomials;
    the stabilization is the Euclidean product of the unknowns on the
    projector complement, scaled by rigidity / diameter^2. Both are built
    in place, so that a group holds few full-size temporaries at once.
    """
    residual = dofs_of_basis @ pi
    residual *= -1.0
    diag = np.arange(residual.shape[1])
    residual[:, diag, diag] += 1.0
    stab = np.swapaxes(residual, 1, 2) @ residual
    del residual
    stab *= (material.rigidity / gb.group.diameters**2)[:, None, None]
    stab = _symmetrized(stab)
    stiff = (np.swapaxes(pi, 1, 2) @ gram) @ pi
    stiff += stab
    return _symmetrized(stiff), stab


def moment_operator(gb: GroupBasis, pi: np.ndarray):
    """Interior moments against all monomials up to degree order - 2.

    Moments against monomials of degree up to order - 4 are read directly
    from the interior unknowns; the top two degrees use the moments of the
    projected polynomial, which the enhanced local space makes exact.

    Returns (moment_op, mass), (G, dim_{order-2}, n_total) and the Gram
    matrices (G, dim_{order-2}, dim_{order-2}) of the degree order - 2
    monomials, both exact.
    """
    layout = gb.layout
    cross_mass = gb.moments[:, _order_tables(gb.order).mass]  # (G, mid, dim)
    op = cross_mass @ pi
    low = layout.n_cell
    if low:
        op[:, :low] = 0.0
        op[:, :low, layout.cell_slice] = gb.group.areas[:, None, None] * np.eye(low)
    mid = cross_mass.shape[1]
    return op, cross_mass[:, :, :mid]


def data_degree(order: int) -> int:
    """Exactness degree of every quadrature of data (loads, interpolation).

    order + 8 integrates the moments of polynomial data up to degree 8
    exactly, which covers every problem the command line sets up.
    """
    return order + 8


def edge_moments(mesh, edges: np.ndarray, order: int, w, grad_w):
    """Edge unknowns of a smooth function on an array of global edges.

    Returns the normal-derivative moments (len(edges), order - 1) and the
    length-averaged trace moments (len(edges), n_edge_value), both in the
    global edge orientation: the edge runs from its lower to its higher
    vertex id, with normal (t_y, -t_x). One Gauss-Legendre rule serves every
    edge, and its nodes are the centered edge variable t itself.
    """
    layout = dof_layout(3, order)
    nodes, weights = gauss_legendre(data_degree(order) // 2 + 1)
    p0, p1 = (mesh.vertices[mesh.edge_vertices[edges, k]] for k in (0, 1))
    half = 0.5 * (p1 - p0)
    points = 0.5 * (p0 + p1)[:, None, :] + nodes[:, None] * half[:, None, :]
    x, y = points[..., 0], points[..., 1]
    half_length = np.sqrt((half**2).sum(axis=-1))
    normals = np.stack([half[:, 1], -half[:, 0]], axis=-1) / half_length[:, None]
    gx, gy = grad_w(x, y)
    dn = normals[:, 0, None] * gx + normals[:, 1, None] * gy
    powers = weights[:, None] * power_table(nodes, layout.n_edge_normal - 1)
    normal = half_length[:, None] * (dn @ powers)
    value = 0.5 * (w(x, y) @ powers[:, : layout.n_edge_value])
    return normal, value


# Cells per stacked fan rule of interior_moments: bounds its transient
# arrays (one chunk of fan points and their monomials) on any mesh.
MOMENT_CHUNK = 64


def interior_moments(mesh, order: int, w) -> np.ndarray:
    """Area-averaged moments of w against the scaled monomials up to order - 4.

    Returns (n_cells, dim_{order-4}). The cells of one vertex count are
    taken MOMENT_CHUNK at a time: one stacked fan rule, one call of w on
    all its points and one contraction per chunk. A cell whose star point
    is not interior raises ``ValueError`` naming the cell.
    """
    degree = data_degree(order)
    out = np.empty((mesh.n_cells, space_dim(order - 4)))
    for group in mesh.group_index():
        for start in range(0, len(group), MOMENT_CHUNK):
            cells = group[start : start + MOMENT_CHUNK]
            try:
                points, weights = fan_rules(
                    mesh.vertices[mesh.cells.stack(cells)], mesh.stars[cells], degree
                )
            except FanPointError as exc:
                raise ValueError(f"cell {cells[exc.position]}: {exc}") from exc
            x, y = points[..., 0], points[..., 1]
            weighted = weights * w(x.ravel(), y.ravel()).reshape(weights.shape)
            h = mesh.diameters[cells, None]
            xc, yc = mesh.centroids[cells].T[..., None]
            low = monomials((x - xc) / h, (y - yc) / h, order - 4)
            out[cells] = np.einsum("cp,cpk->ck", weighted, low) / mesh.areas[cells, None]
    return out


def local_load(kern: LocalKernels, f) -> np.ndarray:
    """Load pairings of a source density against the local unknowns.

    Implements the pairing of f with the degree order - 2 moment
    reconstruction of the test functions:
    ``load = moment_op^T mass^{-1} (integrals of f against the monomials)``.
    """
    frame = kern.frame
    rule = polygon_rule(frame.vertices, frame.star, data_degree(kern.layout.order))
    basis_mid = ScaledMonomialBasis(frame.centroid, frame.diameter, kern.layout.order - 2)
    vals_mid = basis_mid.eval(rule.points)
    fvals = f(rule.points[:, 0], rule.points[:, 1])
    fmom = vals_mid.T @ (rule.weights * fvals)
    return kern.moment_op.T @ np.linalg.solve(kern.moment_mass, fmom)


def build_cell_kernels(frame: CellFrame, layout: DofLayout, **rows) -> LocalKernels:
    """Kernels of one cell from its rows of the group stacks (views, not copies)."""
    return LocalKernels(frame=frame, layout=layout, **rows)


# Bytes of one chunk's stiffness stack in group_kernels: a chunk of cells
# with n_total local unknowns holds KERNEL_CHUNK_BYTES // (8 n_total^2)
# cells (at least one), so that each of its dense temporaries fits a
# per-core cache.
KERNEL_CHUNK_BYTES = 1 << 20


def _chunk_stacks(group: CellGroup, order: int, material: MaterialParams):
    """One stacked pass over ``group``: pi, moment_op, moment_mass,
    seminorm_gram, seminorm_max and stiffness stacks of its cells."""
    gb = group_basis(group, order)
    gram, seminorm = energy_grams(gb, material)
    dofs = dof_matrix(gb)
    pi = elliptic_projector(gb, material, gram, dofs)
    stiff = local_stiffness(gb, material, gram, pi, dofs)[0]
    mom_op, mass = moment_operator(gb, pi)
    return pi, mom_op, mass, seminorm, np.abs(seminorm).max(axis=(1, 2)), stiff


def group_kernels(
    group: CellGroup, order: int, material: MaterialParams
) -> tuple[KernelGroup, np.ndarray]:
    """Kernels of one group, and its stiffness stack.

    A group of at most ``KERNEL_CHUNK_BYTES // (8 n_total^2)`` cells is
    built in one stacked pass; a larger one in chunks of that many cells,
    in cell order, each written into preallocated group stacks. Chunks of
    two or more cells give bitwise the stacks of one pass; a one-cell chunk
    may differ in the last bit of the order-2 moment operator, whose single
    row numpy hands to BLAS as a unit-stride vector. The stiffness stack
    (G, n_total, n_total) is returned apart: only the global scatter reads
    it, so it need not outlive the assembly.
    """
    layout = dof_layout(group.n_vertices, order)
    size = max(1, KERNEL_CHUNK_BYTES // (8 * layout.n_total**2))
    if group.n_cells <= size:
        stacks = _chunk_stacks(group, order, material)
    else:
        stacks = None
        for start in range(0, group.n_cells, size):
            part = _chunk_stacks(group.rows(start, start + size), order, material)
            if stacks is None:
                stacks = [np.empty((group.n_cells,) + a.shape[1:]) for a in part]
            for stack, rows in zip(stacks, part):
                stack[start : start + size] = rows
            del part, rows  # this chunk's arrays go before the next is built
    pi, mom_op, mass, seminorm, seminorm_max, stiff = stacks
    cells = [
        build_cell_kernels(group.frame(k), layout, moment_op=mom_op[k], moment_mass=mass[k])
        for k in range(group.n_cells)
    ]
    kernels = KernelGroup(group.index, layout, pi, mom_op, mass, seminorm, seminorm_max, cells)
    return kernels, stiff


def build_local_kernels(
    mesh, order: int, material: MaterialParams
) -> tuple[list[KernelGroup], list[np.ndarray]]:
    """Kernel groups of a mesh, one per vertex count in increasing count
    order, and the matching stiffness stacks.

    Each group is built by :func:`group_kernels`, one stacked pass per
    chunk of cells whose stiffness stack fits ``KERNEL_CHUNK_BYTES``.
    """
    built = [group_kernels(group, order, material) for group in mesh.cell_groups()]
    return [k for k, _ in built], [s for _, s in built]
