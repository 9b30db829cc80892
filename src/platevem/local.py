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

Every cell carries its own element basis q = T m, L2-orthonormal on the cell
(Mascotto, "Ill-conditioning in the virtual element method: stabilizations
and bases", Numer. Methods PDEs 2018; Berrone and Borio, "Orthogonal
polynomials in badly shaped polygonal elements for the Virtual Element
Method", Finite Elem. Anal. Des. 2017): T is the inverse of the Cholesky
factor L of the area-normalized Gram matrix of the scaled monomials m. T is
lower triangular, so q_0, q_1, q_2 span the linear polynomials and every
other q_k is orthogonal to them. The projector, the energy and seminorm
Grams and the projected coefficients are all in this basis, where the
projector's entries stay of order one at every order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .mesh import CellGroup
from .plate import MaterialParams
from .polynomials import (
    _derivative_factors,
    centered_power_moments,
    derivative_map,
    exponent_table,
    monomial_rows,
    monomials,
    power_table,
    space_dim,
)
from .quadrature import FanPointError, fan_rules, gauss_legendre, polygon_rule


class ProjectorError(Exception):
    """Singular local projector system, or a projector that fails to
    reproduce polynomials (degenerate or badly shaped cell)."""


# Largest float64 polynomial-reproduction residual max |I - pi D| a cell's
# projector may keep, in its element basis. Shape-regular cells of the mesh
# families stay below about 1e-11 at order 5; a badly shaped cell whose
# conditioning has destroyed its projector lands many orders of magnitude
# above.
REPRODUCTION_TOL = 1e-8


@dataclass(frozen=True)
class DofLayout:
    """Index layout of the local unknowns of one cell at ``order`` >= 2."""

    order: int
    n_vertices: int

    def __post_init__(self):
        if self.order < 2:
            raise ValueError("order must be at least 2")

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

    @property
    def cell_slice(self) -> slice:
        start = self.n_vertices * (1 + self.n_edge_normal + self.n_edge_value)
        return slice(start, start + self.n_cell)


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

    mass: np.ndarray  # (dim, dim)
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
    """Highest total degree of a moment any kernel reads: the L2 Gram's 2 order."""
    return 2 * order


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
    layout = DofLayout(order, 3)

    def pairing(rows):
        return np.array([2.0**k * sigma[k : k + n] for k in range(rows)]).reshape(rows, n)

    def maps(pairs):
        return np.stack([derivative_map(order, i, j) for i, j in pairs])

    tables = _OrderTables(
        mass=flat(0, 0),
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
    exact cell moments, the monomial values at the vertices, and the exact
    restrictions of the monomials to the edges in the global edge
    orientation; and the element basis q = T m of each cell, with ``factor``
    the Cholesky factor L of the area-normalized monomial Gram and
    ``transform`` its inverse T, both lower triangular.
    """

    group: CellGroup
    layout: DofLayout
    moments: np.ndarray  # (G, (2 order + 1)^2 + 1), see _cell_moments
    vertex_values: np.ndarray  # (G, m, dim)
    restrictions: np.ndarray  # (G, m, order + 1, dim): s-coefficients per edge
    factor: np.ndarray  # (G, dim, dim) L
    transform: np.ndarray  # (G, dim, dim) T = L^-1

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
    px *= (cross[..., None] * (0.5 * weights))[..., None]
    g, width = len(scaled), degree + 1
    table = np.swapaxes(px.reshape(g, -1, width), 1, 2) @ py.reshape(g, -1, width)
    a, b = np.indices(table.shape[1:])
    table = np.where(a + b <= degree, table / (a + b + 2), 0.0)
    table *= diameters[:, None, None] ** 2  # back from scaled to physical area
    flat = np.zeros((len(table), table[0].size + 1))
    flat[:, :-1] = table.reshape(len(table), -1)
    return flat


def _per_cell(solver, stack: np.ndarray, cells: np.ndarray, what: str) -> np.ndarray:
    """``solver`` on a stack of matrices; a failure is blamed on the first
    cell that fails alone."""
    try:
        return solver(stack)
    except np.linalg.LinAlgError as exc:
        for k in range(len(stack)):
            try:
                solver(stack[k])
            except np.linalg.LinAlgError:
                raise ProjectorError(f"cell {cells[k]}: {what}") from exc
        raise ProjectorError(f"{len(cells)}-cell group from cell {cells[0]}: {what}") from exc


def _lower_inverse(factor: np.ndarray) -> np.ndarray:
    """Inverses of a stack of lower triangular matrices, by forward
    substitution: lower triangular too, with exact zeros above the diagonal."""
    inverse = np.zeros_like(factor)
    for i in range(factor.shape[1]):
        row = -(factor[:, i : i + 1, :i] @ inverse[:, :i])[:, 0]
        row[:, i] += 1.0
        inverse[:, i] = row / factor[:, i, i, None]
    return inverse


def group_basis(group: CellGroup, order: int) -> GroupBasis:
    """Moments, vertex values, edge restrictions and element bases of a group.

    A cell whose monomial Gram fails its Cholesky factorization raises
    :class:`ProjectorError` naming the cell.
    """
    layout = DofLayout(order, group.n_vertices)
    scaled = (group.vertices - group.centroids[:, None, :]) / group.diameters[:, None, None]
    vertex_values = monomials(scaled[..., 0], scaled[..., 1], order)
    restrictions = _edge_restrictions(group, order)
    moments = _cell_moments(scaled, group.diameters, _moment_degree(order))
    mass = moments[:, _order_tables(order).mass] / group.areas[:, None, None]
    what = "monomial Gram is not numerically positive definite"
    factor = _per_cell(np.linalg.cholesky, mass, group.index, what)
    transform = _lower_inverse(factor)
    return GroupBasis(group, layout, moments, vertex_values, restrictions, factor, transform)


def _edge_restrictions(group: CellGroup, order: int) -> np.ndarray:
    """Coefficients of the monomials along each edge in powers of s:
    (G, m, order + 1, dim).

    Edge i in the global orientation runs p0 -> p1, x(s) = mid + s (p1 - p0)
    for s in [-1/2, 1/2]; each scaled coordinate is c0 + c1 s along it. The
    monomials of degree d are those of degree d - 1 times xi, and the last
    of those, eta^(d - 1), times eta.
    """
    h = group.diameters[:, None, None]
    nxt = np.roll(group.vertices, -1, axis=1)
    forward = (group.edge_signs > 0)[..., None]
    p0 = np.where(forward, group.vertices, nxt)
    p1 = np.where(forward, nxt, group.vertices)
    c0 = (0.5 * (p0 + p1) - group.centroids[:, None, :]) / h  # (G, m, 2): xi, eta
    c1 = (p1 - p0) / h
    out = np.zeros(c0.shape[:2] + (order + 1, space_dim(order)))
    out[..., 0, 0] = 1.0
    for d in range(1, order + 1):
        lo, hi = space_dim(d - 2), space_dim(d - 1)
        coordinate = np.zeros(d + 1, dtype=int)
        coordinate[-1] = 1
        source = out[..., :d, lo:hi][..., [*range(d), d - 1]]
        out[..., :d, hi : hi + d + 1] = c0[..., None, coordinate] * source
        out[..., 1 : d + 1, hi : hi + d + 1] += c1[..., None, coordinate] * source
    return out


def _by_unknown(vertex, edge_normal, edge_value, interior) -> np.ndarray:
    """Stack per-unknown rows (G, ., dim) in layout order: (G, n_total, dim)."""
    g, _, dim = vertex.shape
    edges = [edge_normal.reshape(g, -1, dim), edge_value.reshape(g, -1, dim)]
    return np.concatenate([vertex, *edges, interior], axis=1)


def _in_element_basis(gb: GroupBasis, gram: np.ndarray) -> np.ndarray:
    """T M T^T of a Gram matrix M of the monomials."""
    out = gb.transform @ gram
    return out @ np.swapaxes(gb.transform, 1, 2)


def energy_grams(gb: GroupBasis, material: MaterialParams):
    """Energy (per unit rigidity) and broken-H2 seminorm Grams of the element basis, (G, dim, dim).

    The energy Gram is symmetric positive semidefinite with the linear
    polynomials as kernel: its rows and columns 0, 1, 2 are exact zeros.
    The seminorm counts each mixed derivative once.
    """
    t = _order_tables(gb.order)
    scale = gb.group.diameters[:, None, None] ** -4.0
    straight = gb.moments[:, t.xx] * t.c_xx + gb.moments[:, t.yy] * t.c_yy
    mixed = gb.moments[:, t.mixed]
    nu = material.poisson
    coupling = nu * t.c_cross + 2.0 * (1.0 - nu) * t.c_xy
    energy = scale * (straight + coupling * mixed)
    seminorm = scale * (straight + t.c_xy * mixed)
    del straight, mixed
    return _in_element_basis(gb, energy), _in_element_basis(gb, seminorm)


def _edge_contraction(weights: np.ndarray, table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_x weights[..., x] rows @ table[x], (G, m, k, dim), in two stacked products.

    ``rows`` (G, m, k, dim) are edge restrictions or vertex values,
    ``table`` (X, dim, dim) the order's derivative maps and ``weights``
    (G, m, X) their per-edge (or per-vertex) coefficients. Each cell's rows
    meet all X maps at once, side by side, in one (m k x dim) by (dim x X dim)
    product; the weights then sum the maps per row. The (G, m, k, X, dim)
    temporary is smaller than one folded (dim x dim) map per edge, and every
    BLAS call stays one cell's size.
    """
    g, m, k, dim = rows.shape
    each = rows.reshape(g, m * k, dim) @ np.hstack(table)
    each = each.reshape(g, m, k, len(table), dim)
    return (weights[:, :, None, None, :] @ each)[..., 0, :]


def dof_matrix(gb: GroupBasis) -> np.ndarray:
    """Unknowns of every element basis function: (G, n_total, dim).

    Those of the monomials are exact: edge moments pair the exact edge
    restrictions with the closed-form integrals of centered powers, and
    interior moments are gathered from the cell moments.
    """
    group, layout = gb.group, gb.layout
    t = _order_tables(gb.order)
    restr = gb.restrictions
    scale = (group.edge_lengths / group.diameters[:, None])[..., None]
    edge_normal = _edge_contraction(group.normals * scale, t.first, t.normal_pairing @ restr)
    edge_value = t.value_pairing @ restr
    interior = gb.moments[:, t.mass[: layout.n_cell]] / group.areas[:, None, None]
    monomial = _by_unknown(gb.vertex_values, edge_normal, edge_value, interior)
    del edge_normal, edge_value
    return monomial @ np.swapaxes(gb.transform, 1, 2)


def load_rows(gb: GroupBasis, material: MaterialParams) -> np.ndarray:
    """Energy pairings a(q_beta, .) / D of the element basis against the unknowns.

    Row beta of each returned (dim x n_total) block represents the
    functional v -> a_K(q_beta, v) / D, which involves only the local unknowns.
    The cell energy is ``a_K(u, v) = D \\int_K (nu Lap(u) Lap(v) + (1 - nu)
    u_,ij v_,ij) dx``, with the Einstein double sum over second derivatives.
    For a polynomial u, integration by parts expands it into D times: the
    interior term Lap^2(u) paired with v; on each straight edge with
    outward normal n and counterclockwise tangent t, the bending moment
    ``M_nn = nu Lap(u) + (1 - nu) u_,nn`` paired with d_n v, minus the
    effective shear ``T = d_n(Lap u) + (1 - nu) u_,ntt`` paired with v; and
    the corner twist ``(1 - nu) u_,nt`` times v at the edge endpoints, with
    sign -1 at the edge start and +1 at its end. Rows 0, 1, 2 (the linear
    polynomials) are exact zeros.
    """
    group, layout = gb.group, gb.layout
    t = _order_tables(gb.order)
    nu = material.poisson
    h = group.diameters[:, None]
    nx, ny = group.normals[..., 0], group.normals[..., 1]
    tx, ty = group.tangents[..., 0], group.tangents[..., 1]
    sign = group.edge_signs
    restr = gb.restrictions
    # restrictions come in powers of s in [-1/2, 1/2]; the edge moments pair
    # against powers of t = 2 s, so coefficient k picks up 2^-k
    halving = 0.5 ** np.arange(layout.order + 1)

    # corner twist (1 - nu) d_nt, even in the pair: -1 at the edge start,
    # +1 at its end, which is the next vertex
    w_twist = np.stack([nx * tx, nx * ty + ny * tx, ny * ty], axis=-1) * (
        (1.0 - nu) / h**2
    )[..., None]
    # vertex i ends edge i - 1 and starts edge i
    w_twist = np.roll(w_twist, 1, axis=1) - w_twist
    vertex = _edge_contraction(w_twist, t.second, gb.vertex_values[..., None, :])[..., 0, :]
    del w_twist

    # bending moment nu Lap + (1 - nu) d_nn, even in the normal
    n_mom = layout.n_edge_normal
    w_moment = np.stack(
        [nu + (1.0 - nu) * nx**2, 2.0 * (1.0 - nu) * nx * ny, nu + (1.0 - nu) * ny**2],
        axis=-1,
    ) * (1.0 / h**2)[..., None]
    edge_normal = _edge_contraction(w_moment, t.second, restr[..., :n_mom, :])
    edge_normal *= sign[..., None, None] * halving[:n_mom, None]
    del w_moment

    # effective shear d_n Lap + (1 - nu) d_ntt on the outward pair
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
    ) * (sign / h**3)[..., None]
    edge_value = _edge_contraction(w_shear, t.third, restr[..., :n_val, :])
    edge_value *= -(group.edge_lengths[..., None, None] * halving[:n_val, None])
    del w_shear

    scale = group.areas / group.diameters**4
    interior = scale[:, None, None] * t.bilap[: layout.n_cell]
    rows = _by_unknown(vertex, edge_normal, edge_value, interior)
    del vertex, edge_normal, edge_value  # gone before the transform is applied
    return gb.transform @ rows.transpose(0, 2, 1)


def elliptic_projector(
    gb: GroupBasis,
    material: MaterialParams,
    gram: np.ndarray,
    dofs_of_basis: np.ndarray,
) -> np.ndarray:
    """Energy projector onto polynomials, computable from the unknowns.

    Returns pi (G, dim, n_total): element-basis coefficients of the projected
    polynomial per unit unknown, satisfying ``pi @ dofs_of_basis = identity``
    to within ``REPRODUCTION_TOL`` in float64; a cell that misses it, or
    whose systems are singular or give non-finite values, raises
    :class:`ProjectorError`.

    The projector solves a(pi v, q) = a(v, q) for every q, closed by the
    vertex averages of pi v and v against 1, x, y. In the element basis the
    rows of the energy Gram and of the pairings for q_0, q_1, q_2 are exact
    zeros, so the closing multiplier is zero and the system splits: the
    high part solves the Gram block of the other basis functions, and the
    low part then follows from the 3 x 3 vertex-average constraint.
    """
    cells = gb.group.index
    m = gb.layout.n_vertices
    what = "singular projector system"
    pairings = load_rows(gb, material)
    lin = np.swapaxes(gb.vertex_values[..., :3], 1, 2)  # (G, 3, m): 1, x, y
    constraint = lin @ dofs_of_basis[:, :m]  # (G, 3, dim)
    pi = np.empty_like(pairings)
    # The Gram block's inverse R^-T R^-1 from its Cholesky factor R: ten
    # times closer to reproducing at order 5 than a general inverse.
    root = _lower_inverse(_per_cell(np.linalg.cholesky, gram[:, 3:, 3:], cells, what))
    np.matmul(np.swapaxes(root, 1, 2) @ root, pairings[:, 3:], out=pi[:, 3:])
    del pairings
    low = -(constraint[:, :, 3:] @ pi[:, 3:])
    low[:, :, :m] += lin
    pi[:, :3] = _per_cell(np.linalg.inv, constraint[:, :, :3], cells, what) @ low
    del low
    residual = pi @ dofs_of_basis
    diag = np.arange(residual.shape[1])
    residual[:, diag, diag] -= 1.0
    worst = np.abs(residual, out=residual).max(axis=(1, 2))
    bad = ~(worst <= REPRODUCTION_TOL)  # NaN fails too
    if bad.any():
        k = np.argmax(bad)
        if not np.isfinite(pi[k]).all():
            raise ProjectorError(f"cell {cells[k]}: projector system produced non-finite values")
        raise ProjectorError(
            f"cell {cells[k]}: polynomial reproduction residual {worst[k]:.2e} "
            f"exceeds {REPRODUCTION_TOL:g}"
        )
    return pi


@dataclass
class LocalKernels:
    """What the per-cell load reads: the cell's group, its row ``k`` there,
    and its row of the group's load operator stack (a view)."""

    group: CellGroup
    k: int
    layout: DofLayout
    load_op: np.ndarray  # (n_total x dim_{order-2}), see _chunk_stacks


@dataclass(frozen=True)
class KernelGroup:
    """Kernels of the cells of one vertex count, stacked along axis 0.

    Row k of every stack belongs to mesh cell ``index[k]``; ``cells[k]`` is
    that cell's :class:`LocalKernels` record for the per-cell load.
    """

    index: np.ndarray  # (G,) mesh cell ids
    layout: DofLayout
    pi: np.ndarray  # (G, dim, n_total) projector, element-basis coefficients
    load_op: np.ndarray  # (G, n_total, dim_{order-2}) moment_op^T mass^-1
    seminorm_gram: np.ndarray  # (G, dim, dim) broken H2 metric of the element basis
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
    group: CellGroup,
    material: MaterialParams,
    gram: np.ndarray,
    pi: np.ndarray,
    dofs_of_basis: np.ndarray,
) -> np.ndarray:
    """Consistency plus stabilization stiffness, (G, n_total, n_total), the
    one reader of the rigidity r, which scales both parts.

    The consistency part r pi^T G pi, with G the energy Gram per unit
    rigidity, evaluates the energy of the projected polynomials; the
    stabilization s (I - D pi)^T (I - D pi), with s = r / diameter^2, is
    the Euclidean product of the unknowns on the projector complement.
    Expanded, their sum is the symmetric part of one (n_total x dim) by
    (dim x n_total) product plus s I:

        K = sym(s I + pi^T [(r G + s D^T D) pi - 2 s D^T]),

    as pi^T (r G + s D^T D) pi is symmetric and the symmetric part of
    -2 s pi^T D^T is -s (D pi + pi^T D^T). The element basis keeps the
    expansion free of cancellation, since there |pi| and |D| are of order
    one.
    """
    dofs_t = np.swapaxes(dofs_of_basis, 1, 2)
    weighted = dofs_t @ dofs_of_basis
    # A huge rigidity overflows here; PlateSystem rejects the matrix.
    with np.errstate(over="ignore", invalid="ignore"):
        s = (material.rigidity / group.diameters**2)[:, None, None]
        weighted *= s
        weighted += material.rigidity * gram
        right = weighted @ pi
        del weighted
        right -= (2.0 * s) * dofs_t
        stiff = np.swapaxes(pi, 1, 2) @ right
        del right
        diag = np.arange(stiff.shape[1])
        stiff[:, diag, diag] += s[:, :, 0]
        return _symmetrized(stiff)


def moment_operator(gb: GroupBasis, pi: np.ndarray):
    """Interior moments against all monomials up to degree order - 2.

    Moments against monomials of degree up to order - 4 are read directly
    from the interior unknowns; the top two degrees use the moments of the
    projected polynomial, which the enhanced local space makes exact. The
    moments of the monomials m against the element basis q = T m are
    area L, with L the Cholesky factor of their normalized Gram; L is lower
    triangular, so those of degree <= order - 2 involve only its leading
    block.

    Returns moment_op (G, dim_{order-2}, n_total), exact.
    """
    layout = gb.layout
    mid = space_dim(gb.order - 2)
    cross_mass = gb.factor[:, :mid, :mid] * gb.group.areas[:, None, None]
    op = cross_mass @ pi[:, :mid]
    low = layout.n_cell
    if low:
        op[:, :low] = 0.0
        op[:, :low, layout.cell_slice] = gb.group.areas[:, None, None] * np.eye(low)
    return op


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
    layout = DofLayout(order, 3)
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
    all its points and one contraction per chunk, over flat per-cell arrays
    of points with the monomials on a leading axis. A cell whose star point
    is not interior raises ``ValueError`` naming the cell.
    """
    degree = data_degree(order)
    out = np.empty((mesh.n_cells, space_dim(order - 4)))
    for group in mesh.group_index():
        for start in range(0, len(group), MOMENT_CHUNK):
            cells = group[start : start + MOMENT_CHUNK]
            try:
                x, y, weights = fan_rules(
                    mesh.vertices[mesh.cells.stack(cells)], mesh.stars[cells], degree
                )
            except FanPointError as exc:
                raise ValueError(f"cell {cells[exc.position]}: {exc}") from exc
            weighted = weights * w(x.ravel(), y.ravel()).reshape(weights.shape)
            h = mesh.diameters[cells, None]
            xc, yc = mesh.centroids[cells].T[..., None]
            low = monomial_rows((x - xc) / h, (y - yc) / h, order - 4)
            out[cells] = np.einsum("kcp,cp->ck", low, weighted) / mesh.areas[cells, None]
    return out


def local_load(kern: LocalKernels, f) -> np.ndarray:
    """Load pairings of a source density against the local unknowns.

    Implements the pairing of f with the degree order - 2 moment
    reconstruction of the test functions:
    ``load = moment_op^T mass^{-1} (integrals of f against the monomials)``,
    with ``moment_op^T mass^{-1}`` the cell's ``load_op``.
    """
    group, k = kern.group, kern.k
    rule = polygon_rule(group.vertices[k], group.stars[k], data_degree(kern.layout.order))
    x, y = rule.points[:, 0], rule.points[:, 1]
    (xc, yc), h = group.centroids[k], group.diameters[k]
    vals_mid = monomials((x - xc) / h, (y - yc) / h, kern.layout.order - 2)
    fmom = vals_mid.T @ (rule.weights * f(x, y))
    return kern.load_op @ fmom


def build_cell_kernels(group: CellGroup, k: int, layout: DofLayout, **rows) -> LocalKernels:
    """Kernels of row ``k`` of ``group`` from its rows of the group stacks
    (views, not copies)."""
    return LocalKernels(group=group, k=k, layout=layout, **rows)


# Bytes of one chunk's stiffness stack in group_kernels: a chunk of cells
# with n_total local unknowns holds KERNEL_CHUNK_BYTES // (8 n_total^2)
# cells (at least one), so that each of its dense temporaries fits a
# per-core cache.
KERNEL_CHUNK_BYTES = 1 << 20


def _chunk_stacks(group: CellGroup, order: int, material: MaterialParams):
    """One stacked pass over ``group``: pi, load_op, seminorm_gram,
    seminorm_max and stiffness stacks of its cells.

    The load operator moment_op^T mass^-1 needs no solve: the Gram of the
    degree order - 2 monomials is area L_mid L_mid^T, with L_mid the leading
    block of the factor L of the element basis, so its inverse is
    T_mid^T T_mid / area, T_mid the leading block of T = L^-1.
    """
    gb = group_basis(group, order)
    gram, seminorm = energy_grams(gb, material)
    dofs = dof_matrix(gb)
    pi = elliptic_projector(gb, material, gram, dofs)
    moment_op = moment_operator(gb, pi)
    mid = moment_op.shape[1]
    t_mid = gb.transform[:, :mid, :mid]
    inverse_mass = np.swapaxes(t_mid, 1, 2) @ t_mid
    inverse_mass /= group.areas[:, None, None]
    load_op = np.swapaxes(moment_op, 1, 2) @ inverse_mass
    del gb, moment_op  # the basis data go before the stiffness is built
    stiff = local_stiffness(group, material, gram, pi, dofs)
    return pi, load_op, seminorm, np.abs(seminorm).max(axis=(1, 2)), stiff


def group_kernels(
    group: CellGroup, order: int, material: MaterialParams
) -> tuple[KernelGroup, np.ndarray]:
    """Kernels of one group, and its stiffness stack.

    A group of at most ``KERNEL_CHUNK_BYTES // (8 n_total^2)`` cells is
    built in one stacked pass; a larger one in chunks of that many cells,
    in cell order, each written into preallocated group stacks. Chunks of
    any size, one cell included, give bitwise the stacks of one pass. The
    stiffness stack
    (G, n_total, n_total) is returned apart: only the global scatter reads
    it, so it need not outlive the assembly.
    """
    layout = DofLayout(order, group.n_vertices)
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
    pi, load_op, seminorm, seminorm_max, stiff = stacks
    cells = [build_cell_kernels(group, k, layout, load_op=load_op[k]) for k in range(group.n_cells)]
    kernels = KernelGroup(group.index, layout, pi, load_op, seminorm, seminorm_max, cells)
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
