"""
Triangular meshes: generation, validation and plain-text IO.

A mesh is nodes + CCW triangles + boundary edges.  The hold-all box
is the node bounding box inflated by 25% per axis; transported meshes are
expected to stay inside it and vector fields of interest are supported there.

Topology and geometry are separate.  A :class:`MeshTopology` holds the
connectivity (triangles, boundary edges, the table of triangulation edges
with their owners and the P2 edge numbering); it is built and checked once,
when a :class:`Mesh` is constructed, and its arrays are read-only.  The
geometry is the node array, read-only too.  :meth:`Mesh.with_nodes`, which every
transported mesh goes through, shares the reference topology and re-runs
only the checks that depend on node positions: finite coordinates, positive
triangle orientation and nodes strictly inside the hold-all box.  The
topology also holds what depends on connectivity alone and is built on
first use: the dof layouts of the P1 and P2 spaces and ``fem_core``'s
scatter plans for them, so every mesh transported from one reference
assembles on the same CSR pattern.

File format (``shapegrad-mesh v1``)::

    shapegrad-mesh v1
    nodes N
    <x> <y>          (N lines, shortest round-trip decimals)
    triangles M
    <i> <j> <k>      (M lines, 0-based, CCW)
    boundary B
    <i> <j> <marker> (B lines, 0-based, oriented with the domain on the left)

The marker column is a file-format field: the generators write 1, it is
stored and hashed with the mesh, and nothing selects on it.
"""

import numpy as np

from .reports import atomic_write_text


class MeshFormatError(Exception):
    """Raised by :func:`load_mesh` on malformed files; message carries the line number."""


class MeshValidationError(Exception):
    """Raised when mesh data violates a structural invariant; message names it."""


class InvertedTriangleError(MeshValidationError):
    """Positive orientation fails; carries the first offending triangle and its area."""

    def __init__(self, index, area):
        super().__init__(
            f"positive triangle orientation: triangle {index} has signed area {area:.3e}")
        self.index = index
        self.area = area


def _signed_areas(nodes, triangles):
    p = nodes[triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def _read_only(a):
    a.flags.writeable = False
    return a


# ------------------------------------------------------------------ topology

def _edge_keys(pairs, n):
    """One integer per undirected vertex pair: min * n + max."""
    return np.minimum(pairs[:, 0], pairs[:, 1]) * n + np.maximum(pairs[:, 0], pairs[:, 1])


class MeshTopology:
    """Connectivity of a mesh, shared by every mesh transported from it.

    The edge table is found by sorting, and building it checks the
    connectivity invariants: every boundary edge is listed once and is an
    edge of exactly one triangle, every edge of exactly one triangle is
    listed, and the boundary edges form closed loops.  The index arrays
    must already have the right shapes and lie in range (see
    :class:`Mesh`).  All arrays are read-only.

    Attributes
    ----------
    triangles : (M, 3) int array
    boundary_edges : (B, 3) int array
    edges : (E, 2) int array
        Every triangulation edge as ``(min, max)``, numbered by first
        appearance when the triangles are walked in order, each through its
        local edges (0, 1), (1, 2), (2, 0).  This is the P2 numbering (the
        midpoint dof of edge ``i`` is ``n_nodes + i``) and the order in
        which refinement adds midpoints.
    triangle_edges : (M, 3) int array
        Edge number of each local edge of each triangle.
    boundary_edge_ids : (B,) int array
        Edge number of each boundary edge.
    boundary_owner : (B,) int array
        The triangle containing each boundary edge.
    n_nodes : int
    dof_layouts, scatter_plans : dict
        The dof layouts built so far (:meth:`dof_layout`), keyed by
        ``(order, boundary)``, and under the same keys ``fem_core``'s
        scatter plans of them, built there on first use and shared by every
        space on this topology.
    """

    def __init__(self, triangles, boundary_edges, n_nodes):
        self.triangles = _read_only(triangles)
        self.boundary_edges = _read_only(boundary_edges)
        self.n_nodes = n_nodes
        self.dof_layouts = {}
        self.scatter_plans = {}
        be = boundary_edges
        n = max(n_nodes, 1)
        local = _edge_keys(triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), n)
        # sorted distinct edges, the first local edge and the number of
        # triangles of each; edges are numbered in order of first appearance
        keys, first, inverse, counts = np.unique(
            local, return_index=True, return_inverse=True, return_counts=True)
        order = np.argsort(first)
        number = np.empty_like(order)
        number[order] = np.arange(len(order))
        bkeys = _edge_keys(be, n)
        pos = np.searchsorted(keys, bkeys)
        found = pos < len(keys)
        found[found] = keys[pos[found]] == bkeys[found]

        _, bfirst, binverse = np.unique(bkeys, return_index=True, return_inverse=True)
        bfirst = bfirst[binverse]
        dup = np.nonzero(bfirst != np.arange(len(be)))[0]
        if len(dup):
            e = dup[0]
            raise MeshValidationError(f"boundary edges listed once: edge {e} duplicates edge {bfirst[e]}")
        owners = np.zeros(len(be), dtype=np.int64)
        owners[found] = counts[pos[found]]
        bad = np.nonzero(owners != 1)[0]
        if len(bad):
            e = bad[0]
            if owners[e] == 0:
                raise MeshValidationError(
                    f"boundary edges belong to one triangle: edge {e} matches no triangle edge")
            raise MeshValidationError(
                f"boundary edges belong to one triangle: edge {e} is shared by {owners[e]} triangles")
        listed = np.zeros(len(keys), dtype=bool)
        listed[pos] = True
        missing = np.nonzero((counts == 1) & ~listed)[0]
        if len(missing):
            a, b = divmod(keys[missing[0]], n)
            raise MeshValidationError(
                f"boundary edges cover the mesh boundary: hull edge ({a}, {b}) is not listed")

        # closed loops: every touched node has exactly two incident boundary edges
        if len(be):
            deg = np.zeros(n_nodes, dtype=int)
            np.add.at(deg, be[:, 0], 1)
            np.add.at(deg, be[:, 1], 1)
            touched = np.nonzero(deg)[0]
            odd = touched[deg[touched] != 2]
            if len(odd):
                raise MeshValidationError(
                    f"boundary edges form closed loops: node {odd[0]} has boundary degree {deg[odd[0]]}")

        by_number = keys[order]
        self.edges = _read_only(np.column_stack([by_number // n, by_number % n]))
        self.triangle_edges = _read_only(number[inverse].reshape(-1, 3))
        self.boundary_edge_ids = _read_only(number[pos])
        self.boundary_owner = _read_only(first[pos] // 3)

    def dof_layout(self, order, boundary=False):
        """Dofs of the order-1 or order-2 Lagrange space per triangle (M, 3 or
        6) or, with ``boundary``, per boundary edge (B, 2 or 3): vertices
        first, then the midpoint dofs ``n_nodes + edge number``.  Built on
        first use, read-only, one array object per layout and topology."""
        key = (order, boundary)
        layout = self.dof_layouts.get(key)
        if layout is None:
            if not boundary:
                layout = self.triangles if order == 1 else np.concatenate(
                    [self.triangles, self.n_nodes + self.triangle_edges], axis=1)
            else:
                ends = self.boundary_edges[:, :2]
                layout = ends.copy() if order == 1 else np.column_stack(
                    [ends, self.n_nodes + self.boundary_edge_ids])
            layout = self.dof_layouts[key] = _read_only(layout)
        return layout


# ---------------------------------------------------------------- validation

def _check_finite(nodes):
    if not np.all(np.isfinite(nodes)):
        raise MeshValidationError("finite node coordinates: non-finite entry")


def _positive_areas(nodes, triangles):
    areas = _signed_areas(nodes, triangles)
    bad = np.nonzero(areas <= 0.0)[0]
    if len(bad):
        raise InvertedTriangleError(int(bad[0]), float(areas[bad[0]]))
    return areas


def _check_inside(nodes, box):
    lo, hi = box
    if (nodes <= lo).any() or (nodes >= hi).any():
        raise MeshValidationError("nodes strictly inside the hold-all box")


class Mesh:
    """Validated triangular mesh.

    Parameters
    ----------
    nodes : (N, 2) float array
    triangles : (M, 3) int array
        Vertex indices, counter-clockwise.
    boundary_edges : (B, 3) int array
        Rows ``(a, b, marker)``; the segment a->b lies on the boundary with
        the domain on its left.  The marker is a file-format field that
        nothing selects on.
    holdall_box : (2, 2) float array, optional
        ``[[xlo, ylo], [xhi, yhi]]``.  Defaults to the node bounding box
        inflated by 25% of each extent per side.

    ``nodes`` is copied into the mesh's read-only node array, and
    ``triangles`` and ``boundary_edges`` into the read-only arrays of its
    :attr:`topology`, so the caller's arrays keep their flags.
    """

    def __init__(self, nodes, triangles, boundary_edges, holdall_box=None):
        nodes = np.array(nodes, dtype=float, order="C")
        triangles = np.array(triangles, dtype=np.int64)
        boundary_edges = np.array(boundary_edges, dtype=np.int64)
        if holdall_box is None:
            lo = nodes.min(axis=0)
            hi = nodes.max(axis=0)
            margin = 0.25 * np.maximum(hi - lo, 1e-12)
            holdall_box = np.array([lo - margin, hi + margin])
        holdall_box = np.asarray(holdall_box, dtype=float)

        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise MeshValidationError("node array shape: expected (N, 2)")
        _check_finite(nodes)
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise MeshValidationError("triangle array shape: expected (M, 3)")
        if boundary_edges.ndim != 2 or boundary_edges.shape[1] != 3:
            raise MeshValidationError("boundary array shape: expected (B, 3)")
        n = len(nodes)
        if triangles.min(initial=0) < 0 or triangles.max(initial=-1) >= n:
            raise MeshValidationError("triangle vertex indices in range")
        if len(boundary_edges) and (
                boundary_edges[:, :2].min() < 0 or boundary_edges[:, :2].max() >= n):
            raise MeshValidationError("boundary vertex indices in range")
        areas = _positive_areas(nodes, triangles)
        topology = MeshTopology(triangles, boundary_edges, n)
        _check_inside(nodes, holdall_box)
        self._adopt(nodes, holdall_box, topology, areas)

    def _adopt(self, nodes, holdall_box, topology, areas):
        self.nodes = _read_only(nodes)
        self.holdall_box = holdall_box
        self.topology = topology
        self.triangles = topology.triangles
        self.boundary_edges = topology.boundary_edges
        self._areas = areas

    # ------------------------------------------------------------- accessors

    @property
    def n_nodes(self):
        return len(self.nodes)

    @property
    def n_triangles(self):
        return len(self.triangles)

    def areas(self):
        """Signed triangle areas (all positive for a valid mesh)."""
        return self._areas.copy()

    def with_nodes(self, nodes):
        """Same topology on new node positions (keeps this mesh's hold-all).

        The topology object is shared, not rebuilt: only finite coordinates,
        positive orientation and the hold-all box are checked again.  The
        node array must have this mesh's shape; a C-contiguous float array,
        such as the fresh one a transport builds, is adopted as it is and
        made read-only.
        """
        nodes = np.ascontiguousarray(nodes, dtype=float)
        if nodes.shape != self.nodes.shape:
            raise MeshValidationError(
                f"node array shape: expected {self.nodes.shape}, got {nodes.shape}")
        _check_finite(nodes)
        areas = _positive_areas(nodes, self.triangles)
        _check_inside(nodes, self.holdall_box)
        mesh = object.__new__(Mesh)
        mesh._adopt(nodes, self.holdall_box, self.topology, areas)
        return mesh


# ------------------------------------------------------------------ generators

def gen_rectangle(x0, y0, x1, y1, nx, ny):
    """Crossed-triangle rectangle mesh.

    Each of the ``nx * ny`` cells is split into 4 triangles around its
    center, so the mesh has ``(nx+1)(ny+1) + nx*ny`` nodes and ``4 nx ny``
    triangles.  All boundary edges get marker 1.
    """
    if x1 <= x0 or y1 <= y0 or nx < 1 or ny < 1:
        raise ValueError("gen_rectangle: empty rectangle or non-positive subdivision")
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    gx, gy = np.meshgrid(xs, ys, indexing='ij')
    grid = np.column_stack([gx.ravel(), gy.ravel()])       # node (i, j) -> i*(ny+1)+j
    cx, cy = np.meshgrid(0.5 * (xs[:-1] + xs[1:]), 0.5 * (ys[:-1] + ys[1:]), indexing='ij')
    centers = np.column_stack([cx.ravel(), cy.ravel()])
    nodes = np.vstack([grid, centers])
    ngrid = (nx + 1) * (ny + 1)

    def gid(i, j):
        return i * (ny + 1) + j

    tris = []
    for i in range(nx):
        for j in range(ny):
            c = ngrid + i * ny + j
            v00, v10 = gid(i, j), gid(i + 1, j)
            v11, v01 = gid(i + 1, j + 1), gid(i, j + 1)
            tris += [(v00, v10, c), (v10, v11, c), (v11, v01, c), (v01, v00, c)]

    edges = []
    for i in range(nx):
        edges.append((gid(i, 0), gid(i + 1, 0), 1))       # bottom, +x
    for j in range(ny):
        edges.append((gid(nx, j), gid(nx, j + 1), 1))     # right, +y
    for i in range(nx, 0, -1):
        edges.append((gid(i, ny), gid(i - 1, ny), 1))     # top, -x
    for j in range(ny, 0, -1):
        edges.append((gid(0, j), gid(0, j - 1), 1))       # left, -y
    return Mesh(nodes, np.array(tris), np.array(edges))


def gen_disk(center, radius, refinement):
    """Disk mesh from a refined hexagon with boundary nodes snapped to the circle.

    Starts from 6 triangles around the center and uniformly refines
    ``refinement`` times; every new boundary node is projected onto the
    circle, so the polygonal area approaches ``pi r^2`` at rate ``O(4^-k)``.
    """
    if radius <= 0 or refinement < 0:
        raise ValueError("gen_disk: radius must be positive, refinement non-negative")
    center = np.asarray(center, dtype=float)
    ang = np.arange(6) * (np.pi / 3.0)
    ring = center + radius * np.column_stack([np.cos(ang), np.sin(ang)])
    nodes = np.vstack([center, ring])
    tris = np.array([(0, 1 + k, 1 + (k + 1) % 6) for k in range(6)])
    bnd = np.array([(1 + k, 1 + (k + 1) % 6, 1) for k in range(6)])

    for _ in range(refinement):
        nodes, tris, bnd = _refine_once(nodes, tris, bnd, center, radius)
    return Mesh(nodes, tris, bnd)


def _refine_once(nodes, tris, bnd, center, radius):
    """Split every triangle into four at its edge midpoints.

    The midpoint of edge number ``i`` (:attr:`MeshTopology.edges`) becomes
    node ``n + i``; midpoints of boundary edges are projected onto the circle.
    """
    n = len(nodes)
    topo = MeshTopology(tris, bnd, n)
    e = topo.edges
    mids = 0.5 * (nodes[e[:, 0]] + nodes[e[:, 1]])
    on_circle = topo.boundary_edge_ids
    v = mids[on_circle] - center
    mids[on_circle] = center + radius * v / np.hypot(v[:, 0], v[:, 1])[:, None]
    v0, v1, v2 = tris.T
    m01, m12, m20 = (n + topo.triangle_edges).T
    new_tris = np.column_stack([v0, m01, m20, v1, m12, m01, v2, m20, m12, m01, m12, m20])
    a, b, mk = bnd.T
    m = n + on_circle
    new_bnd = np.column_stack([a, m, mk, m, b, mk])
    return np.vstack([nodes, mids]), new_tris.reshape(-1, 3), new_bnd.reshape(-1, 3)


# -------------------------------------------------------------------------- IO

def _fmt(x):
    return repr(float(x))


def save_mesh(mesh, path):
    """Write a mesh in the ``shapegrad-mesh v1`` format (atomic replace)."""
    lines = ["shapegrad-mesh v1", f"nodes {mesh.n_nodes}"]
    lines += [f"{_fmt(x)} {_fmt(y)}" for x, y in mesh.nodes]
    lines.append(f"triangles {mesh.n_triangles}")
    lines += [f"{a} {b} {c}" for a, b, c in mesh.triangles]
    lines.append(f"boundary {len(mesh.boundary_edges)}")
    lines += [f"{a} {b} {m}" for a, b, m in mesh.boundary_edges]
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_mesh(path):
    """Read a ``shapegrad-mesh v1`` file; round-trips :func:`save_mesh` bit-exactly."""
    with open(path, "r") as fh:
        lines = fh.read().splitlines()

    pos = 0

    def take(what):
        nonlocal pos
        if pos >= len(lines):
            raise MeshFormatError(f"{path}: line {pos + 1}: unexpected end of file, expected {what}")
        pos += 1
        return lines[pos - 1], pos

    header, ln = take("header")
    if header.strip() != "shapegrad-mesh v1":
        raise MeshFormatError(f"{path}: line {ln}: bad header {header!r}")

    def section(name, ncols, conv):
        line, ln = take(f"'{name} N'")
        parts = line.split()
        if len(parts) != 2 or parts[0] != name:
            raise MeshFormatError(f"{path}: line {ln}: expected '{name} <count>', got {line!r}")
        try:
            count = int(parts[1])
        except ValueError:
            raise MeshFormatError(f"{path}: line {ln}: bad count {parts[1]!r}") from None
        if count < 0:
            raise MeshFormatError(f"{path}: line {ln}: negative count")
        rows = []
        for _ in range(count):
            line, ln = take(f"{name} row")
            parts = line.split()
            if len(parts) != ncols:
                raise MeshFormatError(f"{path}: line {ln}: expected {ncols} columns, got {len(parts)}")
            try:
                rows.append([conv(p) for p in parts])
            except ValueError:
                raise MeshFormatError(f"{path}: line {ln}: bad value in {line!r}") from None
        return np.array(rows, dtype=float if conv is float else np.int64).reshape(count, ncols)

    nodes = section("nodes", 2, float)
    tris = section("triangles", 3, int)
    bnd = section("boundary", 3, int)
    if pos != len(lines) and any(l.strip() for l in lines[pos:]):
        raise MeshFormatError(f"{path}: line {pos + 1}: trailing content")
    return Mesh(nodes, tris, bnd)
