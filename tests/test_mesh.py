import numpy as np
import pytest

from shapegrad.fem_core import FeSpace
from shapegrad.mesh import (Mesh, MeshFormatError, MeshValidationError,
                            gen_disk, gen_rectangle, load_mesh, save_mesh)


def _shoelace(mesh):
    # polygon area from the oriented boundary loop
    a = mesh.nodes[mesh.boundary_edges[:, 0]]
    b = mesh.nodes[mesh.boundary_edges[:, 1]]
    return 0.5 * np.sum(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])


def _euler(mesh):
    edges = set()
    for tri in mesh.triangles:
        for u, v in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            edges.add((min(u, v), max(u, v)))
    return mesh.n_nodes - len(edges) + mesh.n_triangles


def test_unit_square_single_cell():
    m = gen_rectangle(0, 0, 1, 1, 1, 1)
    assert m.n_triangles == 4            # crossed layout: 4 triangles per cell
    assert m.n_nodes == 5
    assert m.areas().sum() == 1.0


@pytest.mark.parametrize("nx,ny", [(1, 1), (3, 2), (8, 8)])
def test_rectangle_counts_and_area(nx, ny):
    m = gen_rectangle(0.0, -1.0, 2.0, 0.5, nx, ny)
    assert m.n_nodes == (nx + 1) * (ny + 1) + nx * ny
    assert m.n_triangles == 4 * nx * ny
    assert len(m.boundary_edges) == 2 * (nx + ny)
    exact = 2.0 * 1.5
    assert abs(m.areas().sum() - exact) <= 1e-12 * exact
    assert abs(_shoelace(m) - m.areas().sum()) <= 1e-12 * exact
    assert _euler(m) == 1


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_disk_polygon_area(k):
    r = 1.3
    m = gen_disk((0.5, -0.2), r, k)
    n = 6 * 2 ** k
    exact = 0.5 * n * r * r * np.sin(2 * np.pi / n)
    assert abs(m.areas().sum() - exact) <= 1e-12 * exact
    assert abs(_shoelace(m) - m.areas().sum()) <= 1e-12 * exact
    assert _euler(m) == 1


def test_disk_area_converges_to_pi_fourth_order_in_refinement():
    r = 1.0
    errs = [np.pi - gen_disk((0, 0), r, k).areas().sum() for k in (2, 3, 4)]
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    for q in ratios:
        assert 3.7 < q < 4.3


def test_boundary_nodes_on_circle():
    m = gen_disk((1.0, 2.0), 0.7, 3)
    bidx = np.unique(m.boundary_edges[:, :2])
    rad = np.hypot(*(m.nodes[bidx] - np.array([1.0, 2.0])).T)
    assert np.abs(rad - 0.7).max() <= 1e-13


def test_outward_normal_square():
    m = gen_rectangle(0, 0, 1, 1, 2, 2)
    normals = FeSpace(m).edge_normal
    for e, (a, b, _mk) in enumerate(m.boundary_edges):
        n = normals[e]
        assert abs(np.hypot(n[0], n[1]) - 1.0) <= 1e-14
        mid = 0.5 * (m.nodes[a] + m.nodes[b])
        for axis, lo, hi in ((0, 0.0, 1.0), (1, 0.0, 1.0)):
            if abs(mid[axis] - lo) < 1e-12:
                assert np.allclose(n, -np.eye(2)[axis])
            if abs(mid[axis] - hi) < 1e-12:
                assert np.allclose(n, np.eye(2)[axis])


def test_outward_normal_disk_radial():
    c = np.array([0.0, 0.0])
    for k in (2, 3):
        m = gen_disk(c, 1.0, k)
        normals = FeSpace(m).edge_normal
        h = 2 * np.pi / (6 * 2 ** k)
        worst = 0.0
        for e, (a, b, _mk) in enumerate(m.boundary_edges):
            n = normals[e]
            mid = 0.5 * (m.nodes[a] + m.nodes[b])
            radial = mid / np.hypot(mid[0], mid[1])
            worst = max(worst, np.abs(n - radial).max())
        assert worst < h * h  # chord normal vs radial direction is O(h^2)


def test_holdall_contains_nodes_strictly():
    m = gen_disk((0, 0), 1.0, 2)
    lo, hi = m.holdall_box
    assert (m.nodes > lo).all() and (m.nodes < hi).all()
    assert np.allclose(lo, [-1.5, -1.5]) and np.allclose(hi, [1.5, 1.5])


# ------------------------------------------------------------------------- IO

def test_save_load_round_trip_bit_exact(tmp_path):
    m = gen_disk((0.1, 0.2), 0.9, 3)
    p1 = tmp_path / "a.msh"
    p2 = tmp_path / "b.msh"
    save_mesh(m, p1)
    m2 = load_mesh(p1)
    assert np.array_equal(m.nodes, m2.nodes)
    assert np.array_equal(m.triangles, m2.triangles)
    assert np.array_equal(m.boundary_edges, m2.boundary_edges)
    save_mesh(m2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_malformed_reports_line(tmp_path):
    p = tmp_path / "bad.msh"
    p.write_text("shapegrad-mesh v1\nnodes 2\n0.0 0.0\n1.0 zz\n")
    with pytest.raises(MeshFormatError, match="line 4"):
        load_mesh(p)
    p.write_text("not-a-mesh\n")
    with pytest.raises(MeshFormatError, match="line 1"):
        load_mesh(p)
    p.write_text("shapegrad-mesh v1\nnodes 3\n0.0 0.0\n")
    with pytest.raises(MeshFormatError, match="line 4"):
        load_mesh(p)


def test_load_negative_area_mesh_rejected(tmp_path):
    p = tmp_path / "cw.msh"
    # one clockwise triangle
    p.write_text("shapegrad-mesh v1\n"
                 "nodes 3\n0.0 0.0\n0.0 1.0\n1.0 0.0\n"
                 "triangles 1\n0 1 2\n"
                 "boundary 3\n0 1 1\n1 2 1\n2 0 1\n")
    with pytest.raises(MeshValidationError, match="orientation"):
        load_mesh(p)


def test_dangling_boundary_edge_rejected():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
    tris = np.array([[0, 1, 2]])
    bnd = np.array([[0, 1, 1], [1, 2, 1], [2, 0, 1], [1, 3, 1]])
    with pytest.raises(MeshValidationError, match="one triangle"):
        Mesh(nodes, tris, bnd)


def test_missing_boundary_edge_rejected():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2]])
    bnd = np.array([[0, 1, 1], [1, 2, 1]])
    with pytest.raises(MeshValidationError, match="cover the mesh boundary"):
        Mesh(nodes, tris, bnd)


def test_open_boundary_chain_rejected(tmp_path):
    # two triangles, boundary listed with one edge replaced by a duplicate pair
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    bnd = np.array([[0, 1, 1], [1, 2, 1], [2, 3, 1]])  # missing (3, 0)
    with pytest.raises(MeshValidationError):
        Mesh(nodes, tris, bnd)


def test_with_nodes_keeps_holdall():
    m = gen_disk((0, 0), 1.0, 2)
    shifted = m.with_nodes(m.nodes + 0.1)
    assert np.array_equal(shifted.holdall_box, m.holdall_box)
    assert shifted.n_triangles == m.n_triangles


# ------------------------------------------------- topology versus geometry

def _refine_dict_loop(nodes, tris, bnd, center, radius):
    # the midpoint-dict refinement gen_disk used before the edge table:
    # the oracle for node numbering, node bits and triangle/boundary order
    nodes = list(nodes)
    midpoint = {}
    boundary_keys = {(min(a, b), max(a, b)) for a, b, _ in bnd}

    def mid(a, b):
        key = (min(a, b), max(a, b))
        m = midpoint.get(key)
        if m is None:
            p = 0.5 * (nodes[a] + nodes[b])
            if key in boundary_keys:
                v = p - center
                p = center + radius * v / np.hypot(v[0], v[1])
            midpoint[key] = m = len(nodes)
            nodes.append(p)
        return m

    new_tris = []
    for v0, v1, v2 in tris:
        m01, m12, m20 = mid(v0, v1), mid(v1, v2), mid(v2, v0)
        new_tris += [(v0, m01, m20), (v1, m12, m01), (v2, m20, m12), (m01, m12, m20)]
    new_bnd = []
    for a, b, mk in bnd:
        m = mid(a, b)
        new_bnd += [(a, m, mk), (m, b, mk)]
    return nodes, new_tris, new_bnd


def test_gen_disk_matches_dict_refinement():
    center, radius = np.array([0.3, -0.2]), 1.1
    ang = np.arange(6) * (np.pi / 3.0)
    ring = center + radius * np.column_stack([np.cos(ang), np.sin(ang)])
    nodes = [center] + list(ring)
    tris = [(0, 1 + k, 1 + (k + 1) % 6) for k in range(6)]
    bnd = [(1 + k, 1 + (k + 1) % 6, 1) for k in range(6)]
    for k in range(7):
        m = gen_disk(center, radius, k)
        assert np.array(nodes).tobytes() == m.nodes.tobytes(), k
        assert np.array_equal(np.array(tris), m.triangles), k
        assert np.array_equal(np.array(bnd), m.boundary_edges), k
        nodes, tris, bnd = _refine_dict_loop(nodes, tris, bnd, center, radius)


@pytest.mark.parametrize("make", [lambda: gen_disk((0.1, 0.0), 1.0, 3),
                                  lambda: gen_rectangle(0.0, -1.0, 2.0, 0.5, 5, 3)],
                         ids=["disk3", "rectangle"])
def test_with_nodes_matches_fresh_mesh(make):
    m = make()
    X = m.nodes + 0.02 * np.sin(3.0 * m.nodes[:, ::-1])
    moved = m.with_nodes(X)
    fresh = Mesh(X, m.triangles, m.boundary_edges, holdall_box=m.holdall_box)
    assert moved.topology is m.topology
    assert moved.triangles is m.triangles and moved.boundary_edges is m.boundary_edges
    assert not moved.triangles.flags.writeable and not moved.topology.edges.flags.writeable
    assert np.array_equal(moved.areas(), fresh.areas())
    assert np.array_equal(moved.topology.boundary_owner, fresh.topology.boundary_owner)
    for order in (1, 2):
        a, b = FeSpace(moved, order=order), FeSpace(fresh, order=order)
        assert a.dof_count == b.dof_count
        for attr in ("element_dofs", "edge_dofs", "edge_owner", "dof_coords", "grads",
                     "qpoints", "edge_normal"):
            assert np.array_equal(getattr(a, attr), getattr(b, attr)), (order, attr)


def test_nodes_are_read_only_and_a_callers_array_is_copied():
    m = gen_rectangle(0, 0, 1, 1, 3, 2)
    X = m.nodes.copy()
    fresh = Mesh(X, m.triangles, m.boundary_edges)
    assert X.flags.writeable and not np.shares_memory(fresh.nodes, X)
    for mesh in (m, fresh, m.with_nodes(m.nodes + 0.01)):
        with pytest.raises(ValueError):
            mesh.nodes[0, 0] = 0.5


def test_p1_dof_coords_cannot_be_written():
    m = gen_rectangle(0, 0, 1, 1, 3, 2)
    space = FeSpace(m, order=1)
    assert space.dof_coords is m.nodes
    with pytest.raises(ValueError):
        space.dof_coords[0, 0] = 0.5


def test_with_nodes_rechecks_geometry():
    m = gen_rectangle(0, 0, 1, 1, 3, 2)
    X = m.nodes.copy()
    X[3] = [np.inf, 0.0]
    with pytest.raises(MeshValidationError, match="^finite node coordinates: non-finite entry$"):
        m.with_nodes(X)
    X = m.nodes.copy()
    a, b = m.triangles[4, :2]
    X[[a, b]] = X[[b, a]]
    with pytest.raises(MeshValidationError) as exc:
        m.with_nodes(X)
    assert str(exc.value) == "positive triangle orientation: triangle 1 has signed area 0.000e+00"
    with pytest.raises(MeshValidationError, match="^nodes strictly inside the hold-all box$"):
        m.with_nodes(1.3 * m.nodes)


def test_with_nodes_rejects_another_node_count():
    m = gen_rectangle(0, 0, 1, 1, 3, 2)
    for X in (m.nodes[:-1], np.hstack([m.nodes, m.nodes[:, :1]])):
        with pytest.raises(MeshValidationError, match="^node array shape: expected"):
            m.with_nodes(X)


def _corrupt(kind):
    m = gen_rectangle(0, 0, 1, 1, 3, 2)
    N, T, B = m.nodes, m.triangles, m.boundary_edges
    if kind == "duplicated boundary edge":
        return N, T, np.vstack([B[:5], B[2:3, [1, 0, 2]], B[5:]])
    if kind == "interior edge listed":
        return N, T, np.vstack([B, [[T[12, 0], T[12, 1], 1]]])
    if kind == "missing hull edge":
        return N, T, np.delete(B, [2, 7], axis=0)
    if kind == "odd boundary degree":
        # three triangles on edge (0, 1): node 0 ends three hull edges
        N = np.array([[0, 0], [1, 0], [0.5, 1], [0.5, 2], [0.5, -1.0]])
        T = np.array([[0, 1, 2], [0, 1, 3], [0, 4, 1]])
        return N, T, np.array([[1, 2, 1], [2, 0, 1], [1, 3, 1], [3, 0, 1], [0, 4, 1], [4, 1, 1]])
    # bow tie: two triangles meeting at node 0
    N = np.array([[0, 0], [1, 0], [1, 1], [-1, 0], [-1, -1.0]])
    T = np.array([[0, 1, 2], [0, 3, 4]])
    return N, T, np.array([[0, 1, 1], [1, 2, 1], [2, 0, 1], [0, 3, 1], [3, 4, 1], [4, 0, 1]])


@pytest.mark.parametrize("kind,message", [
    ("duplicated boundary edge", "boundary edges listed once: edge 5 duplicates edge 2"),
    ("interior edge listed",
     "boundary edges belong to one triangle: edge 10 is shared by 2 triangles"),
    ("missing hull edge", "boundary edges cover the mesh boundary: hull edge (2, 5) is not listed"),
    ("odd boundary degree", "boundary edges form closed loops: node 0 has boundary degree 3"),
    ("bow tie", "boundary edges form closed loops: node 0 has boundary degree 4"),
])
def test_corrupted_topology_messages(kind, message):
    with pytest.raises(MeshValidationError) as exc:
        Mesh(*_corrupt(kind))
    assert str(exc.value) == message
