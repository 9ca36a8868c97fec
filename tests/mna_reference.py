"""The per-frequency MNA solve, kept as a reference for the batched one.

Before the batched solver, every frequency rebuilt the complex admittance
matrix element by element and ran its own partial-pivot LU.  This module
keeps that path so tests can check that the batched solver finds the same
singular points and agrees on the values.

The dense matrix numbers its nodes as the solver does (`stamp(...).index`,
reverse Cuthill-McKee).  Pivots depend on the elimination order, so a
reference that eliminated in another order would apply the same 1e-12
rule to other pivots and disagree with the solver at points near the
threshold.  A node hung on a 0.42 uF capacitor and nothing else, next to
a series LC near resonance, leaves a last pivot of 2.91318e-9 under a
threshold of 2.91327e-9 when eliminated last, but no pivot below 3.5e-7
when eliminated first, as the solver does.

`frequency_major_solve` keeps the batched solver's earlier layout, each
block stored frequency by frequency as (F, n + 1, n + 1), as a reference
for the frequency-last one: the same operations on the same entries, so
the two must agree to the bit.
"""

import math

import numpy as np

from memsosc.bvd import TWO_PI
from memsosc.mna import Netlist, SingularCircuitError, Stamp, _block_points, _row_stride, stamp


def solve_lu(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense complex solve with partial pivoting and explicit singularity
    reporting (pivot below 1e-12 of the largest initial row norm)."""
    a = a.copy()
    b = b.copy()
    n = a.shape[0]
    threshold = 1e-12 * max(np.max(np.sum(np.abs(a), axis=1)), 1e-300)
    for k in range(n):
        pivot_row = k + int(np.argmax(np.abs(a[k:, k])))
        if abs(a[pivot_row, k]) < threshold:
            raise SingularCircuitError("singular MNA system (lossless resonance?)")
        if pivot_row != k:
            a[[k, pivot_row]] = a[[pivot_row, k]]
            b[[k, pivot_row]] = b[[pivot_row, k]]
        factors = a[k + 1:, k] / a[k, k]
        a[k + 1:, k:] -= np.outer(factors, a[k, k:])
        b[k + 1:] -= factors * b[k]
    x = np.zeros(n, dtype=complex)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - a[k, k + 1:] @ x[k + 1:]) / a[k, k]
    return x


def admittance(el, w: float) -> complex:
    if el.kind == "R":
        return 1.0 / el.value
    if el.kind == "L":
        return 1.0 / (1j * w * el.value)
    return 1j * w * el.value


def build_system(netlist: Netlist, f: float):
    """Admittance matrix, source vector and node index map at frequency f,
    the nodes in the solver's order."""
    nodes = {n for el in netlist.elements for n in (el.node_a, el.node_b)} - {"0"}
    solver_index = stamp(netlist).index
    assert nodes == set(solver_index), (sorted(nodes), sorted(solver_index))
    index = {node: i for i, node in
             enumerate(sorted(nodes, key=solver_index.__getitem__))}
    n = len(index)
    w = TWO_PI * f
    y = np.zeros((n, n), dtype=complex)
    for el in netlist.elements:
        adm = admittance(el, w)
        ia = None if el.node_a == "0" else index[el.node_a]
        ib = None if el.node_b == "0" else index[el.node_b]
        if ia is not None:
            y[ia, ia] += adm
        if ib is not None:
            y[ib, ib] += adm
        if ia is not None and ib is not None:
            y[ia, ib] -= adm
            y[ib, ia] -= adm
    rhs = np.zeros(n, dtype=complex)
    pa, pb = netlist.probe
    if pa in index:
        rhs[index[pa]] += 1.0
    if pb in index:
        rhs[index[pb]] -= 1.0
    return y, rhs, index


def reference_solution(netlist: Netlist, f: float):
    """Probe impedance, admittance matrix and node voltages at f; raises
    SingularCircuitError like the solver."""
    y, rhs, index = build_system(netlist, f)
    v = solve_lu(y, rhs)
    pa, pb = netlist.probe
    va = v[index[pa]] if pa in index else 0.0
    vb = v[index[pb]] if pb in index else 0.0
    return complex(va - vb), y, v


def reference_impedance(netlist: Netlist, f: float) -> complex:
    return reference_solution(netlist, f)[0]


def rounding_bound(y: np.ndarray, v: np.ndarray) -> float:
    """How far two backward-stable solves of Y v = p may place p^T v apart.

    Either solve is exact for some Y + dY with |dY| within a few n * eps
    of the largest |Y| row sum, which moves p^T v = p^T Y^-1 p by up to
    |v^T dY v| <= max|dY| * sum(|v|)**2.  Where Y is ill-conditioned this
    exceeds any fixed relative tolerance.
    """
    n = len(v)
    row_max = float(np.max(np.sum(np.abs(y), axis=1)))
    return 8 * n * np.finfo(float).eps * row_max * float(np.sum(np.abs(v))) ** 2


def reference_sweep(netlist: Netlist, grid) -> np.ndarray:
    """Probe impedance over grid, NaN where the system is singular."""
    values = np.empty(len(grid), dtype=complex)
    for i, f in enumerate(grid):
        try:
            values[i] = reference_impedance(netlist, float(f))
        except SingularCircuitError:
            values[i] = complex(math.nan, math.nan)
    return values


def reference_order(netlist: Netlist) -> tuple[dict[str, int], int]:
    """Row index and bandwidth by reverse Cuthill-McKee from the probe
    border, written as plainly as the rule reads: every node's neighbour
    set is built with ground and the node itself, which are then
    discarded, and every frontier is sorted, one node or many.  The solver
    skips both; the orderings must not differ."""
    adjacency: dict[str, set[str]] = {}
    for el in netlist.elements:
        adjacency.setdefault(el.node_a, set()).add(el.node_b)
        adjacency.setdefault(el.node_b, set()).add(el.node_a)
    adjacency.pop("0", None)
    degree = {}
    for node, neighbours in adjacency.items():
        neighbours.discard("0")
        neighbours.discard(node)
        degree[node] = len(neighbours)
    probed = [node for node in dict.fromkeys(netlist.probe or ()) if node in adjacency]
    visited = sorted(sorted(probed), key=degree.get)
    seen = set(visited)
    for node in visited:
        fresh = adjacency[node] - seen
        seen |= fresh
        visited += sorted(sorted(fresh), key=degree.get)
    nodes = sorted(adjacency.keys() - seen) + visited[::-1]
    index = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    bandwidth = max((n - index[node] for node in probed), default=0)
    for el in netlist.elements:
        ia, ib = index.get(el.node_a), index.get(el.node_b)
        if ia is not None and ib is not None and abs(ia - ib) > bandwidth:
            bandwidth = abs(ia - ib)
    return index, bandwidth


def frequency_major_solve(st: Stamp, omega: np.ndarray):
    """`mna._solve` with each block stored frequency-major, (F, n + 1, n + 1):
    minus the probe impedance at each angular frequency, and the singular
    mask.  The row sums of the threshold are numpy sums of contiguous
    segments, which numpy adds pairwise from eight entries on."""
    planes, b = st.planes, st.bandwidth
    n = len(st.index)
    size = n + 1
    stride = _row_stride(n, b)
    length = planes.shape[1]
    segments = []
    for i in range(n):
        row = i * stride
        segments += (row + i - b if i > b else row, row + i + b + 1 if i + b + 1 < n else row + n)
    corner = np.empty(omega.size, dtype=complex)
    singular = np.zeros(omega.size, dtype=bool)
    step = _block_points(n, b)
    with np.errstate(all="ignore"):
        for lo in range(0, omega.size, step):
            w = omega[lo:lo + step]
            a = np.empty((w.size, length), dtype=complex)
            a.real = planes[0]
            susceptance = a.imag
            np.multiply.outer(w, planes[1], out=susceptance)
            susceptance -= np.multiply.outer(1.0 / w, planes[2])
            matrix = np.ndarray((w.size, size, size), complex, a, 0,
                                (a.strides[0], stride * a.itemsize, a.itemsize))
            if n:
                row_sum = np.add.reduceat(np.abs(a), segments, 1)[:, 0::2]
                threshold = 1e-12 * np.maximum.reduce(row_sum, 1, initial=1e-300)
                frequency_major_eliminate(matrix, b)
                pivots = np.abs(matrix.diagonal(0, 1, 2)[:, :n])
                singular[lo:lo + step] = np.fmin.reduce(pivots, 1) < threshold
            corner[lo:lo + step] = matrix[:, n, n]
    return corner, singular


def frequency_major_eliminate(a: np.ndarray, b: int) -> None:
    """`mna._eliminate` on (F, n + 1, n + 1) systems: the same pivot window,
    row swaps, border row and band, with fancy indexing where the block's
    pivot rows differ."""
    n = a.shape[1] - 1
    for k in range(n):
        below = k + b + 1 if k + b < n else n + 1
        reach = k + 2 * b + 1 if k + 2 * b < n else n + 1
        last = below if below <= n else n
        if last - k > 1:
            p = np.abs(a[:, k:last, k]).argmax(1)
            if not np.count_nonzero(p):
                pass
            elif (p == p[0]).all():
                i = k + int(p[0])
                top = a[:, i, k:reach].copy()
                a[:, i, k:reach] = a[:, k, k:reach]
                a[:, k, k:reach] = top
            else:
                rows = np.arange(a.shape[0])
                tail = a[:, k:last, k:reach]
                top = tail[rows, p]
                tail[rows, p] = tail[:, 0]
                tail[:, 0] = top
        factors = a[:, k + 1:below, k:k + 1] / a[:, k:k + 1, k:k + 1]
        rest = a[:, k + 1:below, k + 1:reach]
        rest -= factors * a[:, k:k + 1, k + 1:reach]
