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
"""

import math

import numpy as np

from memsosc.bvd import TWO_PI
from memsosc.mna import Netlist, SingularCircuitError, stamp


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
