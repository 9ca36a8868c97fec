"""Small-signal AC oracle: linear R/L/C netlists solved by modified nodal analysis.

The netlist grammar is one statement per line:

    <Kind><name> <nodeA> <nodeB> <value>     R/L/C element (ohm, henry, farad)
    .ac lin|log <points> <fstart> <fstop>    sweep directive
    .probe <nodeA> <nodeB>                   driving-point impedance probe
    * comment

Values accept engineering suffixes (``16f``, ``250p``, ``30g``, ``1meg``).
Node "0" is ground.  Only AC analysis at f > 0 is supported, which keeps
the system at one row per non-ground node (MNA after Ho, Ruehli and
Brennan, IEEE TCAS 1975).

Solving.  `stamp` turns a netlist, once, into three real symmetric
matrices: conductance G, capacitance C and inverse inductance Gamma, so
that Y(w) = G + jwC + Gamma/(jw) at every frequency.  They are bordered by
the probe vector p, and eliminating the n node columns of
[[Y, p], [p^T, 0]] leaves -p^T Y^-1 p, minus the probe impedance, in the
corner.

Ordering and band.  The rows follow reverse Cuthill-McKee (Cuthill and
McKee 1969): a breadth-first search over the node graph starts from the
probe border, taken as a vertex joined to the probe nodes, and the visit
order is reversed, so the border comes last and every element lies within
a small bandwidth b of the diagonal (a ladder probed at one end gets b =
1).  Nodes with no path to the border come first, in sorted order.  The
ordering is computed once per `Netlist`.  The matrices are stored as a
band: row i keeps columns i - b to i + 2b, the upper half being room for
the fill that partial pivoting can bring.  A whole block of frequencies is
eliminated together: each of the n steps of the partial-pivot LU (largest
|entry| among the b + 1 candidate rows of the column, explicit row swaps,
the border row never a pivot) acts on every frequency of the block at
once and only inside the band, so a sweep costs O(F n b^2) rather than
O(F n^3).  The block is stored frequency last, band entry by band entry
with the block's frequencies contiguous, so each numpy call of a step
runs over the frequencies rather than over the few columns of a narrow
band.  Blocks hold at most a fixed number of band entries, so memory
stays bounded on any grid; a dense matrix is the case b = n.  A single
frequency of a narrow band (b <= 3), from `driving_point_impedance` or a
one-point .ac grid, is solved in Python floats from stamp to corner
instead: the planes are read as floats, Y and the row-sum threshold are
formed with the batched route's operations, and the elimination keeps its
pivots and singular rule.  There numpy's fixed cost per call outweighs the
few updates of each step.  Such a point whose row sums overflow stays with
the batched LU, so infinities and NaNs follow numpy's rules.

Bounds.  `.ac` takes at most 10**6 points, and a solve at most
MAX_SOLVE_WORK band operations, about F n (b + 1)^2 for F frequencies
plus a fixed cost per elimination step of each block.  A netlist beyond
that is an E_DIRECTIVE diagnostic at its .ac (else .probe) line, and
`ac_sweep` or `driving_point_impedance` refuse one built by hand with
ValueError, as they do a frequency whose 2*pi*f or 1/(2*pi*f) is not
finite.  `ac_sweep` passes the .ac grid, built once per `Netlist`,
and `driving_point_impedance` one frequency.  A frequency is singular
when any of its pivots falls below 1e-12 of its largest |Y| row sum
(floored at 1e-300): the sweep returns a NaN there and the single-point
call raises `SingularCircuitError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import bvd
from .bvd import MAX_AC_POINTS, TWO_PI, ComplexResponse
from .engnotation import EngNotationError, parse_eng

_KINDS = ("R", "L", "C")

# Diagnostic codes
E_KIND = "E_KIND"              # unknown element kind letter
E_VALUE = "E_VALUE"            # malformed value / suffix
E_NONPOSITIVE = "E_NONPOSITIVE"
E_ARITY = "E_ARITY"            # wrong token count on a statement
E_DUP_NAME = "E_DUP_NAME"
E_DIRECTIVE = "E_DIRECTIVE"    # malformed .ac / .probe / unknown dot card
E_DANGLING = "E_DANGLING"      # non-ground, non-probe node used only once
E_NO_GROUND = "E_NO_GROUND"
E_NOT_CONNECTED = "E_NOT_CONNECTED"


@dataclass(frozen=True)
class Diagnostic:
    code: str
    line: int
    column: int
    message: str

    def __str__(self):
        return f"{self.line}:{self.column}: {self.code}: {self.message}"


class NetlistError(ValueError):
    """Parse or structural failure; carries the full diagnostic list."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


class SingularCircuitError(RuntimeError):
    """The MNA system is singular at the requested frequency."""


@dataclass(frozen=True)
class Element:
    kind: str
    name: str
    node_a: str
    node_b: str
    value: float


@dataclass(frozen=True)
class Netlist:
    elements: tuple[Element, ...]
    ac: tuple[int, float, float, str] | None = None  # (points, start, stop, spacing)
    probe: tuple[str, str] | None = None
    # derived on first use and kept; `dataclasses.replace` starts afresh
    _grid: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _ordering: _Ordering | None = field(default=None, init=False, repr=False,
                                        compare=False)


def lint_netlist(text: str) -> list[Diagnostic]:
    """All diagnostics for the given source, empty when it parses cleanly."""
    _, diags = _parse(text)
    return diags


def parse_netlist(text: str) -> Netlist:
    netlist, diags = _parse(text)
    if diags:
        raise NetlistError(diags)
    return netlist


def _parse(text: str):
    elements: list[Element] = []
    seen_names: set[str] = set()
    ac = grid = None
    probe = None
    work_at = (0, 0)   # where a solve too large is reported: .ac, else .probe
    diags: list[Diagnostic] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("*"):
            continue
        tokens = line.split()
        col = raw.index(tokens[0]) + 1

        if tokens[0].startswith("."):
            card = tokens[0].lower()
            if card == ".ac":
                if (len(tokens) != 5 or tokens[1].lower() not in ("lin", "log")):
                    diags.append(Diagnostic(E_DIRECTIVE, lineno, col,
                                            ".ac wants: .ac lin|log <points> <fstart> <fstop>"))
                    continue
                try:
                    points = int(tokens[2])
                    fstart = parse_eng(tokens[3])
                    fstop = parse_eng(tokens[4])
                except (ValueError, EngNotationError):
                    diags.append(Diagnostic(E_DIRECTIVE, lineno, col,
                                            f"malformed .ac parameters: {line!r}"))
                    continue
                if fstart <= 0 or fstop < fstart:
                    diags.append(Diagnostic(E_DIRECTIVE, lineno, col,
                                            "need 0 < fstart <= fstop"))
                    continue
                # the point count, and a grid of two or more points that is
                # not strictly increasing, are refused by building the grid
                directive = (points, fstart, fstop, tokens[1].lower())
                try:
                    grid = _ac_grid(directive)
                except ValueError as exc:
                    diags.append(Diagnostic(E_DIRECTIVE, lineno, col, str(exc)))
                    continue
                ac = directive
                work_at = (lineno, col)
            elif card == ".probe":
                if len(tokens) != 3:
                    diags.append(Diagnostic(E_DIRECTIVE, lineno, col,
                                            ".probe wants: .probe <nodeA> <nodeB>"))
                    continue
                probe = (tokens[1], tokens[2])
                if ac is None:
                    work_at = (lineno, col)
            else:
                diags.append(Diagnostic(E_DIRECTIVE, lineno, col,
                                        f"unknown directive {tokens[0]!r}"))
            continue

        kind = tokens[0][0].upper()
        if kind not in _KINDS:
            diags.append(Diagnostic(E_KIND, lineno, col,
                                    f"unknown element kind {tokens[0][0]!r}"))
            continue
        if len(tokens) != 4:
            diags.append(Diagnostic(E_ARITY, lineno, col,
                                    f"element wants: <Kind><name> <nodeA> <nodeB> <value>"))
            continue
        name = tokens[0]
        if name in seen_names:
            diags.append(Diagnostic(E_DUP_NAME, lineno, col,
                                    f"duplicate element name {name!r}"))
            continue
        try:
            value = parse_eng(tokens[3])
        except EngNotationError:
            diags.append(Diagnostic(E_VALUE, lineno, col,
                                    f"malformed value {tokens[3]!r}"))
            continue
        if value <= 0:
            diags.append(Diagnostic(E_NONPOSITIVE, lineno, col,
                                    f"element value must be positive, got {tokens[3]!r}"))
            continue
        seen_names.add(name)
        elements.append(Element(kind, name, tokens[1], tokens[2], value))

    diags.extend(_structural_diagnostics(elements, probe))
    netlist = Netlist(tuple(elements), ac, probe)
    object.__setattr__(netlist, "_grid", grid)
    if probe is not None:
        try:
            _check_work(netlist, 1 if ac is None else ac[0])
        except ValueError as exc:
            diags.append(Diagnostic(E_DIRECTIVE, *work_at, str(exc)))
    return netlist, diags


def _structural_diagnostics(elements, probe):
    diags = []
    if not elements:
        return diags
    degree: dict[str, int] = {}
    for el in elements:
        for node in (el.node_a, el.node_b):
            degree[node] = degree.get(node, 0) + 1
    if "0" not in degree:
        diags.append(Diagnostic(E_NO_GROUND, 0, 0, 'no element touches ground node "0"'))
    probe_nodes = set(probe) if probe else set()
    for node, deg in sorted(degree.items()):
        if node != "0" and deg == 1 and node not in probe_nodes:
            diags.append(Diagnostic(E_DANGLING, 0, 0,
                                    f"node {node!r} is used by a single terminal only"))
    # connectivity over the element graph
    adjacency: dict[str, set[str]] = {n: set() for n in degree}
    for el in elements:
        adjacency[el.node_a].add(el.node_b)
        adjacency[el.node_b].add(el.node_a)
    if "0" in adjacency:
        seen = {"0"}
        stack = ["0"]
        while stack:
            for nxt in adjacency[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        unreachable = sorted(set(degree) - seen)
        if unreachable:
            diags.append(Diagnostic(E_NOT_CONNECTED, 0, 0,
                                    f"nodes not connected to ground: {', '.join(unreachable)}"))
    return diags


def format_netlist(netlist: Netlist) -> str:
    """Serialize back to netlist text; values use plain float notation so the
    result reparses bit-exactly."""
    lines = [f"{el.name} {el.node_a} {el.node_b} {el.value!r}"
             for el in netlist.elements]
    if netlist.ac is not None:
        points, fstart, fstop, spacing = netlist.ac
        lines.append(f".ac {spacing} {points} {fstart!r} {fstop!r}")
    if netlist.probe is not None:
        lines.append(f".probe {netlist.probe[0]} {netlist.probe[1]}")
    return "\n".join(lines) + "\n"


# --- solving -------------------------------------------------------------

# The LU works on blocks of frequencies holding at most this many complex
# band entries (1 MiB), so memory stays bounded whatever the grid length
# and a block's updates stay in cache.
_BLOCK_ELEMENTS = 1 << 16

# The most work one solve may take, in band operations (about a minute on
# one core): points * n * (b + 1)**2 for n nodes of bandwidth b, plus
# _STEP_WORK for each of the n elimination steps of every block, the fixed
# cost of a step that dominates when few frequencies fit in a block.
MAX_SOLVE_WORK = 10**9
_STEP_WORK = 300

# A single frequency whose band is at most this wide is solved in Python
# floats from stamp to corner: numpy's fixed cost per call, several to form
# Y and its threshold and more per elimination step, outweighs the few
# updates of such a step.
_POINT_BANDWIDTH = 3


class _Ordering(NamedTuple):
    index: dict[str, int]
    bandwidth: int


def _order(netlist: Netlist) -> _Ordering:
    """Rows of the non-ground nodes by reverse Cuthill-McKee from the probe
    border (see the module docstring; neighbours are visited by degree,
    then name), and the bandwidth of the bordered matrix.  Computed once
    per `Netlist`."""
    if netlist._ordering is not None:
        return netlist._ordering
    adjacency: dict[str, set[str]] = {}
    for el in netlist.elements:
        a, b = el.node_a, el.node_b
        if a != "0":
            adjacency.setdefault(a, set())
        if b != "0":
            adjacency.setdefault(b, set())
        if a != b and a != "0" and b != "0":
            adjacency[a].add(b)
            adjacency[b].add(a)
    degree = {node: len(neighbours) for node, neighbours in adjacency.items()}
    probed = [node for node in dict.fromkeys(netlist.probe or ()) if node in adjacency]
    # Cuthill-McKee order after the border; the list grows as the search runs
    visited = sorted(sorted(probed), key=degree.get)
    seen = set(visited)
    for node in visited:
        fresh = adjacency[node] - seen
        if fresh:
            seen |= fresh
            visited += fresh if len(fresh) == 1 else sorted(sorted(fresh), key=degree.get)
    nodes = sorted(adjacency.keys() - seen) + visited[::-1]
    index = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    bandwidth = max((n - index[node] for node in probed), default=0)
    for el in netlist.elements:
        ia, ib = index.get(el.node_a), index.get(el.node_b)
        if ia is not None and ib is not None and abs(ia - ib) > bandwidth:
            bandwidth = abs(ia - ib)
    ordering = _Ordering(index, bandwidth)
    object.__setattr__(netlist, "_ordering", ordering)
    return ordering


def _check_work(netlist: Netlist, points: int) -> None:
    """ValueError when solving ``points`` frequencies would take more than
    MAX_SOLVE_WORK band operations."""
    index, b = _order(netlist)
    n = len(index)
    blocks = -(-points // _block_points(n, b))
    work = n * (points * (b + 1) ** 2 + blocks * _STEP_WORK)
    if work > MAX_SOLVE_WORK:
        raise ValueError(f"{points} points on {n} nodes of bandwidth {b} need "
                         f"{work:.3g} band operations, over the limit of "
                         f"{MAX_SOLVE_WORK:.3g}")


def _block_points(n: int, bandwidth: int) -> int:
    """Frequencies per block of the LU."""
    return max(1, _BLOCK_ELEMENTS // (n * _row_stride(n, bandwidth) + n + 1))


def _row_stride(n: int, bandwidth: int) -> int:
    """Band storage keeps entry (i, j) of the bordered (n + 1)-square matrix
    at i * stride + j.  Row i's band, columns i - b to i + 2b (the upper
    half partial pivoting may fill), then never meets row i + 1's; with
    stride n + 1 (for b > n / 3) the layout is the dense square."""
    return min(3 * bandwidth, n + 1)


class Stamp(NamedTuple):
    """A netlist stamped once for every frequency.

    ``planes`` holds three real symmetric (n + 1)-square matrices, G, C and
    Gamma (conductance, capacitance and inverse inductance over the n
    non-ground nodes), each bordered by a last row and column, in band
    storage: entry (i, j) sits at i * stride + j of a plane's row, see
    `_row_stride`.  G's border is the probe vector p (+1 at the + probe
    node, -1 at the - node), the others' are zero.  The bordered system at
    angular frequency w is planes[0] + jw planes[1] + planes[2] / (jw) =
    [[Y(w), p], [p^T, 0]].  No entry lies more than ``bandwidth`` off the
    diagonal.
    """

    planes: np.ndarray
    index: dict[str, int]
    bandwidth: int

    def dense(self) -> np.ndarray:
        """The three bordered planes as (3, n + 1, n + 1) arrays."""
        n = len(self.index)
        stride = _row_stride(n, self.bandwidth)
        itemsize = self.planes.itemsize
        skewed = np.ndarray((3, n + 1, n + 1), float, self.planes, 0,
                            (self.planes.strides[0], stride * itemsize, itemsize))
        i, j = np.indices((n + 1, n + 1))
        return np.where(abs(i - j) <= self.bandwidth, skewed, 0.0)


def stamp(netlist: Netlist) -> Stamp:
    """The bordered G, C and Gamma planes in band storage, the node index
    map (reverse Cuthill-McKee, see `_order`) and the bandwidth."""
    planes = _stamp_flat(netlist)
    index, bandwidth = _order(netlist)
    return Stamp(np.ndarray((3, len(planes) // 3), buffer=planes), index, bandwidth)


def _stamp_flat(netlist: Netlist) -> memoryview:
    """`stamp`'s planes without numpy: one after another in a flat
    memoryview of doubles."""
    if netlist.probe is None:
        raise ValueError("netlist has no .probe directive")
    index, bandwidth = _order(netlist)
    n = len(index)
    stride = _row_stride(n, bandwidth)
    length = n * stride + n + 1
    m = memoryview(bytearray(24 * length)).cast("d")
    for el in netlist.elements:
        kind = el.kind
        base = _PLANE[kind] * length
        value = el.value if kind == "C" else 1.0 / el.value
        ia = index.get(el.node_a)
        ib = index.get(el.node_b)
        if ia is not None:
            m[base + ia * (stride + 1)] += value
        if ib is not None:
            m[base + ib * (stride + 1)] += value
        if ia is not None and ib is not None:
            m[base + ia * stride + ib] -= value
            m[base + ib * stride + ia] -= value
    pa, pb = netlist.probe
    for node, sign in ((pa, 1.0), (pb, -1.0)):
        if node in index:
            m[index[node] * stride + n] += sign
            m[n * stride + index[node]] += sign
        elif node != "0":
            raise ValueError(f"probe node {node!r} not in circuit")
    return m


_PLANE = {"R": 0, "C": 1, "L": 2}


def _solve(st: Stamp, omega: np.ndarray):
    """Minus the probe impedance at each angular frequency, and the singular mask.

    The bordered system [[Y, p], [p^T, 0]] is formed in band storage for a
    block of frequencies at once, stored frequency last as a (band entries,
    F) array: band entry k of all F frequencies is one contiguous row, so
    every numpy call runs over the block's frequencies rather than over a
    few band columns.  Y is each plane's outer product with the
    frequencies, and a node row's |Y| sum reduces the rows of its band
    segment.  The first n columns are eliminated by a banded partial-pivot
    LU whose steps each act on the whole block.  That leaves -p^T Y^-1 p,
    minus the probe impedance, in the corner, so no back substitution is
    needed.  A point is singular when any pivot falls below 1e-12 of its
    largest |Y| row sum (floored at 1e-300).  Its elimination runs on into
    zero pivots, infinities and NaNs, so floating-point errors are silenced
    and its value is meaningless.  This is the batched route only;
    `_solve_point` decides which single frequencies come here.
    """
    planes, b = st.planes, st.bandwidth
    n = len(st.index)
    size = n + 1
    stride = _row_stride(n, b)
    length = planes.shape[1]
    # row i's node columns, max(0, i - b) to min(n - 1, i + b), lie in
    # consecutive band entries; the sums between the segments are discarded
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
            # Y = G + j(wC - Gamma/w), formed without BLAS: its threads
            # would contend with this one for the cores
            a = np.empty((length, w.size), dtype=complex)
            a.real = planes[0][:, None]
            susceptance = a.imag
            np.multiply.outer(planes[1], w, out=susceptance)
            susceptance -= np.multiply.outer(planes[2], 1.0 / w)
            if n:
                row_sum = np.add.reduceat(np.abs(a), segments, 0)[0::2]
                threshold = 1e-12 * np.maximum.reduce(row_sum, 0, initial=1e-300)
                # the matrix view: entry (i, j) of the block at row i * stride + j
                _eliminate(np.ndarray((size, size, w.size), complex, a, 0,
                                      (stride * a.strides[0], a.strides[0], a.itemsize)), b)
                pivots = np.abs(a[:n * (stride + 1):stride + 1])
                singular[lo:lo + step] = np.fmin.reduce(pivots, 0) < threshold
            corner[lo:lo + step] = a[-1]
    return corner, singular


def _eliminate(a: np.ndarray, b: int) -> None:
    """Eliminate the first n columns of the bordered systems in ``a``
    (n + 1, n + 1, F), one per frequency along the last axis, of bandwidth
    b in place, pivoting on the largest |entry| among rows k..k+b of
    column k with explicit row swaps; the border row n is never a pivot.
    Only the band is read or written: the rows below k + b are zero in
    column k, and a pivot row reaches at most column k + 2b.  The diagonal
    is left holding the pivots; below it ``a`` holds stale values."""
    n = a.shape[0] - 1
    for k in range(n):
        below = k + b + 1 if k + b < n else n + 1   # rows k..below-1, border included
        reach = k + 2 * b + 1 if k + 2 * b < n else n + 1
        last = below if below <= n else n           # pivot candidates k..last-1
        if last - k > 1:
            p = np.abs(a[k:last, k]).argmax(0)
            if not np.count_nonzero(p):
                pass
            elif np.count_nonzero(p == p[0]) == p.size:   # one pivot row: slicing swaps it
                i = k + int(p[0])
                top = a[i, k:reach].copy()
                a[i, k:reach] = a[k, k:reach]
                a[k, k:reach] = top
            else:                         # row k trades with row k + r where p == r
                top = a[k, k:reach].copy()
                for r in range(1, last - k):
                    chosen = p == r
                    np.copyto(a[k, k:reach], a[k + r, k:reach], where=chosen)
                    np.copyto(a[k + r, k:reach], top, where=chosen)
        factors = a[k + 1:below, k:k + 1] / a[k, k]
        rest = a[k + 1:below, k + 1:reach]
        rest -= factors * a[k, k + 1:reach]


def _solve_point(netlist: Netlist, w: float) -> complex | None:
    """Minus the probe impedance at one angular frequency, or None where
    the system is singular.

    A band at most _POINT_BANDWIDTH wide is solved without numpy: the
    stamp's planes are read once as Python floats, Y = G + j(wC - Gamma/w)
    is formed with `_solve`'s operations in `_solve`'s order, and each
    row's |Y| sum is taken with math.hypot for the threshold, 1e-12 of the
    largest sum floored at 1e-300.  `_eliminate_point` then runs on that
    list.  A wider band, or row sums that overflow to infinity or NaN (a
    NaN sum makes the threshold NaN, as numpy's maximum does), goes to
    `_solve` as a one-frequency block, so infinities and NaNs follow
    numpy's rules.
    """
    index, b = _order(netlist)
    n = len(index)
    if b <= _POINT_BANDWIDTH:
        flat = _stamp_flat(netlist).tolist()
        length = len(flat) // 3
        stride = _row_stride(n, b)
        inverse = 1.0 / w
        g = flat[:length]
        susceptance = [w * c - inverse * gamma
                       for c, gamma in zip(flat[length:2 * length], flat[2 * length:])]
        largest = 1e-300
        for i in range(n):
            # row i's node columns, as `_solve`'s segments
            lo = i * stride + (i - b if i > b else 0)
            hi = i * stride + (i + b + 1 if i + b + 1 < n else n)
            total = 0.0
            for magnitude in map(math.hypot, g[lo:hi], susceptance[lo:hi]):
                total += magnitude
            if total > largest or total != total:
                largest = total
        threshold = 1e-12 * largest
        if threshold < math.inf:
            return _eliminate_point(list(map(complex, g, susceptance)), n, b, stride,
                                    threshold)
    (corner,), (singular,) = _solve(stamp(netlist), np.array([w]))
    return None if singular else complex(corner)


def _eliminate_point(a: list, n: int, b: int, stride: int,
                     threshold: float) -> complex | None:
    """`_eliminate` for one frequency, in Python complex arithmetic on the
    band as a list (entry (i, j) at i * stride + j): the same pivot window,
    row swaps and border row.  Returns the corner, or None as soon as a
    pivot falls below ``threshold``.  Values can differ from `_eliminate`'s
    in the last bits, as numpy rounds complex division and |z| differently."""
    hypot = math.hypot
    for k in range(n):
        below = k + b + 1 if k + b < n else n + 1
        reach = k + 2 * b + 1 if k + 2 * b < n else n + 1
        last = below if below <= n else n
        top = k * stride
        p, best = k, hypot(a[top + k].real, a[top + k].imag)
        for i in range(k + 1, last):
            z = a[i * stride + k]
            m = hypot(z.real, z.imag)
            if m > best or m != m and best == best:    # numpy's argmax: NaN wins
                p, best = i, m
        if p != k:
            row = p * stride
            a[top + k:top + reach], a[row + k:row + reach] = (a[row + k:row + reach],
                                                              a[top + k:top + reach])
        if best < threshold:
            return None
        pivot = a[top + k]
        for i in range(k + 1, below):
            row = i * stride
            factor = a[row + k] / pivot
            for j in range(k + 1, reach):
                a[row + j] -= factor * a[top + j]
    return a[n * stride + n]


def driving_point_impedance(netlist: Netlist, f: float) -> complex:
    """Impedance seen between the probe nodes: unit AC current in, voltage out.

    One frequency goes through `_solve_point`: a narrow band never calls
    numpy.  SingularCircuitError where a pivot falls below the threshold.
    """
    w = _angular_frequency(f)
    _check_work(netlist, 1)
    corner = _solve_point(netlist, w)
    if corner is None:
        raise SingularCircuitError("singular MNA system (lossless resonance?)")
    return -corner


def _angular_frequency(f) -> float:
    """2*pi*f; ValueError unless f > 0 and 2*pi*f and 1/(2*pi*f) are finite."""
    w = TWO_PI * bvd.check_frequency(f)
    if w < math.inf and 1.0 / w < math.inf:
        return w
    raise ValueError(f"frequency {f!r} Hz puts 2*pi*f or 1/(2*pi*f) beyond the float range")


def _ac_grid(ac) -> np.ndarray:
    """Frequencies of an .ac directive (points, fstart, fstop, spacing).

    ValueError unless the grid is strictly increasing (endpoints closer than
    the float grid can resolve repeat values) and its endpoints, and so
    every point between them, pass `_angular_frequency`.
    """
    points, fstart, fstop, spacing = ac
    if not 1 <= points <= MAX_AC_POINTS:
        raise ValueError(f".ac wants 1 to {MAX_AC_POINTS} points, got {points}")
    values = bvd.grid(fstart, fstop, points, spacing == "log")
    _angular_frequency(values[0])
    _angular_frequency(values[-1])
    grid = np.array(values, dtype=float)
    if not (grid[1:] > grid[:-1]).all():
        raise ValueError(f".ac grid of {points} points from {fstart!r} to "
                         f"{fstop!r} Hz is not strictly increasing")
    return grid


def ac_sweep(netlist: Netlist) -> ComplexResponse:
    """Probe impedance over the .ac grid; singular points become NaN gaps."""
    if netlist.ac is None:
        raise ValueError("netlist has no .ac directive")
    grid = netlist._grid
    if grid is None:
        grid = _ac_grid(netlist.ac)
        object.__setattr__(netlist, "_grid", grid)
    _check_work(netlist, grid.size)
    if grid.size == 1:
        # the single-point route, so the point keeps driving_point_impedance's bits
        corner = _solve_point(netlist, TWO_PI * float(grid[0]))
        values = np.array([complex(math.nan, math.nan) if corner is None else -corner])
    else:
        corner, singular = _solve(stamp(netlist), TWO_PI * grid)
        values = -corner
        values[singular] = complex(math.nan, math.nan)
    return ComplexResponse(grid.copy(), values)
