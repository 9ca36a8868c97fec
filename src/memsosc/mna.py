"""Small-signal AC oracle: linear R/L/C netlists solved by modified nodal analysis.

The netlist grammar is one statement per line:

    <Kind><name> <nodeA> <nodeB> <value>     R/L/C element (ohm, henry, farad)
    .ac lin|log <points> <fstart> <fstop>    sweep directive (at most 10**6 points)
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
corner.  A whole block of frequencies is eliminated together: each of the
n steps of the partial-pivot LU (largest |entry| of the column, explicit
row swaps) acts on every frequency of the block at once, and blocks hold
at most a fixed number of entries, so memory stays bounded on any grid.
`ac_sweep` passes the .ac grid and `driving_point_impedance` one
frequency.  A frequency is singular when any of its pivots falls below
1e-12 of its largest |Y| row sum (floored at 1e-300): the sweep returns a
NaN there and the single-point call raises `SingularCircuitError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bvd import TWO_PI, ComplexResponse, check_frequency
from .engnotation import EngNotationError, parse_eng

_KINDS = ("R", "L", "C")
MAX_AC_POINTS = 10**6

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
    ac = None
    probe = None
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
                    _ac_grid(directive)
                except ValueError as exc:
                    diags.append(Diagnostic(E_DIRECTIVE, lineno, col, str(exc)))
                    continue
                ac = directive
            elif card == ".probe":
                if len(tokens) != 3:
                    diags.append(Diagnostic(E_DIRECTIVE, lineno, col,
                                            ".probe wants: .probe <nodeA> <nodeB>"))
                    continue
                probe = (tokens[1], tokens[2])
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
    return Netlist(tuple(elements), ac, probe), diags


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
# entries (1 MiB), so memory stays bounded whatever the grid length and a
# block's updates stay in cache.
_BLOCK_ELEMENTS = 1 << 16


class Stamp(NamedTuple):
    """A netlist stamped once for every frequency.

    ``planes`` holds three real, symmetric (n + 1, n + 1) matrices: G, C
    and Gamma (conductance, capacitance and inverse inductance over the n
    non-ground nodes), each bordered by a last row and column.  G's border
    is the probe vector p (+1 at the + probe node, -1 at the - node), the
    others' are zero.  The bordered system at angular frequency w is
    planes[0] + jw planes[1] + planes[2] / (jw) = [[Y(w), p], [p^T, 0]].
    """

    planes: np.ndarray
    index: dict[str, int]


def stamp(netlist: Netlist) -> Stamp:
    """The bordered G, C and Gamma planes and the node index map (non-ground
    nodes sorted by name)."""
    if netlist.probe is None:
        raise ValueError("netlist has no .probe directive")
    nodes = sorted({n for el in netlist.elements for n in (el.node_a, el.node_b)}
                   - {"0"})
    index = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    size = n + 1
    area = size * size
    buffer = bytearray(24 * area)
    m = memoryview(buffer).cast("d")   # the three planes, flattened
    for el in netlist.elements:
        kind = el.kind
        base = _PLANE[kind] * area
        value = el.value if kind == "C" else 1.0 / el.value
        ia = index.get(el.node_a)
        ib = index.get(el.node_b)
        if ia is not None:
            m[base + ia * (size + 1)] += value
        if ib is not None:
            m[base + ib * (size + 1)] += value
        if ia is not None and ib is not None:
            m[base + ia * size + ib] -= value
            m[base + ib * size + ia] -= value
    pa, pb = netlist.probe
    for node, sign in ((pa, 1.0), (pb, -1.0)):
        if node in index:
            m[index[node] * size + n] += sign
            m[n * size + index[node]] += sign
        elif node != "0":
            raise ValueError(f"probe node {node!r} not in circuit")
    return Stamp(np.ndarray((3, size, size), buffer=buffer), index)


_PLANE = {"R": 0, "C": 1, "L": 2}


def _solve(st: Stamp, omega: np.ndarray):
    """Minus the probe impedance at each angular frequency, and the singular mask.

    The bordered system [[Y, p], [p^T, 0]] is formed for a block of
    frequencies at once and its first n columns are eliminated by a
    partial-pivot LU whose steps each act on the whole block.  That leaves
    -p^T Y^-1 p, minus the probe impedance, in the corner, so no back
    substitution is needed.  A point is singular when any pivot falls below
    1e-12 of its largest |Y| row sum (floored at 1e-300).  Its elimination
    runs on into zero pivots, infinities and NaNs, so floating-point
    errors are silenced and its value is meaningless.
    """
    planes = st.planes
    size = planes.shape[1]
    n = size - 1
    corner = np.empty(omega.size, dtype=complex)
    singular = np.empty(omega.size, dtype=bool)
    step = max(1, _BLOCK_ELEMENTS // (size * size))
    with np.errstate(all="ignore"):
        for lo in range(0, omega.size, step):
            w = omega[lo:lo + step]
            # Y = G + j(wC - Gamma/w), formed without BLAS: its threads
            # would contend with this one for the cores
            a = np.empty((w.size, size, size), dtype=complex)
            a.real = planes[0]
            susceptance = a.imag
            np.multiply.outer(w, planes[1], out=susceptance)
            susceptance -= np.multiply.outer(1.0 / w, planes[2])
            row_sum = np.add.reduce(np.abs(a[:, :n, :n]), 2)
            threshold = 1e-12 * np.maximum.reduce(row_sum, 1, initial=1e-300)
            _eliminate(a)
            pivots = np.abs(a.diagonal(0, 1, 2)[:, :n])
            singular[lo:lo + step] = np.fmin.reduce(pivots, 1, initial=math.inf) < threshold
            corner[lo:lo + step] = a[:, n, n]
    return corner, singular


def _eliminate(a: np.ndarray) -> None:
    """Eliminate the first n columns of each bordered system in ``a``
    (F, n + 1, n + 1) in place, pivoting on the largest |entry| among rows
    k..n-1 of column k with explicit row swaps; the border row is never a
    pivot.  The diagonal is left holding the pivots; below it ``a`` holds
    stale values."""
    n = a.shape[1] - 1
    for k in range(n):
        if k < n - 1:                 # at k = n - 1 row n - 1 is the only candidate
            p = np.abs(a[:, k:n, k]).argmax(1)
            if np.count_nonzero(p):
                rows = np.arange(a.shape[0])
                tail = a[:, k:]
                top = tail[rows, p]
                tail[rows, p] = tail[:, 0]
                tail[:, 0] = top
        factors = a[:, k + 1:, k:k + 1] / a[:, k:k + 1, k:k + 1]
        rest = a[:, k + 1:, k + 1:]
        rest -= factors * a[:, k:k + 1, k + 1:]


def driving_point_impedance(netlist: Netlist, f: float) -> complex:
    """Impedance seen between the probe nodes: unit AC current in, voltage out."""
    if not 0 < f < math.inf:
        raise ValueError("frequency must be positive and finite")
    corner, singular = _solve(stamp(netlist), np.array([TWO_PI * f]))
    if singular[0]:
        raise SingularCircuitError("singular MNA system (lossless resonance?)")
    return -complex(corner[0])


def _ac_grid(ac) -> np.ndarray:
    """Frequencies of an .ac directive (points, fstart, fstop, spacing).

    ValueError unless the grid is positive, finite and strictly increasing:
    endpoints closer than the float grid can resolve repeat values.
    """
    points, fstart, fstop, spacing = ac
    if not 1 <= points <= MAX_AC_POINTS:
        raise ValueError(f".ac wants 1 to {MAX_AC_POINTS} points, got {points}")
    if points == 1:
        grid = np.array([fstart])
    elif spacing == "log":
        grid = np.geomspace(fstart, fstop, points)
    else:
        grid = np.linspace(fstart, fstop, points)
    check_frequency(grid)
    if not (grid[1:] > grid[:-1]).all():
        raise ValueError(f".ac grid of {points} points from {fstart!r} to "
                         f"{fstop!r} Hz is not strictly increasing")
    return grid


def ac_sweep(netlist: Netlist) -> ComplexResponse:
    """Probe impedance over the .ac grid; singular points become NaN gaps."""
    if netlist.ac is None:
        raise ValueError("netlist has no .ac directive")
    grid = _ac_grid(netlist.ac)
    corner, singular = _solve(stamp(netlist), TWO_PI * grid)
    values = -corner
    values[singular] = complex(math.nan, math.nan)
    return ComplexResponse(grid, values)
