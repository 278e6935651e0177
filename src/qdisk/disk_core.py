"""Quadriculated disks: boards embedded in Z^2 and abstract glued square complexes.

A board is a finite set of unit cells whose union is a topological disk.
A QuadDisk is the general object: counterclockwise-oriented squares glued
edge to edge, with vertices derived as corner orbits of the gluing.  Both
types expose the same small query surface (squares, colors, neighbors,
corners, boundary census) so the higher layers can stay type-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    CensusViolation,
    DoubleGluingError,
    EmptyBoardError,
    FormatError,
    InteriorDegreeViolation,
    NonDiskError,
    NotADiskError,
    NotBipartiteError,
)

Cell = tuple[int, int]
Slot = tuple[int, int]  # (square index, edge slot 0..3 counterclockwise)

# Edge slot convention for cells: 0 bottom, 1 right, 2 top, 3 left.
# Corner c of a cell (x, y) is (x, y), (x+1, y), (x+1, y+1), (x, y+1);
# slot e runs counterclockwise from corner e to corner e+1.
_CELL_STEPS = ((0, -1), (1, 0), (0, 1), (-1, 0))


def cell_key(c: Cell) -> tuple[int, int]:
    """Row-major sort key: lowest row first, then leftmost."""
    return (c[1], c[0])


def cell_neighbors(c: Cell) -> tuple[Cell, ...]:
    """The four edge neighbours of a cell in Z^2, in slot order."""
    x, y = c
    return ((x, y - 1), (x + 1, y), (x, y + 1), (x - 1, y))


def connected_components(nodes, neighbors) -> list[list]:
    """Connected components of the graph on ``nodes``.

    ``neighbors(x)`` may name points outside ``nodes``; they are skipped.
    Components come in the order of their first node in ``nodes``, and each
    lists its nodes in the order the flood reaches them.
    """
    todo = set(nodes)
    out = []
    for start in nodes:
        if start not in todo:
            continue
        todo.remove(start)
        comp = [start]
        for x in comp:
            for y in neighbors(x):
                if y in todo:
                    todo.remove(y)
                    comp.append(y)
        out.append(comp)
    return out


def json_square(s):
    """A square as JSON: a board cell becomes ``[x, y]``, a glued square stays an int."""
    return list(s) if isinstance(s, tuple) else s


@dataclass(frozen=True)
class BoundaryCensus:
    """Vertex, edge and face counts of a disk, split by boundary behavior."""

    faces: int
    vertices: int
    edges: int
    interior_edges: int
    boundary_edges: int
    interior_vertices: int
    boundary_vertex_squares: tuple[tuple[int, int], ...]  # (r, count of boundary vertices in r squares)
    positive: int | None = None  # boards only: corner extrema of x+y on the boundary
    negative: int | None = None
    flat: int | None = None

    def v(self, r: int) -> int:
        for rr, count in self.boundary_vertex_squares:
            if rr == r:
                return count
        return 0

    def corner_defect_lhs(self) -> int:
        """V_1 - sum_{r>=3} (r-2) V_r, which equals 4 on every valid disk."""
        return self.v(1) - sum((r - 2) * count for r, count in self.boundary_vertex_squares if r >= 3)

    def to_json(self) -> dict:
        out = {
            "faces": self.faces,
            "vertices": self.vertices,
            "edges": self.edges,
            "interior_edges": self.interior_edges,
            "boundary_edges": self.boundary_edges,
            "interior_vertices": self.interior_vertices,
            "boundary_vertex_squares": {str(r): c for r, c in self.boundary_vertex_squares},
        }
        if self.positive is not None:
            out["positive"] = self.positive
            out["negative"] = self.negative
            out["flat"] = self.flat
        return out


class Board:
    """Finite set of cells of Z^2 whose union of closed unit squares is a disk.

    Cells are kept sorted row-major from the lowest-leftmost cell; that order
    is the canonical square order.  ``black_parity`` records which parity
    class of x+y is black; by default the first cell is black.
    """

    __slots__ = (
        "cells",
        "black_parity",
        "_cellset",
        "_index",
        "_nbrs",
        "_points",
        "_corners",
        "_circuit",
        "_circuit_pos",
        "_complex",
    )

    def __init__(self, cells, black_parity: int | None = None, validate: bool = True):
        ordered = tuple(sorted({(int(x), int(y)) for x, y in cells}, key=cell_key))
        if not ordered:
            raise EmptyBoardError("board has no cells")
        self.cells = ordered
        if black_parity is None:
            black_parity = (ordered[0][0] + ordered[0][1]) % 2
        self.black_parity = black_parity % 2
        self._cellset = frozenset(ordered)
        self._index = {c: i for i, c in enumerate(ordered)}
        self._nbrs: dict | None = None
        self._points: dict | None = None
        self._corners: tuple | None = None
        self._circuit: tuple | None = None
        self._circuit_pos: dict | None = None
        self._complex = None
        if validate:
            self._validate()

    # -- basic queries ----------------------------------------------------

    @property
    def squares(self) -> tuple[Cell, ...]:
        return self.cells

    def __len__(self) -> int:
        return len(self.cells)

    def __contains__(self, c: Cell) -> bool:
        return c in self._cellset

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Board)
            and self.cells == other.cells
            and self.black_parity == other.black_parity
        )

    def __hash__(self) -> int:
        return hash((self.cells, self.black_parity))

    def __repr__(self) -> str:
        return f"Board({len(self.cells)} cells)"

    def index(self, c: Cell) -> int:
        return self._index[c]

    def is_black(self, c: Cell) -> bool:
        return (c[0] + c[1]) % 2 == self.black_parity

    def blacks(self) -> list[Cell]:
        return [c for c in self.cells if self.is_black(c)]

    def whites(self) -> list[Cell]:
        return [c for c in self.cells if not self.is_black(c)]

    def color_counts(self) -> tuple[int, int]:
        b = sum(1 for c in self.cells if self.is_black(c))
        return b, len(self.cells) - b

    def canonical_labeling(self) -> tuple[tuple[Cell, ...], tuple[Cell, ...]]:
        return tuple(self.blacks()), tuple(self.whites())

    def neighbors(self, c: Cell) -> tuple[Cell, ...]:
        if self._nbrs is None:
            nbrs = {}
            for cell in self.cells:
                present = [n for n in cell_neighbors(cell) if n in self._cellset]
                present.sort(key=cell_key)
                nbrs[cell] = tuple(present)
            self._nbrs = nbrs
        return self._nbrs[c]

    def cells_at_point(self, p: Cell) -> list[Cell]:
        x, y = p
        return [
            c
            for c in ((x - 1, y - 1), (x, y - 1), (x - 1, y), (x, y))
            if c in self._cellset
        ]

    def _point_counts(self) -> dict[Cell, int]:
        """Number of cells at each lattice point of the board."""
        if self._points is None:
            counts: dict[Cell, int] = {}
            for (x, y) in self.cells:
                for p in ((x, y), (x + 1, y), (x + 1, y + 1), (x, y + 1)):
                    counts[p] = counts.get(p, 0) + 1
            self._points = counts
        return self._points

    def is_interior_vertex(self, p: Cell) -> bool:
        return self._point_counts().get(p) == 4

    def corners(self) -> tuple[Cell, ...]:
        """Boundary lattice points belonging to exactly one cell, row-major."""
        if self._corners is None:
            counts = self._point_counts()
            self._corners = tuple(sorted((p for p, k in counts.items() if k == 1), key=cell_key))
        return self._corners

    # -- validation and boundary structure --------------------------------

    def _validate(self) -> None:
        cells = self._cellset
        if len(connected_components(self.cells, cell_neighbors)) != 1:
            raise NotADiskError("cells are not edge-connected")
        # simple connectivity: a connected union of unit squares has Euler
        # characteristic V - E + F = 1 - (number of holes); E counts each
        # cell's four sides once, less the sides two cells share
        points = {(x + i, y + j) for x, y in self.cells for i in (0, 1) for j in (0, 1)}
        shared = sum(((x + 1, y) in cells) + ((x, y + 1) in cells) for x, y in self.cells)
        if len(points) - (4 * len(cells) - shared) + len(cells) != 1:
            raise NotADiskError("cell set encloses a hole")
        # a pinch would give one boundary point two outgoing boundary edges
        self.boundary_circuit()

    def boundary_circuit(self) -> tuple[Cell, ...]:
        """Boundary lattice points in counterclockwise order (disk on the left).

        Starts at the row-major smallest boundary point, the lower-left
        corner of ``cells[0]``.
        """
        if self._circuit is not None:
            return self._circuit
        succ: dict[Cell, Cell] = {}

        def step(a: Cell, b: Cell) -> None:
            if a in succ:
                raise NotADiskError("boundary touches itself (pinch point)")
            succ[a] = b

        for (x, y) in self.cells:
            if (x, y - 1) not in self._cellset:
                step((x, y), (x + 1, y))
            if (x + 1, y) not in self._cellset:
                step((x + 1, y), (x + 1, y + 1))
            if (x, y + 1) not in self._cellset:
                step((x + 1, y + 1), (x, y + 1))
            if (x - 1, y) not in self._cellset:
                step((x, y + 1), (x, y))
        start = self.cells[0]
        circuit = [start]
        cur = succ[start]
        while cur != start:
            circuit.append(cur)
            cur = succ[cur]
        if len(circuit) != len(succ):
            raise NotADiskError("boundary is not a single circuit")
        self._circuit = tuple(circuit)
        return self._circuit

    def circuit_positions(self) -> dict[Cell, int]:
        """Index of each boundary lattice point on ``boundary_circuit()``."""
        if self._circuit_pos is None:
            self._circuit_pos = {p: i for i, p in enumerate(self.boundary_circuit())}
        return self._circuit_pos

    def census(self) -> BoundaryCensus:
        counts = self._point_counts()
        # a point in 4 cells is interior for boards; others lie on the boundary
        interior = sum(1 for k in counts.values() if k == 4)
        v_r: dict[int, int] = {}
        for p, k in counts.items():
            if k == 4:
                continue
            v_r[k] = v_r.get(k, 0) + 1
        interior_edges = sum(len(self.neighbors(c)) for c in self.cells) // 2
        circuit = self.boundary_circuit()
        boundary_edges = len(circuit)
        pos = neg = flat = 0
        m = len(circuit)
        for i, p in enumerate(circuit):
            h = p[0] + p[1]
            before = circuit[i - 1][0] + circuit[i - 1][1]
            after = circuit[(i + 1) % m][0] + circuit[(i + 1) % m][1]
            if (h - before) * (h - after) > 0:  # local extremum of x+y
                if counts[p] == 1:
                    pos += 1
                else:
                    neg += 1
            else:
                flat += 1
        return BoundaryCensus(
            faces=len(self.cells),
            vertices=len(counts),
            edges=interior_edges + boundary_edges,
            interior_edges=interior_edges,
            boundary_edges=boundary_edges,
            interior_vertices=interior,
            boundary_vertex_squares=tuple(sorted(v_r.items())),
            positive=pos,
            negative=neg,
            flat=flat,
        )

    # -- conversions -------------------------------------------------------

    def to_complex(self) -> "QuadDisk":
        """Glued-complex view; square i is cells[i], colors are inherited."""
        if self._complex is None:
            gluings = []
            for c in self.cells:
                x, y = c
                right = (x + 1, y)
                up = (x, y + 1)
                if right in self._cellset:
                    gluings.append((self._index[c], 1, self._index[right], 3))
                if up in self._cellset:
                    gluings.append((self._index[c], 2, self._index[up], 0))
            colors = tuple(self.is_black(c) for c in self.cells)
            self._complex = QuadDisk(len(self.cells), gluings, colors=colors, validate=False)
        return self._complex

    def normalized(self) -> "Board":
        """Translate so the bounding box corner sits at the origin."""
        dx = -min(c[0] for c in self.cells)
        dy = -min(c[1] for c in self.cells)
        return Board(
            [(x + dx, y + dy) for x, y in self.cells],
            black_parity=(self.black_parity + dx + dy) % 2,
            validate=False,
        )

    def render(self) -> str:
        b = self.normalized()
        w = max(c[0] for c in b.cells) + 1
        h = max(c[1] for c in b.cells) + 1
        rows = []
        for y in range(h - 1, -1, -1):
            rows.append("".join("#" if (x, y) in b._cellset else "." for x in range(w)))
        return "\n".join(rows) + "\n"


class QuadDisk:
    """Squares glued edge to edge along an orientation-reversing pairing.

    ``gluings`` is a list of (a, e, b, f) entries identifying slot e of
    square a with slot f of square b; corner e of a meets corner f+1 of b.
    Vertices are corner orbits of the gluing and are derived on demand.
    """

    __slots__ = ("n", "glue", "colors", "_vertices", "_vertex_of", "_boundary_slots", "_nbrs")

    def __init__(self, n: int, gluings, colors: tuple[bool, ...] | None = None, validate: bool = True):
        self.n = int(n)
        glue: dict[Slot, Slot] = {}
        for a, e, b, f in gluings:
            if not (0 <= a < self.n and 0 <= b < self.n and 0 <= e < 4 and 0 <= f < 4):
                raise FormatError(f"glue entry out of range: {(a, e, b, f)}")
            if a == b:
                raise NonDiskError(f"square {a} glued to itself")
            sa, sb = (a, e), (b, f)
            if sa in glue or sb in glue:
                raise DoubleGluingError(f"slot glued twice in entry {(a, e, b, f)}")
            glue[sa] = sb
            glue[sb] = sa
        self.glue = glue
        if colors is None:
            colors = self._canonical_colors()
        else:
            colors = tuple(bool(c) for c in colors)
            if len(colors) != self.n:
                raise FormatError("color list length mismatch")
        for (a, _), (b, _) in glue.items():
            if colors[a] == colors[b]:
                raise NotBipartiteError(f"glued squares {a} and {b} share a color")
        self.colors = colors
        self._vertices: list | None = None
        self._vertex_of: dict | None = None
        self._boundary_slots: set | None = None
        self._nbrs: dict | None = None
        if validate:
            self.validate_disk()

    # -- coloring ----------------------------------------------------------

    def _canonical_colors(self) -> tuple[bool, ...]:
        colors: list[bool | None] = [None] * self.n
        for start in range(self.n):
            if colors[start] is not None:
                continue
            colors[start] = True  # lowest-indexed square of each component is black
            stack = [start]
            while stack:
                s = stack.pop()
                for e in range(4):
                    t = self.glue.get((s, e))
                    if t is None:
                        continue
                    if colors[t[0]] is None:
                        colors[t[0]] = not colors[s]
                        stack.append(t[0])
                    elif colors[t[0]] == colors[s]:
                        raise NotBipartiteError("dual graph contains an odd cycle")
        return tuple(bool(c) for c in colors)

    # -- basic queries ----------------------------------------------------

    @property
    def squares(self) -> tuple[int, ...]:
        return tuple(range(self.n))

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"QuadDisk({self.n} squares, {len(self.glue) // 2} gluings)"

    def index(self, s: int) -> int:
        return s

    def is_black(self, s: int) -> bool:
        return self.colors[s]

    def blacks(self) -> list[int]:
        return [s for s in range(self.n) if self.colors[s]]

    def whites(self) -> list[int]:
        return [s for s in range(self.n) if not self.colors[s]]

    def color_counts(self) -> tuple[int, int]:
        b = sum(self.colors)
        return b, self.n - b

    def canonical_labeling(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return tuple(self.blacks()), tuple(self.whites())

    def neighbors(self, s: int) -> tuple[int, ...]:
        if self._nbrs is None:
            nbrs: dict[int, set] = {t: set() for t in range(self.n)}
            for (a, _), (b, _) in self.glue.items():
                nbrs[a].add(b)
            self._nbrs = {t: tuple(sorted(v)) for t, v in nbrs.items()}
        return self._nbrs[s]

    def slot_between(self, a: int, b: int) -> int:
        """The slot of a glued to b; valid disks glue two squares at most once."""
        for e in range(4):
            t = self.glue.get((a, e))
            if t is not None and t[0] == b:
                return e
        raise ValueError(f"squares {a} and {b} are not glued")

    # -- corner orbits ------------------------------------------------------

    def cw_step(self, s: int, c: int):
        """Next (square, corner) clockwise around the vertex at corner c of s."""
        t = self.glue.get((s, c))
        return None if t is None else (t[0], (t[1] + 1) % 4)

    def ccw_step(self, s: int, c: int):
        t = self.glue.get((s, (c + 3) % 4))
        return None if t is None else t

    def _derive_vertices(self) -> None:
        if self._vertices is not None:
            return
        orbits = []
        vertex_of: dict[tuple[int, int], int] = {}
        for s in range(self.n):
            for c in range(4):
                if (s, c) in vertex_of:
                    continue
                members, interior = self._walk_vertex(s, c)
                vid = len(orbits)
                for m in members:
                    vertex_of[m] = vid
                orbits.append((members, interior))
        # canonical vertex ids: sort orbits by smallest member
        order = sorted(range(len(orbits)), key=lambda i: min(orbits[i][0]))
        remap = {old: new for new, old in enumerate(order)}
        self._vertices = [orbits[old] for old in order]
        self._vertex_of = {m: remap[v] for m, v in vertex_of.items()}

    def _walk_vertex(self, s: int, c: int):
        cur = (s, c)
        seen = {cur}
        while True:
            nxt = self.ccw_step(*cur)
            if nxt is None:
                interior = False
                break
            if nxt == (s, c):
                interior = True
                cur = min(seen)
                break
            if nxt in seen:
                raise NonDiskError("corner orbit folds onto itself")
            seen.add(nxt)
            cur = nxt
        members = [cur]
        while True:
            nxt = self.cw_step(*cur)
            if nxt is None or nxt == members[0]:
                break
            members.append(nxt)
            cur = nxt
        if len({m[0] for m in members}) != len(members):
            raise NonDiskError("a square meets a vertex more than once")
        if interior and len(members) != 4:
            raise InteriorDegreeViolation(
                f"interior vertex at {members[0]} lies in {len(members)} squares"
            )
        return tuple(members), interior

    def vertex_count(self) -> int:
        self._derive_vertices()
        return len(self._vertices)

    def vertex_of(self, s: int, c: int) -> int:
        self._derive_vertices()
        return self._vertex_of[(s, c)]

    def vertex_members(self, vid: int) -> tuple[tuple[int, int], ...]:
        self._derive_vertices()
        return self._vertices[vid][0]

    def vertex_squares(self, vid: int) -> tuple[int, ...]:
        return tuple(m[0] for m in self.vertex_members(vid))

    def is_interior_vertex(self, vid: int) -> bool:
        self._derive_vertices()
        return self._vertices[vid][1]

    def corners(self) -> tuple[int, ...]:
        self._derive_vertices()
        return tuple(
            vid for vid, (members, interior) in enumerate(self._vertices) if len(members) == 1
        )

    # -- boundary ----------------------------------------------------------

    def boundary_slots(self) -> set[Slot]:
        if self._boundary_slots is None:
            self._boundary_slots = {
                (s, e) for s in range(self.n) for e in range(4) if (s, e) not in self.glue
            }
        return self._boundary_slots

    def _next_boundary_slot(self, slot: Slot) -> Slot:
        s, e = slot
        cur = (s, (e + 1) % 4)
        while cur in self.glue:
            cur = self.cw_step(*cur)
        return cur

    def boundary_circuits(self) -> list[list[Slot]]:
        slots = set(self.boundary_slots())
        circuits = []
        while slots:
            start = min(slots)
            circuit = [start]
            slots.remove(start)
            cur = self._next_boundary_slot(start)
            while cur != start:
                circuit.append(cur)
                slots.remove(cur)
                cur = self._next_boundary_slot(cur)
            circuits.append(circuit)
        return circuits

    # -- validation ---------------------------------------------------------

    def validate_disk(self) -> None:
        """Raise unless this complex is a single quadriculated disk."""
        if self.n == 0:
            raise NonDiskError("empty complex")
        if len(connected_components(range(self.n), self.neighbors)) != 1:
            raise NonDiskError("dual graph is disconnected")
        self._derive_vertices()
        v = len(self._vertices)
        e = len(self.glue) // 2 + len(self.boundary_slots())
        f = self.n
        if v - e + f != 1:
            raise NonDiskError(f"Euler characteristic V-E+F = {v - e + f}, expected 1")
        if len(self.boundary_circuits()) != 1:
            raise NonDiskError("boundary is not a single closed circuit")

    def census(self) -> BoundaryCensus:
        self._derive_vertices()
        interior = sum(1 for _, isint in self._vertices if isint)
        v_r: dict[int, int] = {}
        for members, isint in self._vertices:
            if isint:
                continue
            r = len(members)
            v_r[r] = v_r.get(r, 0) + 1
        e_i = len(self.glue) // 2
        e_b = len(self.boundary_slots())
        return BoundaryCensus(
            faces=self.n,
            vertices=len(self._vertices),
            edges=e_i + e_b,
            interior_edges=e_i,
            boundary_edges=e_b,
            interior_vertices=interior,
            boundary_vertex_squares=tuple(sorted(v_r.items())),
        )

    def gluing_list(self) -> list[tuple[int, int, int, int]]:
        out = []
        for (a, e), (b, f) in self.glue.items():
            if (a, e) < (b, f):
                out.append((a, e, b, f))
        out.sort()
        return out

    def canonical_signature(self) -> tuple:
        """Canonical form under orientation- and color-preserving isomorphism.

        Minimizes a BFS relabeling signature over all starting squares and
        rotations; two complexes are isomorphic exactly when these agree.
        """
        best = None
        for s0 in range(self.n):
            for r0 in range(4):
                new_id = {s0: 0}
                rot = {s0: r0}
                order = [s0]
                rows = []
                i = 0
                while i < len(order):
                    s = order[i]
                    i += 1
                    row = [self.colors[s]]
                    for e in range(4):
                        t = self.glue.get((s, (e - rot[s]) % 4))
                        if t is None:
                            row.append((-1, -1))
                            continue
                        ts, tf = t
                        if ts not in new_id:
                            new_id[ts] = len(order)
                            rot[ts] = -tf % 4  # entry edge becomes slot 0
                            order.append(ts)
                        row.append((new_id[ts], (tf + rot[ts]) % 4))
                    rows.append(tuple(row))
                sig = tuple(rows)
                if best is None or sig < best:
                    best = sig
        return best


# -- module-level operations ------------------------------------------------


def parse_board(text: str) -> Board:
    """Parse an ASCII grid of '#' cells and '.' gaps into a validated board."""
    lines = [line for line in text.splitlines() if line.strip() != ""]
    cells = []
    for r, line in enumerate(lines):
        for c, ch in enumerate(line):
            if ch == "#":
                cells.append((c, len(lines) - 1 - r))
            elif ch not in "._ ":
                raise FormatError(f"unexpected character {ch!r} in board text")
    if not cells:
        raise EmptyBoardError("board text has no '#' cells")
    return Board(cells)


def render_board(board: Board) -> str:
    return board.render()


def parse_glued(text: str) -> QuadDisk:
    """Parse a glue file: a ``squares N`` header and ``glue a e b f`` lines."""
    n = None
    gluings = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "squares":
            if n is not None:
                raise FormatError(f"line {lineno}: duplicate squares header")
            if len(parts) != 2 or not parts[1].isdigit():
                raise FormatError(f"line {lineno}: malformed squares header")
            n = int(parts[1])
        elif parts[0] == "glue":
            if n is None:
                raise FormatError(f"line {lineno}: glue before squares header")
            if len(parts) != 5:
                raise FormatError(f"line {lineno}: glue needs four integers")
            try:
                a, e, b, f = (int(p) for p in parts[1:])
            except ValueError as exc:
                raise FormatError(f"line {lineno}: glue needs four integers") from exc
            gluings.append((a, e, b, f))
        else:
            raise FormatError(f"line {lineno}: unknown directive {parts[0]!r}")
    if n is None:
        raise FormatError("missing squares header")
    return QuadDisk(n, gluings)


def render_glue(disk: QuadDisk) -> str:
    lines = [f"squares {disk.n}"]
    for a, e, b, f in disk.gluing_list():
        lines.append(f"glue {a} {e} {b} {f}")
    return "\n".join(lines) + "\n"


def validate(disk) -> BoundaryCensus:
    """Recompute the census and assert the counting identities of valid disks."""
    census = disk.census()
    lhs = census.corner_defect_lhs()
    if lhs != 4:
        raise CensusViolation(f"corner defect identity failed: V1 - sum (r-2) V_r = {lhs}, expected 4")
    if 4 * census.faces != 2 * census.edges - census.boundary_edges:
        raise CensusViolation("edge-face identity failed: 4F != 2E - E_B")
    if census.positive is not None and census.positive - census.negative != 2:
        raise CensusViolation(
            f"boundary extrema identity failed: {census.positive} - {census.negative} != 2"
        )
    return census
