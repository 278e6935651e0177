"""Domino tilings: enumeration, parity, superposition curves, wedges along a
diagonal, transfer across cut-and-paste, and the parity-inverting
quasi-perfect matching built over the surgery tree."""

from __future__ import annotations

from dataclasses import dataclass

from .adjacency import Labeling
from .cutpaste import CutPasteResult, surgery_fold
from .diagonals import Diagonal
from .disk_core import json_square
from .errors import InconsistentTilingError, NonSquareDiskError, NotInRError
from .intmat import perm_sign


@dataclass(frozen=True)
class Tiling:
    """A perfect matching of the dual graph, stored as sorted square pairs."""

    dominoes: tuple[tuple, ...]

    def __len__(self) -> int:
        return len(self.dominoes)

    def domino_set(self) -> frozenset:
        return frozenset(self.dominoes)


def _normalize(disk, pairs) -> Tiling:
    idx = disk.index
    doms = []
    for a, b in pairs:
        if idx(a) > idx(b):
            a, b = b, a
        doms.append((a, b))
    doms.sort(key=lambda p: (idx(p[0]), idx(p[1])))
    return Tiling(tuple(doms))


def enumerate_tilings(disk) -> list[Tiling]:
    """All domino tilings, in a canonical lexicographic order."""
    n = len(disk)
    if n % 2:
        return []
    sqs = list(disk.squares)
    idx = {s: i for i, s in enumerate(sqs)}
    nbrs = [[idx[t] for t in disk.neighbors(s)] for s in sqs]
    out: list[tuple] = []
    chosen: list[tuple[int, int]] = []  # the dominoes of the partial tiling
    # backtracking on an explicit stack: per open square, its untried partners;
    # an open square has its domino in chosen once it is paired
    frames: list = []
    covered = [False] * n
    i = 0
    while True:
        while i < n and covered[i]:
            i += 1
        if i == n:
            out.append(tuple(chosen))
        else:
            covered[i] = True
            frames.append((i, iter(nbrs[i])))
        while frames:
            i, partners = frames[-1]
            if len(chosen) == len(frames):
                covered[chosen.pop()[1]] = False
            for j in partners:
                if not covered[j]:
                    covered[j] = True
                    chosen.append((i, j))
                    break
            else:
                covered[i] = False
                frames.pop()
                continue
            i += 1
            break
        else:
            break
    out.sort()
    # one shared pair per domino, as every tiling reuses the same few dominoes
    domino = {(a, b): (sqs[a], sqs[b]) for a in range(n) for b in nbrs[a]}
    return [Tiling(tuple(map(domino.__getitem__, doms))) for doms in out]


def permutation_of(disk, t: Tiling, labeling: Labeling | None = None) -> tuple[int, ...]:
    """White ordinal -> black ordinal map of the tiling under the labeling."""
    b, w = disk.color_counts()
    if b != w:
        raise NonSquareDiskError("tilings only carry permutations when colors balance")
    if labeling is None:
        labeling = disk.canonical_labeling()
    black_pos = {s: i for i, s in enumerate(labeling[0])}
    white_pos = {s: i for i, s in enumerate(labeling[1])}
    perm = [-1] * w
    for a, b_ in t.dominoes:
        black, white = (a, b_) if a in black_pos else (b_, a)
        perm[white_pos[white]] = black_pos[black]
    if sorted(perm) != list(range(w)):
        raise InconsistentTilingError("tiling does not induce a permutation")
    return tuple(perm)


def tiling_parity(disk, t: Tiling, labeling: Labeling | None = None) -> int:
    """Sign of the tiling's white-to-black permutation."""
    return perm_sign(permutation_of(disk, t, labeling))


@dataclass(frozen=True)
class SuperpositionCurve:
    """Closed alternating curves of two tilings; common dominoes are discarded."""

    curves: tuple[tuple, ...]  # each curve is a cyclic tuple of dominoes
    discarded: tuple

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.curves)


def superposition(disk, t1: Tiling, t2: Tiling) -> SuperpositionCurve:
    d1, d2 = t1.domino_set(), t2.domino_set()
    common = d1 & d2
    rest1 = d1 - common
    rest2 = d2 - common
    cover1 = {}
    cover2 = {}
    for dom in rest1:
        cover1[dom[0]] = dom
        cover1[dom[1]] = dom
    for dom in rest2:
        cover2[dom[0]] = dom
        cover2[dom[1]] = dom
    idx = disk.index
    unused = set(rest1)
    # a closed curve alternating two perfect matchings uses each of their
    # differing dominoes at most once
    longest = len(rest1) + len(rest2)
    curves = []
    for start in sorted(rest1, key=lambda p: (idx(p[0]), idx(p[1]))):
        if start not in unused:
            continue
        curve = [start]
        unused.discard(start)
        square = start[1]
        other_cover = cover2
        while True:
            nxt = other_cover.get(square)
            if nxt is None or len(curve) > longest:
                raise InconsistentTilingError("superposition curve does not close by alternating the two tilings")
            if nxt == start:
                break
            curve.append(nxt)
            unused.discard(nxt)
            square = nxt[0] if nxt[1] == square else nxt[1]
            other_cover = cover1 if other_cover is cover2 else cover2
        curves.append(tuple(curve))
    discarded = tuple(sorted(common, key=lambda p: (idx(p[0]), idx(p[1]))))
    return SuperpositionCurve(tuple(curves), discarded)


def compatible(disk, t1: Tiling, t2: Tiling) -> bool:
    """A single superposition curve whose length is a multiple of four."""
    sup = superposition(disk, t1, t2)
    return len(sup.curves) == 1 and len(sup.curves[0]) % 4 == 0


@dataclass(frozen=True)
class WedgeSplit:
    """Partition of the tilings by wedge respect along a diagonal."""

    respectful: tuple[Tiling, ...]  # no domino crosses any wedge leg
    disrespecting: tuple[Tiling, ...]
    first_disrespected: dict  # tiling -> smallest crossed wedge (1-based, always >= 2)
    crossing_dominoes: tuple  # (wedge index, domino) pairs realizing the legs


def _crossings(disk, d: Diagonal):
    """Dominoes that cross a wedge leg: backward pairings of diagonal squares."""
    idx = disk.index
    out = []
    for i in range(2, d.length + 1):
        cur = d.squares[i - 1]
        for flank in (d.left_flanks[i - 2], d.right_flanks[i - 2]):
            pair = (cur, flank) if idx(cur) < idx(flank) else (flank, cur)
            out.append((i, pair))
    return out


def wedge_partition(disk, d: Diagonal, tilings=None) -> WedgeSplit:
    """Split tilings into those respecting every wedge and the rest.

    Wedge i sits at vertex i-1 of the diagonal with legs on the i-th diagonal
    square; a tiling crosses it exactly when that square pairs backward.  The
    first wedge's legs lie on the boundary, so nothing ever crosses it.
    """
    if tilings is None:
        tilings = enumerate_tilings(disk)
    crossings = _crossings(disk, d)
    respectful = []
    disrespecting = []
    first: dict = {}
    for t in tilings:
        doms = t.domino_set()
        hit = next((i for i, pair in crossings if pair in doms), None)
        if hit is None:
            respectful.append(t)
        else:
            disrespecting.append(t)
            first[t] = hit
    return WedgeSplit(tuple(respectful), tuple(disrespecting), first, tuple(crossings))


def flip_at_wedge(disk, d: Diagonal, t: Tiling, wedge: int) -> Tiling:
    """Rotate the two dominoes in the 2x2 block around the given wedge."""
    s_prev = d.squares[wedge - 2]
    s_cur = d.squares[wedge - 1]
    flanks = (d.left_flanks[wedge - 2], d.right_flanks[wedge - 2])
    doms = set(t.dominoes)
    idx = disk.index

    def norm(a, b):
        return (a, b) if idx(a) < idx(b) else (b, a)

    cross = next((f for f in flanks if norm(s_cur, f) in doms), None)
    other = flanks[1] if cross == flanks[0] else flanks[0]
    if cross is None or norm(s_prev, other) not in doms:
        raise InconsistentTilingError("no 2x2 block of dominoes around the wedge")
    doms.discard(norm(s_cur, cross))
    doms.discard(norm(s_prev, other))
    doms.add(norm(s_cur, other))
    doms.add(norm(s_prev, cross))
    return _normalize(disk, doms)


def project_tiling(disk, d: Diagonal, cp: CutPasteResult, t: Tiling) -> tuple[Tiling, ...]:
    """Image of a wedge-respecting tiling on the pasted disks.

    Removes the dominoes pairing each diagonal square forward and renames
    flank squares to their merge survivors; returns one tiling per component.
    """
    diag_pos = {s: i for i, s in enumerate(cp.removed_diagonal)}
    forward = {
        i: {f for f in (d.left_flanks[i], d.right_flanks[i]) if f is not None}
        for i in range(d.length)
    }
    survivor = cp.survivor_of_deleted()
    removed = cp.removed_squares()
    per_comp: dict[int, list] = {i: [] for i in range(len(cp.components))}
    for a, b in t.dominoes:
        if a in diag_pos or b in diag_pos:
            sq, other = (a, b) if a in diag_pos else (b, a)
            if other not in forward[diag_pos[sq]]:
                raise NotInRError(f"diagonal square {sq} pairs backward")
            continue
        pa = survivor.get(a, a)
        pb = survivor.get(b, b)
        if pa in removed or pb in removed:
            raise NotInRError("a removed square is not consumed by a forward domino")
        ca, sa = cp.square_map[pa]
        cb, sb = cp.square_map[pb]
        if ca != cb:
            raise InconsistentTilingError("domino straddles two components")
        per_comp[ca].append((sa, sb))
    parts = []
    for ci, comp in enumerate(cp.components):
        if 2 * len(per_comp[ci]) != len(comp):
            raise InconsistentTilingError("projected dominoes do not cover a component")
        parts.append(_normalize(comp, per_comp[ci]))
    return tuple(parts)


def lift_tiling(disk, d: Diagonal, cp: CutPasteResult, parts) -> Tiling:
    """Inverse of project_tiling: split merged squares and refill the strip."""
    if len(parts) != len(cp.components):
        raise InconsistentTilingError("one tiling per component required")
    back = {loc: parent for parent, loc in cp.square_map.items()}
    merge_of = {}
    for i, (left, right, surv) in enumerate(cp.merges):
        merge_of[surv] = (i, left, right)
    used_flank: dict[int, object] = {}
    dominoes = []
    for ci, part in enumerate(parts):
        for u, v in part.dominoes:
            pu, pv = back[(ci, u)], back[(ci, v)]
            if pu in merge_of and pv in merge_of:
                raise InconsistentTilingError("two merged squares cannot share a domino")
            if pv in merge_of:
                pu, pv = pv, pu
            if pu in merge_of:
                i, left, right = merge_of[pu]
                candidates = [f for f in (left, right) if pv in disk.neighbors(f)]
                if len(candidates) != 1:
                    raise InconsistentTilingError(
                        f"split of merged square {pu} toward {pv} is not unique"
                    )
                used_flank[i] = candidates[0]
                dominoes.append((candidates[0], pv))
            else:
                dominoes.append((pu, pv))
    for i in range(d.length):
        if i < len(cp.merges):
            left, right, _ = cp.merges[i]
            if i not in used_flank:
                raise InconsistentTilingError(f"merged square {i} is uncovered")
            free = right if used_flank[i] == left else left
        else:
            free = d.left_flanks[i] if d.left_flanks[i] is not None else d.right_flanks[i]
            if free is None:
                raise InconsistentTilingError("no terminal flank to pair the last square")
        dominoes.append((d.squares[i], free))
    lifted = _normalize(disk, dominoes)
    covered = [s for dom in lifted.dominoes for s in dom]
    if len(covered) != len(disk) or len(set(covered)) != len(covered):
        raise InconsistentTilingError("lifted dominoes do not tile the disk")
    return lifted


@dataclass(frozen=True)
class MatchingResult:
    """Pairs of opposite-parity tilings, leaving out at most one loner."""

    pairs: tuple[tuple[Tiling, Tiling], ...]
    loner: Tiling | None
    trace: dict
    tilings: tuple[Tiling, ...]  # every tiling of the disk, in enumeration order


def _match(disk):
    """Surgery node of the matching; its value is (rho, loner, trace, tilings)."""
    tilings = enumerate_tilings(disk)
    info = {"squares": len(disk), "tilings": len(tilings)}
    if not tilings:
        return {}, None, {**info, "base": True}, tilings
    if len(disk) <= 2:
        return {}, tilings[0], {**info, "base": True}, tilings
    d, cp, subs = yield
    split = wedge_partition(disk, d, tilings)
    rho: dict = {}
    for t in split.disrespecting:
        partner = flip_at_wedge(disk, d, t, split.first_disrespected[t])
        rho[t] = partner
    loner = None
    for t in split.respectful:
        parts = project_tiling(disk, d, cp, t)
        target = next((i for i, p in enumerate(parts) if p != subs[i][1]), None)
        if target is None:
            if loner is not None:
                raise InconsistentTilingError("two unmatched tilings at one level")
            loner = t
            continue
        new_parts = list(parts)
        new_parts[target] = subs[target][0][parts[target]]
        rho[t] = lift_tiling(disk, d, cp, tuple(new_parts))
    trace = {
        **info,
        "corner": json_square(d.corner),
        "length": d.length,
        "balanced": d.balanced,
        "respectful": len(split.respectful),
        "disrespecting": len(split.disrespecting),
        "components": [s[2] for s in subs],
    }
    return rho, loner, trace, tilings


def quasi_perfect_matching(disk) -> MatchingResult:
    """Parity-inverting involution on the tilings, leaving at most one out."""
    b, w = disk.color_counts()
    if b != w:
        return MatchingResult((), None, {"squares": len(disk), "tilings": 0, "base": True}, ())
    rho, loner, trace, tilings = surgery_fold(disk, _match)
    for t, u in rho.items():
        if rho[u] != t or u == t:
            raise InconsistentTilingError("matching is not a fixed-point-free involution")
    matched = set(rho)
    if loner is not None:
        if loner in matched:
            raise InconsistentTilingError("loner appears in the matching")
        matched.add(loner)
    if matched != set(tilings):
        raise InconsistentTilingError("matching does not cover the tilings")
    labeling = disk.canonical_labeling()
    pairs = []
    seen = set()
    for t in tilings:
        if t in seen or t not in rho:
            continue
        u = rho[t]
        seen.add(t)
        seen.add(u)
        pt = tiling_parity(disk, t, labeling)
        pu = tiling_parity(disk, u, labeling)
        if pt == pu:
            raise InconsistentTilingError("matched tilings share a parity")
        pairs.append((t, u) if pt == 1 else (u, t))
    pairs.sort(key=lambda pair: pair[0].dominoes)
    return MatchingResult(tuple(pairs), loner, trace, tuple(tilings))


def signed_count(disk) -> int:
    """Number of even tilings minus number of odd tilings."""
    b, w = disk.color_counts()
    if b != w:
        raise NonSquareDiskError("signed count needs equally many black and white squares")
    labeling = disk.canonical_labeling()
    return sum(tiling_parity(disk, t, labeling) for t in enumerate_tilings(disk))
