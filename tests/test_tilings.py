"""Tilings, parity, superposition, wedges, transfer, and the matching."""

from __future__ import annotations

import pytest

from qdisk import (
    canonical_good_diagonal,
    compatible,
    cut_and_paste,
    enumerate_tilings,
    lift_tiling,
    parse_board,
    project_tiling,
    quasi_perfect_matching,
    signed_count,
    superposition,
    tiling_parity,
    trace_diagonal,
    wedge_partition,
)
from qdisk.corpus import all_boards
from qdisk.errors import InconsistentTilingError, NonSquareDiskError, NotInRError
from qdisk.tilings import Tiling, flip_at_wedge


def test_tiling_counts():
    assert len(enumerate_tilings(parse_board("##\n##"))) == 2
    assert len(enumerate_tilings(parse_board("###\n###"))) == 3
    assert len(enumerate_tilings(parse_board("####\n####\n####\n####"))) == 36
    assert enumerate_tilings(parse_board("##\n#.")) == []


def test_enumeration_is_sorted_and_stable():
    b = parse_board("###\n###")
    tilings = enumerate_tilings(b)

    def key(t):
        return tuple((b.index(x), b.index(y)) for x, y in t.dominoes)

    assert tilings == sorted(tilings, key=key)
    assert tilings == enumerate_tilings(b)


def test_parity_2x2_flip_pair():
    b = parse_board("##\n##")
    t1, t2 = enumerate_tilings(b)
    assert tiling_parity(b, t1) == -tiling_parity(b, t2)


def test_signed_sums():
    assert signed_count(parse_board("##\n##")) == 0
    assert signed_count(parse_board("###\n###")) in (-1, 1)
    assert signed_count(parse_board("####\n####\n####\n####")) == 0
    with pytest.raises(NonSquareDiskError):
        signed_count(parse_board("##\n#."))


def test_superposition_identical_tilings():
    b = parse_board("##\n##")
    t = enumerate_tilings(b)[0]
    sup = superposition(b, t, t)
    assert sup.curves == ()
    assert len(sup.discarded) == 2
    assert not compatible(b, t, t)


def test_superposition_flip_pair():
    b = parse_board("##\n##")
    t1, t2 = enumerate_tilings(b)
    sup = superposition(b, t1, t2)
    assert sup.lengths == (4,)
    assert compatible(b, t1, t2)


def test_superposition_2x3_cases():
    from qdisk.tilings import _normalize

    b = parse_board("###\n###")
    vert = _normalize(b, [((0, 0), (0, 1)), ((1, 0), (1, 1)), ((2, 0), (2, 1))])
    h_left = _normalize(b, [((0, 0), (1, 0)), ((0, 1), (1, 1)), ((2, 0), (2, 1))])
    h_right = _normalize(b, [((0, 0), (0, 1)), ((1, 0), (2, 0)), ((1, 1), (2, 1))])
    assert set(enumerate_tilings(b)) == {vert, h_left, h_right}
    assert compatible(b, vert, h_left)  # differ by a flip: one curve of length 4
    assert compatible(b, vert, h_right)
    sup = superposition(b, h_left, h_right)
    assert sup.lengths == (6,)
    assert not compatible(b, h_left, h_right)
    assert tiling_parity(b, h_left) == tiling_parity(b, h_right)


def test_superposition_of_a_doctored_tiling_is_typed():
    # the first "tiling" covers (0, 0) twice, so the alternating curve runs
    # into a square the second tiling leaves uncovered and cannot close
    b = parse_board("##\n##")
    doctored = Tiling((((0, 0), (1, 0)), ((0, 0), (0, 1)), ((1, 0), (1, 1))))
    valid = Tiling((((0, 0), (1, 0)), ((0, 1), (1, 1))))
    with pytest.raises(InconsistentTilingError):
        superposition(b, doctored, valid)
    with pytest.raises(InconsistentTilingError):
        compatible(b, valid, Tiling((((0, 0), (0, 1)),)))


def test_wedges_unbalanced_r_empty():
    b = parse_board("##\n##")
    d = canonical_good_diagonal(b)
    assert not d.balanced
    ws = wedge_partition(b, d)
    assert ws.respectful == ()
    assert len(ws.disrespecting) == 2
    assert all(v >= 2 for v in ws.first_disrespected.values())


def test_wedges_match_respectful_subgraph():
    # tilings avoiding every crossing domino are exactly the respectful ones
    for text in ("###\n###", "####\n####"):
        b = parse_board(text)
        d = canonical_good_diagonal(b)
        ws = wedge_partition(b, d)
        crossing = {pair for _, pair in ws.crossing_dominoes}
        manual = [t for t in enumerate_tilings(b) if not (set(t.dominoes) & crossing)]
        assert list(ws.respectful) == manual


def test_flip_preserves_first_disrespected():
    b = parse_board("####\n####")
    d = canonical_good_diagonal(b)
    ws = wedge_partition(b, d)
    for t in ws.disrespecting:
        i = ws.first_disrespected[t]
        u = flip_at_wedge(b, d, t, i)
        assert u != t
        assert ws.first_disrespected[u] == i
        assert flip_at_wedge(b, d, u, i) == t
        assert tiling_parity(b, u) == -tiling_parity(b, t)


def test_projection_bijection_counts():
    # the count identity |R| = |T'| holds for balanced diagonals and for any
    # good diagonal when the colors balance
    for text in ("###\n###", "####\n####", "##\n##\n##\n##"):
        b = parse_board(text)
        d = canonical_good_diagonal(b)
        cp = cut_and_paste(b, d)
        ws = wedge_partition(b, d)
        prod = 1
        for comp in cp.components:
            prod *= len(enumerate_tilings(comp))
        assert len(ws.respectful) == prod
        seen = set()
        for t in ws.respectful:
            parts = project_tiling(b, d, cp, t)
            assert lift_tiling(b, d, cp, parts) == t
            seen.add(parts)
        assert len(seen) == len(ws.respectful)


def test_unbalanced_diagonal_on_unequal_colors_breaks_count():
    # with unequal colors an unbalanced cut can leave a tileable remainder
    # even though nothing respects the last wedge; the count identity is
    # scoped to balanced cuts or balanced colors
    b = parse_board("###\n###\n###")
    d = trace_diagonal(b, (0, 0))
    assert d.good and not d.balanced
    cp = cut_and_paste(b, d)
    ws = wedge_partition(b, d)
    prod = 1
    for comp in cp.components:
        prod *= len(enumerate_tilings(comp))
    assert len(ws.respectful) == 0
    assert prod == 2


def test_project_rejects_disrespecting():
    b = parse_board("###\n###")
    d = canonical_good_diagonal(b)
    cp = cut_and_paste(b, d)
    ws = wedge_partition(b, d)
    with pytest.raises(NotInRError):
        project_tiling(b, d, cp, ws.disrespecting[0])


def test_lift_rejects_wrong_part_count():
    from qdisk.errors import InconsistentTilingError

    b = parse_board("###\n###")
    d = canonical_good_diagonal(b)
    cp = cut_and_paste(b, d)
    with pytest.raises(InconsistentTilingError):
        lift_tiling(b, d, cp, ())


def test_matching_small_boards():
    m = quasi_perfect_matching(parse_board("##"))
    assert m.pairs == () and m.loner is not None

    m = quasi_perfect_matching(parse_board("###\n###"))
    assert len(m.pairs) == 1 and m.loner is not None

    m = quasi_perfect_matching(parse_board("####\n####\n####\n####"))
    assert len(m.pairs) == 18 and m.loner is None


def test_matching_pairs_are_even_odd():
    b = parse_board("####\n####")
    m = quasi_perfect_matching(b)
    for even, odd in m.pairs:
        assert tiling_parity(b, even) == 1
        assert tiling_parity(b, odd) == -1


def test_matching_unequal_colors_is_empty():
    m = quasi_perfect_matching(parse_board("##\n#."))
    assert m.pairs == () and m.loner is None


def test_loner_demo_board():
    b = parse_board("##\n##\n##\n##")
    assert len(enumerate_tilings(b)) == 5
    m = quasi_perfect_matching(b)
    assert len(m.pairs) == 2 and m.loner is not None
    assert abs(signed_count(b)) == 1


def test_loner_chain_reaches_unique_tiling():
    b = parse_board("##\n##\n##\n##")
    m = quasi_perfect_matching(b)
    disk, t = b, m.loner
    depths = 0
    while len(disk) > 2:
        d = canonical_good_diagonal(disk)
        cp = cut_and_paste(disk, d)
        parts = project_tiling(disk, d, cp, t)
        subs = [quasi_perfect_matching(c) for c in cp.components]
        for part, sub in zip(parts, subs):
            assert part == sub.loner  # unmatched exactly when every part is a loner
        if not cp.components:
            break
        disk, t = cp.components[0], parts[0]
        depths += 1
    assert depths >= 1
    assert len(enumerate_tilings(disk)) == 1


def test_matching_properties_small_corpus():
    for b in all_boards(8, square_only=True):
        if len(b) < 2:
            continue
        tilings = enumerate_tilings(b)
        m = quasi_perfect_matching(b)
        assert 2 * len(m.pairs) + (0 if m.loner is None else 1) == len(tilings)
        assert abs(len([t for t in tilings if tiling_parity(b, t) == 1]) * 2 - len(tilings)) <= 1
        assert (m.loner is not None) == (abs(signed_count(b)) == 1)


def test_compatibility_preserved_by_projection():
    checked = 0
    extras = [
        parse_board("####\n####\n####"),
        parse_board("#####\n#####"),
        parse_board("######\n######"),
    ]
    for b in list(all_boards(8, square_only=True)) + extras:
        if len(b) < 4:
            continue
        d = canonical_good_diagonal(b)
        cp = cut_and_paste(b, d)
        ws = wedge_partition(b, d)
        R = ws.respectful
        for i in range(len(R)):
            for j in range(i + 1, len(R)):
                p1 = project_tiling(b, d, cp, R[i])
                p2 = project_tiling(b, d, cp, R[j])
                diffs = [ci for ci in range(len(cp.components)) if p1[ci] != p2[ci]]
                if len(diffs) == 1:
                    image_compatible = compatible(cp.components[diffs[0]], p1[diffs[0]], p2[diffs[0]])
                else:
                    image_compatible = False
                assert compatible(b, R[i], R[j]) == image_compatible
                checked += 1
    assert checked >= 20


def _image_dominoes(curve, cp):
    """Dominoes of a superposition curve transported to the pasted disks."""
    survivor = cp.survivor_of_deleted()
    diag = set(cp.removed_diagonal)
    mapped = set()
    for a, b in curve:
        if a in diag or b in diag:
            continue
        pa, pb = survivor.get(a, a), survivor.get(b, b)
        ca, sa = cp.square_map[pa]
        cb, sb = cp.square_map[pb]
        assert ca == cb
        mapped.add((ca, frozenset((sa, sb))))
    return mapped


def test_curve_correspondence_mod_4():
    # each parent curve maps onto exactly one image curve, losing an even
    # number of two-edge corridor passages: lengths agree modulo four
    checked = 0
    extras = [
        parse_board("####\n####\n####"),
        parse_board("#####\n#####"),
        parse_board("######\n######"),
    ]
    for b in list(all_boards(8, square_only=True)) + extras:
        if len(b) < 6:
            continue
        d = canonical_good_diagonal(b)
        cp = cut_and_paste(b, d)
        ws = wedge_partition(b, d)
        R = ws.respectful
        for i in range(len(R)):
            for j in range(i + 1, len(R)):
                sup = superposition(b, R[i], R[j])
                p1 = project_tiling(b, d, cp, R[i])
                p2 = project_tiling(b, d, cp, R[j])
                image_curves = []
                for ci, (comp, a, b2) in enumerate(zip(cp.components, p1, p2)):
                    for curve in superposition(comp, a, b2).curves:
                        image_curves.append(
                            (len(curve), {(ci, frozenset(dom)) for dom in curve})
                        )
                for curve in sup.curves:
                    mapped = _image_dominoes(curve, cp)
                    assert mapped, "curves never vanish under projection"
                    hits = [lc for lc, doms in image_curves if mapped & doms]
                    assert len(hits) == 1 and mapped <= next(
                        doms for lc, doms in image_curves if mapped & doms
                    )
                    assert (len(curve) - hits[0]) % 4 == 0
                    checked += 1
    assert checked >= 20
