from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kakeyalab.errors import InvalidInput
from kakeyalab.lacunarity import (
    GeneratorSpec,
    LacunaryWitness,
    cone_section,
    counterexample_raw,
    decompose_lacunary_order,
    decompose_split_one,
    generate,
    is_lacunary_sequence,
    parcet_rogers_directions,
    project,
    stern_brocot_rationals,
    transform_witness,
    verify_witness,
)
from kakeyalab.madic import encode_set, splitting_number, splitting_number_1d_points

GEOM = [F(1, 2 ** j) for j in range(1, 16)]


def test_geometric_sequence_is_its_own_witness():
    w = LacunaryWitness(order=1, lam=F(1, 2), special=tuple(GEOM), alpha=F(0))
    assert verify_witness(GEOM, w)


def test_perturbed_geometric_against_special_sequence():
    pts = [p for (p,) in generate("perturbed_geometric:jmax=7")]
    w = LacunaryWitness(order=1, lam=F(1, 2),
                        special=tuple(F(1, 2 ** j) for j in range(1, 32)),
                        alpha=F(0))
    assert verify_witness(pts, w)


def test_harmonic_prefix_never_self_contracting():
    # the harmonic gaps shrink like 1/j^2, far slower than a 1/2-ratio
    # chain; no limit point makes the distance-ordered set contract.
    # (A short enough prefix, e.g. 4 terms, does admit exotic limits, and
    # any finite set admits *some* witness with enough special points, so
    # the checkable claim is about the set as its own sequence.)
    harm = [F(1, j) for j in range(2, 9)]
    for num in range(-200, 400):
        alpha = F(num, 400)
        seq = tuple(sorted(harm, key=lambda x: (-abs(x - alpha), x)))
        assert not is_lacunary_sequence(seq, alpha, F(1, 2))
        w = LacunaryWitness(order=1, lam=F(1, 2), special=seq, alpha=alpha)
        assert not verify_witness(harm, w)


def test_witness_structural_errors():
    w = LacunaryWitness(order=0)
    w.children[0] = LacunaryWitness(order=0)
    with pytest.raises(InvalidInput):
        verify_witness([F(0)], w)
    w2 = LacunaryWitness(order=2, lam=F(1, 2), special=(F(1, 2),), alpha=F(0))
    w2.children[7] = LacunaryWitness(order=1, lam=F(1, 2), special=(F(1, 4),), alpha=F(0))
    with pytest.raises(InvalidInput):
        verify_witness([F(1, 4)], w2)


def test_decompose_split_one_geometric():
    seqs = decompose_split_one(GEOM, 2)
    assert len(seqs) <= 12
    assert all(is_lacunary_sequence(s, a, F(1, 2)) for s, a in seqs)
    assert set().union(*[set(s) for s, _ in seqs]) == set(GEOM)


def test_decompose_split_one_singleton():
    assert decompose_split_one([F(1, 3)], 5) == [((F(1, 3),), F(1, 3))]


def test_decompose_split_one_rejects_split_two():
    pts = [F(k, 4) for k in range(4)]
    with pytest.raises(InvalidInput):
        decompose_split_one(pts, 2)


def test_decompose_counterexample_u():
    U, _ = counterexample_raw(3)
    seqs = decompose_split_one(U, 2)
    assert len(seqs) <= 12
    assert all(is_lacunary_sequence(s, a, F(1, 2)) for s, a in seqs)
    assert set().union(*[set(s) for s, _ in seqs]) == set(U)


def test_decompose_order_dyadic():
    pts = [F(k, 16) for k in range(16)]
    pieces, order = decompose_lacunary_order(pts, 2)
    assert order == 4
    assert all(w.order <= 4 for _, w in pieces)
    assert all(verify_witness(list(sub), w) for sub, w in pieces)
    assert set().union(*[set(s) for s, _ in pieces]) == set(pts)


def test_decompose_order_two_scale():
    pts = sorted({F(1, 2 ** j) + F(1, 3 ** k)
                  for j in range(1, 7) for k in range(1, 7)})
    assert splitting_number_1d_points(pts, 6) == 2
    pieces, order = decompose_lacunary_order(pts, 6)
    assert order == 2
    assert all(verify_witness(list(sub), w) for sub, w in pieces)
    assert set().union(*[set(s) for s, _ in pieces]) == set(pts)


def test_decompose_split_one_base_case_of_order():
    pieces, order = decompose_lacunary_order(GEOM, 2)
    assert order == 1 and all(w.order <= 1 for _, w in pieces)


@settings(max_examples=40)
@given(st.integers(-50, 50).filter(lambda n: n != 0), st.integers(-20, 20))
def test_witness_affine_invariance(c1n, c2n):
    c1, c2 = F(c1n, 7), F(c2n, 5)
    w = LacunaryWitness(order=1, lam=F(1, 2), special=tuple(GEOM), alpha=F(0))
    tw = transform_witness(w, c1, c2)
    assert verify_witness([c1 * p + c2 for p in GEOM], tw)


def test_projection_examples():
    pts = [(F(1, 2), F(1, 3)), (F(1, 5), F(1, 7))]
    assert project(pts, (F(1), F(0))) == [F(1, 2), F(1, 5)]
    # direction (1,1): constant multiple of the coordinate sum
    got = project(pts, (F(1), F(1)))
    assert got == [(a + b) / 2 for a, b in pts]
    with pytest.raises(InvalidInput):
        project(pts, (F(0), F(0)))


def test_projection_matches_dot_product_oracle():
    import random
    rng = random.Random(0)
    pts = [(F(rng.randrange(8), 8), F(rng.randrange(8), 8)) for _ in range(6)]
    w = (F(3, 7), F(-2, 5))
    nsq = sum(c * c for c in w)
    oracle = [(p[0] * w[0] + p[1] * w[1]) / nsq for p in pts]
    assert project(pts, w) == oracle


def test_product_projection_split_inequality():
    # coordinate projections of a product set, receiving one point per fiber
    U = [F(1, 2 ** j) for j in range(1, 5)]
    V = [F(k, 8) for k in range(8)]
    W = [(u, v) for u in U for v in V]
    M = 2
    for j, proj in ((0, U), (1, V)):
        # W_j: lexicographically minimal point per projected value
        fibers = {}
        for p in W:
            fibers.setdefault(p[j], min(fibers.get(p[j], p), p))
        Wj = list(fibers.values())
        lhs = splitting_number(encode_set([(x,) for x in fibers], M, 8))
        rhs = splitting_number(encode_set(Wj, M, 8))
        assert lhs <= rhs


def test_cone_section_identity_axis():
    dirs = [(F(1), F(1, 2), F(1, 3)), (F(1), F(1, 4), F(1, 5))]
    assert cone_section(dirs, 1) == dirs


def test_cone_section_parcet_rogers():
    dirs = parcet_rogers_directions(6)
    got = cone_section(dirs, 2)
    qs = stern_brocot_rationals(F(1, 2), F(2, 3), 6)
    for ell, (q, row) in enumerate(zip(qs, got), start=1):
        assert row == (q, F(1), F(2 ** ell))


def test_cone_section_rescales_to_input_ray():
    dirs = parcet_rogers_directions(4)
    got = cone_section(dirs, 3)
    for raw, out in zip(dirs, got):
        r = raw[2] / out[2]
        assert tuple(r * c for c in out) == raw


def test_cone_section_zero_component():
    with pytest.raises(InvalidInput):
        cone_section([(F(0), F(1))], 1)


def test_generate_cantor_level2():
    pts = [p[0] for p in generate("cantor:L=2")]
    assert pts == [F(0), F(2, 9), F(2, 3), F(8, 9)]


def test_generate_dyadic_count():
    assert len(generate("dyadic:m=3")) == 8


def test_counterexample_sum_contains_dyadic_blocks():
    U, V = counterexample_raw(3)
    s = {u + v for u in U for v in V}
    for j in (2, 3):
        nj, mj = 2 ** (j * j), 2 ** j
        for k in range(1, mj + 1):
            assert F(1, 2 ** nj) * (1 + F(k, mj)) in s


def test_counterexample_parts_are_split_one():
    U, V = counterexample_raw(3)
    assert splitting_number_1d_points(U, 2) == 1
    shifted = [v + 1 for v in V]  # affine copy inside [0,1)
    assert splitting_number_1d_points(shifted, 2) == 1


def test_stern_brocot_deterministic_and_in_range():
    qs = stern_brocot_rationals(F(1, 2), F(2, 3), 12)
    assert qs == stern_brocot_rationals(F(1, 2), F(2, 3), 12)
    assert all(F(1, 2) <= q <= F(2, 3) for q in qs)
    assert len(set(qs)) == 12


def test_direction_evidence_detects_coordinate_sensitivity():
    # the product of the counterexample sets has tame axis projections but
    # a much denser diagonal projection: the classic rotation sensitivity
    from kakeyalab.lacunarity import direction_evidence
    U, V = counterexample_raw(3)
    W = [(u, v + 1) for u in U for v in V[-40:]]
    ev = direction_evidence(W, 2)
    axis_x = ev[(F(1), F(0))]
    diag = ev[(F(1), F(1))]
    assert diag > axis_x
    # axis projections recover the order-1 parts
    assert axis_x == 1


def test_assignment_query_structure():
    from kakeyalab.madic import full_tree, point_address
    from kakeyalab.pruning import prune
    from kakeyalab.sticky import assignment_query, prob_exact
    from kakeyalab.errors import InvalidInput as II
    p = prune(full_tree(12, 2), N=2, C0=1)
    t0 = point_address((F(0),), 2, p.J)
    t1 = point_address((F(1, 2),), 2, p.J)
    q = assignment_query(p, [(t0, 0), (t1, 3)])
    assert q.probability == prob_exact(p, [(t0, 0), (t1, 3)])
    assert sum(len(l) for l in q.levels) == q.n
    import pytest as _pytest
    t2 = point_address((F(1, 2 ** p.J),), 2, p.J)
    bad = None
    for c in range(4):
        from kakeyalab.sticky import is_sticky_admissible
        ok, _ = is_sticky_admissible(p, [(t0, 0), (t2, c)])
        if not ok:
            bad = c
            break
    if bad is not None:
        with _pytest.raises(II):
            assignment_query(p, [(t0, 0), (t2, bad)])


def test_generator_spec_parser():
    spec = GeneratorSpec.parse("nsw:m=1+2,ratio=1/3,count=4")
    assert spec.kind == "nsw" and spec.get("ratio") == "1/3"
    pts = generate(spec)
    assert len(pts) == 4 and len(pts[0]) == 2


@pytest.mark.parametrize("text, message", [
    ("cantor:L", "key=value"),
    ("cantor:L=6,", "key=value"),
    ("cantor:L=abc", "not an integer"),
    ("dyadic:m=-1", "below 0"),
    ("cantor:depht=40", "unknown key 'depht'"),
    ("full:L=3", "unknown key 'L'"),
    ("power:lam=3/2", r"not in \(0, 1\)"),
    ("carbery:lam=1/0", "not a rational"),
    ("nsw:m=1+x", "not an integer"),
    ("counterexample_u:jmax=1", "below 2"),
])
def test_malformed_generator_specs_are_refused(text, message):
    with pytest.raises(InvalidInput, match=message):
        generate(text)


def test_spec_keys_cover_what_the_readers_use():
    # the lazy trees and the harness encoding height are legal keys too
    assert GeneratorSpec.parse("cantor:depth=40").integer("depth", None) == 40
    assert GeneratorSpec.parse("dyadic:m=3,J=5").integer("J", 12) == 5
    assert len(generate("nsw")) == 8  # the default exponents 1+2
