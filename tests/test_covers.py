import itertools
from fractions import Fraction

import pytest

from leakyhurwitz.covers import (CoverError, CoverGraph, Problem, ProblemError,
                                 assemble_multiplicity, automorphism_order,
                                 check_cover, validate_problem, vertex_key_of,
                                 weighted_cover_to_json)
from leakyhurwitz.vertexdata import VertexKey

GOLDEN = Problem.of(1, 1, (7, -3, -1), (1, 0, 0))

# the five covers of the count 51/4, built by hand
PI_1 = CoverGraph((0, 0), ((1, 3), (2,)), ((0, 1, 2), (0, 1, 2)), (0, 1))
PI_2 = CoverGraph((0, 0), ((1, 3), (2,)), ((0, 1, 1), (0, 1, 3)), (0, 1))
PI_3 = CoverGraph((1, 0), ((1,), (2, 3)), ((0, 1, 5),), (0, 1))
PI_4 = CoverGraph((0, 0), ((1, 2), (3,)), ((0, 1, 1), (0, 1, 1)), (0, 1))
PI_5 = CoverGraph((0, 1), ((1, 2, 3), ()), ((0, 1, 1),), (0, 1))


def test_validate_problem_ok():
    assert validate_problem(GOLDEN) is GOLDEN


def test_validate_problem_degree_violation():
    with pytest.raises(ProblemError, match="degree"):
        validate_problem(Problem.of(0, 1, (7, -3, -1)))


def test_validate_problem_psi_budget():
    with pytest.raises(ProblemError, match="psi budget"):
        validate_problem(Problem.of(0, 1, (3, -1, -1), (1, 0, 0)))


def test_validate_problem_stability():
    with pytest.raises(ProblemError, match="unstable"):
        validate_problem(Problem.of(0, 0, (1, -1)))


def test_validate_problem_distinct_diagnostics():
    messages = set()
    bad = [(0, 1, (7, -3, -1), None),
           (0, 1, (3, -1, -1), (1, 0, 0)),
           (0, 0, (0, 0), None),
           (0, 0, (0, 0, 0), (-1, 1, 0))]
    for record in bad:
        with pytest.raises(ProblemError) as err:
            validate_problem(Problem.of(*record))
        messages.add(str(err.value))
    assert len(messages) == len(bad)


@pytest.mark.parametrize("build, match", [
    (lambda: Problem(0, 1, (7, -3, -1), (0, 0, 0)), "degree"),
    (lambda: Problem(-1, 0, (0, 0, 0), (0, 0, 0)), "genus -1"),
    (lambda: Problem.of(0, 0, (0, 0, 0), (0, 0)), "length 2"),
    (lambda: Problem.of(0, 0, (1, -1)), "unstable"),
    (lambda: Problem.of(0, 1, (3, -1, -1), (1, 0, 0)), "psi budget"),
    (lambda: Problem.of(0, 0, (0, 0, 0), (-1, 1, 0)), "nonnegative"),
    (lambda: GOLDEN._replace(k=2), "degree"),
    (lambda: Problem.of(1.0, 0, (1, -1)), "genus must be an integer, got 1.0"),
    (lambda: Problem.of(0, True, (1, 0, 0)), "k must be an integer, got True"),
    (lambda: Problem.of(0, 1, (1.5, -0.5, 0)), "x must hold integers, got 1.5"),
    (lambda: Problem.of(0, 1, (Fraction(3, 2), Fraction(-1, 2), 0)),
     "x must hold integers, got Fraction"),
    (lambda: Problem.of(0, 1, (3, -1, -1, 1), (0.5, 0.5, 0, 0)),
     "e must hold integers, got 0.5"),
])
def test_problem_validates_as_it_is_built(build, match):
    # no invalid Problem exists, so no function taking one checks it again
    with pytest.raises(ProblemError, match=match):
        build()


def test_check_cover_golden_covers():
    for cover in (PI_1, PI_2, PI_3, PI_4, PI_5):
        assert check_cover(GOLDEN, cover) is cover


def test_check_cover_single_vertex():
    p = Problem.of(0, 1, (3, -1, -1))
    trivial = CoverGraph((0,), ((1, 2, 3),), (), (0,))
    assert check_cover(p, trivial) is trivial


BROKEN = [  # (problem, edit of PI_3, the CoverError message)
    (GOLDEN, {"vertex_ends": ((1,), (2, 3), ())},
     "vertex genus and end lists disagree in length"),
    (GOLDEN, {"vertex_genus": (), "vertex_ends": ()}, "cover has no vertices"),
    (GOLDEN, {"vertex_ends": ((1, 2), (2, 3))},
     "marking 2 attached to two vertices"),
    (GOLDEN, {"vertex_ends": ((1,), (2,))},
     "markings [1, 2] do not partition 1..3"),
    (GOLDEN, {"edges": ((0, 0, 5),)}, "edge at vertex 0 is a loop"),
    (GOLDEN, {"edges": ((0, 2, 5),)}, "edge (0, 2) references a missing vertex"),
    (GOLDEN, {"edges": ((0, 1, 0),)}, "edge (0, 1) has nonpositive weight 0"),
    (GOLDEN, {"edges": ()}, "cover graph is not connected"),
    (GOLDEN, {"vertex_genus": (0, 0)},
     "genus mismatch: h1 = 0 plus vertex genera 0 differs from g = 1"),
    # the edit is GOLDEN's psi exponent, dropped: one vertex more
    (Problem.of(1, 1, (7, -3, -1)), {}, "vertex count 2 differs from c+1 = 3"),
    (GOLDEN, {"vertex_ends": ((1, 2), (3,))},
     "valence law fails at vertex 0: val = 3, psi target = 2"),
    (GOLDEN, {"edges": ((0, 1, 4),)}, "flow balance fails at vertex 0: residual 1"),
    (GOLDEN, {"order": (0, 0)}, "order (0, 0) is not a permutation of the vertices"),
    (GOLDEN, {"order": (1, 0)}, "edge (0, 1) runs right to left in the vertex order"),
]


@pytest.mark.parametrize("p, edit, message", BROKEN,
                         ids=[message for _, _, message in BROKEN])
def test_check_cover_names_each_violation(p, edit, message):
    # one edit of a golden cover per diagnostic, each checked in full
    with pytest.raises(CoverError) as err:
        check_cover(p, PI_3._replace(**edit))
    assert str(err.value) == message


def test_automorphism_order():
    assert automorphism_order(PI_1) == 2
    assert automorphism_order(PI_2) == 1
    assert automorphism_order(PI_3) == 1
    assert automorphism_order(PI_4) == 2
    assert automorphism_order(PI_5) == 1


def test_automorphism_order_triple_edge():
    c = CoverGraph((0, 0), ((1,), (2,)),
                   ((0, 1, 2), (0, 1, 2), (0, 1, 2)), (0, 1))
    assert automorphism_order(c) == 6


def brute_force_edge_permutations(c: CoverGraph) -> int:
    count = 0
    for perm in itertools.permutations(range(len(c.edges))):
        if all(c.edges[perm[i]] == c.edges[i] for i in range(len(c.edges))):
            count += 1
    return max(count, 1)


def test_automorphism_brute_force_oracle():
    for cover in (PI_1, PI_2, PI_3, PI_4, PI_5):
        assert automorphism_order(cover) == brute_force_edge_permutations(cover)


def test_assemble_multiplicity_golden():
    assert assemble_multiplicity(GOLDEN, PI_3).multiplicity == Fraction(175, 24)
    assert assemble_multiplicity(GOLDEN, PI_5).multiplicity == Fraction(-1, 24)
    assert assemble_multiplicity(GOLDEN, PI_1).multiplicity == 2
    p = Problem.of(0, 1, (3, -1, -1))
    trivial = CoverGraph((0,), ((1, 2, 3),), (), (0,))
    assert assemble_multiplicity(p, trivial).multiplicity == 1


def test_assemble_multiplicity_parts():
    wc = assemble_multiplicity(GOLDEN, PI_3)
    assert wc.aut == 1
    assert wc.edge_product == 5
    assert wc.vertex_mults == (Fraction(35, 24), Fraction(1))


def test_vertex_key_of():
    key = vertex_key_of(GOLDEN, PI_3, 0)
    assert key == VertexKey(1, 1, (7, -5), (1, 0))
    key = vertex_key_of(GOLDEN, PI_5, 1)
    assert key == VertexKey(1, 1, (1,), (0,))


def test_integer_cover_check_and_assembly():
    # the x1 + x2 + x3 - 2k caterpillar edge, taken at its integer point
    p = Problem.of(0, 1, (6, -1, -1, 1, -2), (1, 0, 0, 0, 0))
    cover = CoverGraph((0, 0), ((1, 2, 3), (4, 5)), ((0, 1, 2),), (0, 1))
    assert check_cover(p, cover) is cover
    wc = assemble_multiplicity(p, cover)
    assert wc.aut == 1
    assert wc.vertex_mults == (Fraction(1), Fraction(1))
    assert type(wc.edge_product) is int and wc.edge_product == 2
    assert type(wc.multiplicity) is Fraction and wc.multiplicity == 2

    bad = CoverGraph((0, 0), ((1, 2, 3), (4, 5)), ((0, 1, 4),), (0, 1))
    with pytest.raises(CoverError, match="balance"):
        check_cover(p, bad)


def test_weighted_cover_json_fields():
    record = weighted_cover_to_json(assemble_multiplicity(GOLDEN, PI_3))
    assert record["multiplicity"] == "175/24"
    assert record["vertex_mults"] == ["35/24", "1"]
    assert record["aut"] == 1
    assert record["edge_product"] == "5"
    assert record["order"] == [0, 1]
