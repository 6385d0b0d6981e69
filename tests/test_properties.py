"""Property-based checks tying the whole stack together."""

import random

from hypothesis import given, settings, strategies as st

from helpers import enumerate_lassos, witness_revalidates
from ictl.checker import check, denote
from ictl.gen import GenParams, random_model
from ictl.model import (
    _close_masks,
    complement,
    is_upward_closed,
    iter_bits,
    pre_exists,
    pre_forall,
    up_interior,
    with_identity_preorder,
)
from ictl.oracle import (
    classical_denotation,
    lasso_is_path,
    lift_path,
    oracle_denotation,
)
from ictl.syntax import (
    And,
    Atom,
    BOTTOM,
    ExistsNext,
    ExistsRelease,
    ExistsUntil,
    ForallNext,
    ForallRelease,
    ForallUntil,
    Implies,
    Or,
    children,
    negation,
    parse_formula,
    print_formula,
    subformulas,
)

leaves = st.sampled_from([Atom("p"), Atom("q"), Atom("zz_9"), BOTTOM])
formulas = st.recursive(
    leaves,
    lambda kids: st.one_of(
        st.builds(ExistsNext, kids),
        st.builds(ForallNext, kids),
        st.builds(And, kids, kids),
        st.builds(Or, kids, kids),
        st.builds(Implies, kids, kids),
        st.builds(ExistsUntil, kids, kids),
        st.builds(ExistsRelease, kids, kids),
        st.builds(ForallUntil, kids, kids),
        st.builds(ForallRelease, kids, kids),
    ),
    max_leaves=12,
)

pq_formulas = st.recursive(
    st.sampled_from([Atom("p"), Atom("q"), BOTTOM]),
    lambda kids: st.one_of(
        st.builds(ExistsNext, kids),
        st.builds(ForallNext, kids),
        st.builds(And, kids, kids),
        st.builds(Or, kids, kids),
        st.builds(Implies, kids, kids),
        st.builds(ExistsUntil, kids, kids),
        st.builds(ExistsRelease, kids, kids),
        st.builds(ForallUntil, kids, kids),
        st.builds(ForallRelease, kids, kids),
    ),
    max_leaves=10,
)


@st.composite
def models(draw, max_worlds=5, n_atoms=2):
    n = draw(st.integers(1, max_worlds))
    seed = draw(st.integers(0, 2**32 - 1))
    density = draw(st.sampled_from([0.15, 0.3, 0.5, 0.8]))
    return random_model(GenParams(n, n_atoms, seed=seed, edge_density=density))


@given(formulas)
def test_print_parse_round_trip(f):
    assert parse_formula(print_formula(f)) == f


@given(formulas)
def test_negation_desugars_uniformly(f):
    assert parse_formula(f"~({print_formula(f)})") == negation(f)


@given(formulas)
def test_subformulas_post_order_and_bounded(f):
    subs = subformulas(f)
    assert subs[-1] == f

    def count(g):
        return 1 + sum(count(c) for c in children(g))

    assert len(subs) <= count(f)
    seen = set()
    for g in subs:
        assert all(c in seen for c in children(g))
        seen.add(g)


@given(
    st.integers(1, 5),
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=10),
)
def test_close_preorder_idempotent(n, edges):
    edges = [(a % n, b % n) for a, b in edges]
    closed = _close_masks(n, edges)
    assert _close_masks(n, [(i, j) for i in range(n) for j in iter_bits(closed[i])]) == closed
    assert all(closed[i] >> i & 1 for i in range(n))


@given(
    st.integers(1, 5),
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=8),
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=4),
)
def test_close_preorder_monotone(n, edges, extra):
    edges = [(a % n, b % n) for a, b in edges]
    extra = [(a % n, b % n) for a, b in extra]
    big = _close_masks(n, edges + extra)
    assert all(small & ~b == 0 for small, b in zip(_close_masks(n, edges), big))


@settings(max_examples=60, deadline=None)
@given(models(), st.integers(0, 63))
def test_up_interior_deflationary_and_idempotent(m, raw):
    x = raw & m.full
    inner = up_interior(m, x)
    assert inner & ~x == 0
    assert up_interior(m, inner) == inner


@settings(max_examples=60, deadline=None)
@given(models(), st.integers(0, 63))
def test_predecessor_duality(m, raw):
    x = raw & m.full
    assert pre_forall(m, x) == complement(m, pre_exists(m, complement(m, x)))


@settings(max_examples=80, deadline=None)
@given(models(), pq_formulas)
def test_denotations_upward_closed(m, f):
    for s in denote(m, f, validate=False).values():
        assert is_upward_closed(m, s)


@settings(max_examples=80, deadline=None)
@given(models(max_worlds=6), pq_formulas)
def test_engine_matches_oracle(m, f):
    eng = denote(m, f, validate=False)
    orc = oracle_denotation(m, f, validate=False)
    for g in subformulas(f):
        assert eng[g] == orc[g], f"{g} differs"


@settings(max_examples=60, deadline=None)
@given(models(max_worlds=5), pq_formulas)
def test_classical_coincidence_on_identity_preorder(m, f):
    ident = with_identity_preorder(m)
    eng = denote(ident, f, validate=False)
    cls = classical_denotation(ident, f)
    for g in subformulas(f):
        assert eng[g] == cls[g]


@settings(max_examples=50, deadline=None)
@given(models(max_worlds=4), st.integers(0, 10**9))
def test_lift_path_on_random_walks(m, walk_seed):
    rng = random.Random(walk_seed)
    start = rng.randrange(m.n)
    uppers = [j for j in range(m.n) if m.up[start] >> j & 1]
    target = rng.choice(uppers)
    walk = [start]
    for _ in range(2 * m.n - 1):
        succs = [j for j in range(m.n) if m.succ[walk[-1]] >> j & 1]
        walk.append(rng.choice(succs))
    names = [m.worlds[i] for i in walk]
    lifted = lift_path(m, m.worlds[target], names)
    assert len(lifted) == len(names)
    assert lifted[0] == m.worlds[target]
    for lo, hi in zip(names, lifted):
        assert m.up[m.world_index(lo)] >> m.world_index(hi) & 1


@settings(max_examples=40, deadline=None)
@given(models(max_worlds=4))
def test_lasso_streams_validate(m):
    for w in m.worlds:
        lassos = list(enumerate_lassos(m, w))
        assert lassos
        assert len(set(lassos)) == len(lassos)
        for l in lassos:
            assert lasso_is_path(m, l)


@settings(max_examples=60, deadline=None)
@given(models(max_worlds=4), pq_formulas, st.integers(0, 3))
def test_witnesses_revalidate(m, f, widx):
    world = m.worlds[widx % m.n]
    out = check(m, world, f)
    assert witness_revalidates(m, world, f, out)
