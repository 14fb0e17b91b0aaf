import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from corules import Finite, Lasso, get, suffix, suffix_automaton
from corules.cli import ParseError, parse_colist

from util import equal, pointwise, random_colist, unroll

naturals = st.integers(min_value=0, max_value=4)
finite_colists = st.lists(naturals, max_size=5).map(lambda es: Finite(tuple(es)))
lassos = st.tuples(
    st.lists(naturals, max_size=4),
    st.lists(naturals, min_size=1, max_size=4),
).map(lambda t: Lasso(tuple(t[0]), tuple(t[1])))
colists = st.one_of(finite_colists, lassos)


def test_loop_must_be_nonempty():
    with pytest.raises(ValueError):
        Lasso((1,), ())


def test_elements_must_be_naturals():
    with pytest.raises(ValueError):
        Finite((1, -2))
    with pytest.raises(ValueError):
        Lasso((), (-1,))


BIG = "9" * 5000  # all digits, but past int()'s digit limit


@pytest.mark.parametrize("text,bad", [
    ("1 \u00b2 2 \u00b3", "\u00b2"), (f"1 {BIG} \u00b2", BIG), (f"1 \u00b2 {BIG}", "\u00b2"),
    ("1 x \u00b2", "x"), ("\u00b2 x", "\u00b2"), (f"{BIG} 1 | 2", BIG), (f"1 | 2 {BIG} x", BIG),
    (f"x 1 | 2 {BIG}", BIG),  # the loop is read before the prefix
])
def test_a_literal_names_its_first_bad_token(text, bad):
    """Every token passes ``str.isdigit`` before any is converted, but a digit that
    ``int`` rejects, or a numeral too long for it, is still the token blamed."""
    with pytest.raises(ParseError) as excinfo:
        parse_colist(text)
    assert excinfo.value.code == "bad-token"
    assert str(excinfo.value) == f"not a natural number: {bad!r}"


def test_a_literal_of_digits_is_read_in_one_pass():
    assert parse_colist("0 12 \u0663 | 7 \u0661\u0660") == Lasso((0, 12, 3), (7, 10))
    assert parse_colist(" ".join(map(str, range(500)))) == Finite(tuple(range(500)))


class TestGet:
    def test_finite_in_range(self):
        assert get(Finite((2, 1)), 1) == 1

    def test_finite_past_end(self):
        assert get(Finite((2, 1)), 5) is None

    def test_lasso_wraps(self):
        # unrolling 1 2 1 2 1 2 1 2 by hand: index 7 holds 2
        xs = Lasso((), (1, 2))
        assert unroll(xs, 8) == [1, 2, 1, 2, 1, 2, 1, 2]
        assert get(xs, 7) == 2

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            get(Finite((1,)), -1)


class TestSuffixAutomaton:
    def test_singleton_finite(self):
        aut = suffix_automaton(Finite((5,)))
        assert aut.state_count == 2
        assert aut.heads == (5, None)
        assert aut.nexts == (1, None)

    def test_lasso_self_loop(self):
        aut = suffix_automaton(Lasso((1,), (2,)))
        assert aut.state_count == 2
        assert aut.nexts == (1, 1)
        assert aut.heads == (1, 2)

    def test_lasso_wraps_to_loop_start(self):
        aut = suffix_automaton(Lasso((), (1, 2)))
        assert aut.state_count == 2
        assert aut.nexts == (1, 0)

    @given(colists)
    def test_walk_agrees_with_get(self, xs):
        # following the successor chain i times lands on the state whose
        # head is the i-th element
        aut = suffix_automaton(xs)
        state = 0
        for i in range(2 * aut.state_count + 1):
            if state is None:
                assert get(xs, i) is None
            else:
                assert aut.heads[state] == get(xs, i)
                state = aut.nexts[state]


class TestEqual:
    def test_prefix_absorbed_into_loop(self):
        assert equal(Lasso((), (1,)), Lasso((1,), (1,)))

    def test_unrolled_loop(self):
        xs = Lasso((), (1, 2))
        ys = Lasso((), (1, 2, 1, 2))
        horizon = math.lcm(2, 4) + 1
        assert unroll(xs, horizon) == unroll(ys, horizon)
        assert equal(xs, ys)

    def test_finite_never_equals_lasso(self):
        assert not equal(Finite((1,)), Lasso((), (1,)))

    @given(colists)
    def test_reflexive(self, xs):
        assert equal(xs, xs)

    @given(colists, colists)
    def test_symmetric(self, xs, ys):
        assert equal(xs, ys) == equal(ys, xs)

    @given(colists, colists, colists)
    def test_transitive(self, xs, ys, zs):
        if equal(xs, ys) and equal(ys, zs):
            assert equal(xs, zs)

    @given(colists, colists)
    def test_equal_implies_index_agreement(self, xs, ys):
        if equal(xs, ys):
            horizon = (suffix_automaton(xs).state_count
                       * suffix_automaton(ys).state_count)
            assert unroll(xs, horizon + 1) == unroll(ys, horizon + 1)

    @given(colists, colists)
    def test_agrees_with_unrolling(self, xs, ys):
        # brute-force comparison far past both periods decides equality too
        horizon = 2 * (suffix_automaton(xs).state_count
                       * suffix_automaton(ys).state_count + 1)
        brute = unroll(xs, horizon) == unroll(ys, horizon)
        assert equal(xs, ys) == brute


class TestPointwise:
    def test_finite_le(self):
        assert pointwise(lambda a, b: a <= b, Finite((1, 2)), Finite((2, 2)))

    def test_lasso_violation(self):
        assert not pointwise(lambda a, b: a <= b, Lasso((), (1,)), Lasso((), (0,)))

    def test_lasso_le(self):
        xs = Lasso((1,), (2, 3))
        ys = Lasso((1,), (3, 4))
        horizon = 1 + 2 * 2
        assert all(get(xs, i) <= get(ys, i) for i in range(horizon))
        assert pointwise(lambda a, b: a <= b, xs, ys)

    def test_shape_mismatch(self):
        assert not pointwise(lambda a, b: True, Finite((1, 2)), Finite((1,)))

    @given(colists)
    def test_equality_relation_is_reflexive(self, xs):
        assert pointwise(lambda a, b: a == b, xs, xs)

    @given(colists, colists)
    def test_total_relation_agrees_with_brute_force(self, xs, ys):
        relation = lambda a, b: (a + b) % 3 != 1
        if isinstance(xs, Finite) and isinstance(ys, Finite):
            horizon = max(len(xs.elements), len(ys.elements))
            brute = len(xs.elements) == len(ys.elements) and all(
                relation(get(xs, i), get(ys, i)) for i in range(horizon))
        elif isinstance(xs, Lasso) and isinstance(ys, Lasso):
            horizon = (len(xs.prefix) + len(ys.prefix)
                       + 2 * len(xs.loop) * len(ys.loop))
            brute = all(relation(get(xs, i), get(ys, i)) for i in range(horizon))
        else:
            brute = False
        assert pointwise(relation, xs, ys) == brute


def rotated(xs: Lasso) -> Lasso:
    # push the first loop element into the prefix: u, v  ->  u v0, rot(v)
    return Lasso(xs.prefix + (xs.loop[0],), xs.loop[1:] + (xs.loop[0],))


class TestRotationInvariance:
    @given(lassos)
    def test_rotation_preserves_denotation(self, xs):
        ys = rotated(xs)
        assert equal(xs, ys)
        horizon = len(xs.prefix) + 2 * len(xs.loop) + 1
        assert unroll(xs, horizon) == unroll(ys, horizon)

    @given(lassos)
    def test_pointwise_unaffected_by_rotation(self, xs):
        ys = rotated(xs)
        assert pointwise(lambda a, b: a == b, xs, ys)
        assert pointwise(lambda a, b: a <= b, ys, xs)


class TestSuffix:
    def test_finite(self):
        assert suffix(Finite((1, 2, 3)), 1) == Finite((2, 3))
        assert suffix(Finite((1, 2, 3)), 3) == Finite(())

    def test_lasso_within_prefix(self):
        assert suffix(Lasso((1, 2), (3,)), 1) == Lasso((2,), (3,))

    def test_lasso_in_loop(self):
        assert equal(suffix(Lasso((), (1, 2)), 1), Lasso((), (2, 1)))

    @pytest.mark.parametrize("xs", [Finite((1, 2)), Lasso((1,), (2,))])
    def test_negative_index_rejected(self, xs):
        with pytest.raises(ValueError, match="index must be a natural number"):
            suffix(xs, -1)

    @given(colists, st.integers(min_value=0, max_value=10))
    def test_suffix_shifts_get(self, xs, i):
        tail = suffix(xs, i)
        for k in range(8):
            assert get(tail, k) == get(xs, i + k)


def test_random_colists_walk_coherence():
    rng = random.Random(20240817)
    for _ in range(200):
        xs = random_colist(rng)
        aut = suffix_automaton(xs)
        state = 0
        for i in range(2 * aut.state_count + 1):
            if state is None:
                assert get(xs, i) is None
                break
            assert aut.heads[state] == get(xs, i)
            state = aut.nexts[state]
