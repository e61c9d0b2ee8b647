"""Tables and coefficient polynomials against independent brute-force oracles."""

import math
import os
import random
import subprocess
import sys
import textwrap
import threading
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conic_walks import combinatorics
from conic_walks.combinatorics import (
    MAX_FACTORS,
    MAX_PRODUCT_TERMS,
    LowOrderProduct,
    StirlingTables,
    binomial,
    block_roots,
    coeff_P,
    coeff_P_poly,
    coeff_Q,
    coeff_Q_poly,
    compositions,
    _footprint,
    poly_mul,
    root_product,
    stirling,
)
from conic_walks.errors import DomainError
from conic_walks.formulas import _FAMILY, Model, _face_key, _Record, expected_fk, face_probability
from conic_walks.verify import identity_checks

T = StirlingTables(40)


def cycle_count(perm):
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycles += 1
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
    return cycles


def set_partitions(items):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[head] + smaller[i]] + smaller[i + 1:]
        yield [[head]] + smaller


def expand(factors):
    poly = [1]
    for c in factors:
        poly = poly_mul(poly, [c, 1])
    return poly


class TestFirstKind:
    def test_counts_permutations_by_cycles(self):
        for n in range(1, 7):
            tally = {}
            for perm in permutations(range(n)):
                c = cycle_count(perm)
                tally[c] = tally.get(c, 0) + 1
            for k in range(n + 1):
                assert T.first(n, k) == tally.get(k, 0)

    def test_example_4_2(self):
        assert T.first(4, 2) == 11

    def test_row_sums_are_factorials(self):
        for n in range(31):
            assert sum(T.first(n, k) for k in range(n + 1)) == math.factorial(n)


class TestSecondKind:
    def test_counts_set_partitions(self):
        for n in range(1, 9):
            tally = {}
            for part in set_partitions(list(range(n))):
                tally[len(part)] = tally.get(len(part), 0) + 1
            for k in range(n + 1):
                assert T.second(n, k) == tally.get(k, 0)

    def test_diagonal_is_one(self):
        for n in range(25):
            assert T.second(n, n) == 1


class TestFirstKindB:
    def test_row_3_by_symbolic_expansion(self):
        # (t+1)(t+3)(t+5) expanded by hand-rolled convolution
        assert expand([1, 3, 5]) == [15, 23, 9, 1]
        assert [T.first_b(3, k) for k in range(4)] == [15, 23, 9, 1]

    def test_rows_match_expansion(self):
        for n in range(13):
            assert expand(range(1, 2 * n, 2)) == [T.first_b(n, k) for k in range(n + 1)]

    def test_row_sums(self):
        for n in range(31):
            assert sum(T.first_b(n, k) for k in range(n + 1)) == (1 << n) * math.factorial(n)


class TestSecondKindB:
    def test_row_2_from_definition(self):
        # sum_m 2^(m-k) C(2,m) {m k} recomputed here term by term
        second = {(0, 0): 1, (1, 0): 0, (1, 1): 1, (2, 0): 0, (2, 1): 1, (2, 2): 1}
        row = []
        for k in range(3):
            row.append(sum((1 << (m - k)) * math.comb(2, m) * second.get((m, k), 0)
                           for m in range(k, 3)))
        assert row == [1, 4, 1]
        assert [T.second_b(2, k) for k in range(3)] == [1, 4, 1]

    def test_recurrence_agrees_with_definition(self):
        # the tables use the defining sum; the recurrence must follow
        for n in range(1, 13):
            for k in range(n + 1):
                assert T.second_b(n, k) == \
                    T.second_b(n - 1, k - 1) + (2 * k + 1) * T.second_b(n - 1, k)

    def test_zeroth_column_is_one(self):
        for n in range(20):
            assert T.second_b(n, 0) == 1


class TestConventions:
    @pytest.mark.parametrize("kind", ["first", "second", "first_B", "second_B"])
    def test_out_of_range_is_zero(self, kind):
        assert stirling(kind, 5, -1) == 0
        assert stirling(kind, 5, 6) == 0
        assert stirling(kind, 0, 0) == 1

    @pytest.mark.parametrize("kind", ["first", "second", "first_B", "second_B"])
    def test_negative_n_rejected(self, kind):
        with pytest.raises(DomainError):
            stirling(kind, -1, 0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            stirling("third", 3, 1)

    def test_non_integer_indices_rejected(self):
        with pytest.raises(DomainError, match=r"^k must be an integer, got 1\.5$"):
            stirling("first", 3, 1.5)
        with pytest.raises(DomainError, match=r"^n must be an integer, got 2\.5$"):
            StirlingTables().first(2.5, 1)
        for lookup in (T.second, T.first_b, T.second_b):
            with pytest.raises(DomainError, match="must be an integer"):
                lookup(3, 1.0)

    def test_unknown_kind_rejected_by_rows_and_columns(self):
        t = StirlingTables()
        with pytest.raises(DomainError, match="^unknown family 'bogus'"):
            t.row("bogus", 2)
        with pytest.raises(DomainError, match="^unknown family 'bogus'"):
            t.column("bogus", 1, 3)
        with pytest.raises(DomainError, match=r"^n must be an integer, got 2\.0$"):
            t.row("first", 2.0)
        with pytest.raises(DomainError, match=r"^k must be an integer, got 1\.5$"):
            t.column("first", 1.5, 3)
        assert t._columns == {}

    @pytest.mark.parametrize("kind", ["first", "second", "first_B", "second_B"])
    def test_columns_read_the_triangle(self, kind):
        t = StirlingTables()
        col = t.column(kind, 2, 5)
        assert len(col) >= 5 and col == tuple(stirling(kind, i, 2, T) for i in range(len(col)))
        assert t.column(kind, 2, 3) is col and t.column(kind, 0, 0)[:1] == (1,)
        longer = t.column(kind, 2, 30)
        assert len(longer) >= 30 and longer[:len(col)] == col
        assert longer == tuple(stirling(kind, i, 2, T) for i in range(len(longer)))


class TestBinomial:
    def test_small_values(self):
        assert binomial(3, 1) == 3
        assert binomial(3, 0) + binomial(3, 1) + binomial(3, 2) == 7
        assert binomial(5, 2) == 10

    def test_pascal_recurrence(self):
        for n in range(1, 20):
            for k in range(n + 1):
                assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)

    def test_out_of_range_and_errors(self):
        assert binomial(4, -1) == 0
        assert binomial(4, 5) == 0
        with pytest.raises(DomainError):
            binomial(-2, 0)
        with pytest.raises(DomainError, match=r"^n must be an integer, got 3\.5$"):
            binomial(3.5, 1)
        with pytest.raises(DomainError, match=r"^k must be an integer, got 1\.0$"):
            binomial(3, 1.0)


class TestCoefficientPolynomials:
    def test_walk_block_example(self):
        # one bridge block of length 1 inside n=3: factor (t+1)(t+3)
        assert coeff_P_poly(3, (1,)) == [3, 4, 1]
        assert coeff_P(3, (1,), 0) == 3

    def test_all_singleton_blocks_leave_empty_product(self):
        for n in range(1, 7):
            assert coeff_P_poly(n, (1,) * n) == [1]
            assert coeff_P(n, (1,) * n, 0) == 1

    def test_sum_of_coefficients_is_value_at_one(self):
        for n, parts in [(5, (2, 1)), (6, (3,)), (4, (1, 1))]:
            w = n - sum(parts)
            value = (1 << w) * math.factorial(w)  # (1+1)(1+3)...(1+2w-1)
            for j in parts:
                value *= math.factorial(j)  # (1+1)(1+2)...(1+j-1)
            assert sum(coeff_P_poly(n, parts)) == value

    def test_bridge_block_examples(self):
        assert coeff_Q_poly(2, (1,)) == [1]
        assert coeff_Q(2, (1,), 0) == 1
        assert coeff_Q_poly(4, (2,)) == [1, 2, 1]

    def test_degrees(self):
        assert len(coeff_P_poly(7, (2, 1))) == 7 - 2 + 1
        assert len(coeff_Q_poly(7, (2, 1))) == 7 - 2 - 1 + 1
        assert coeff_P(7, (2, 1), -1) == 0
        assert coeff_P(7, (2, 1), 6) == 0
        assert coeff_Q(7, (2, 1), 5) == 0

    def test_walk_composition_convolution_small(self):
        # summing P over all block compositions collapses to the B families
        for n in range(1, 7):
            for m in range(1, n + 1):
                for q in range(n - m + 1):
                    acc = Fraction(0)
                    for tail in range(n - m + 1):
                        for parts in compositions(n - tail, m):
                            denom = math.prod(math.factorial(p) for p in parts)
                            denom *= math.factorial(tail) * (1 << tail)
                            acc += Fraction(coeff_P(n, parts, q), denom)
                    rhs = Fraction(
                        math.factorial(m) * T.first_b(n, q + m) * T.second_b(q + m, m),
                        (1 << (n - m)) * math.factorial(n))
                    assert acc == rhs

    def test_bridge_composition_convolution_small(self):
        for n in range(2, 7):
            for m in range(1, n):
                for q in range(n - m):
                    acc = Fraction(0)
                    for parts in compositions(n, m + 1):
                        denom = math.prod(math.factorial(p) for p in parts)
                        acc += Fraction(coeff_Q(n, parts[:m], q), denom)
                    rhs = Fraction(
                        math.factorial(m + 1) * T.first(n, q + m + 1) * T.second(q + m + 1, m + 1),
                        math.factorial(n))
                    assert acc == rhs

    def test_invalid_compositions_rejected(self):
        below_one = r"^composition parts must be integers >= 1$"
        with pytest.raises(DomainError, match=below_one):
            coeff_P(3, (0, 1), 0)
        with pytest.raises(DomainError, match=below_one):
            coeff_Q(9, (2, 0), 0)
        with pytest.raises(DomainError, match=r"^composition parts sum to 4 > total 3$"):
            coeff_P(3, (2, 2), 0)
        with pytest.raises(DomainError, match=r"^composition parts sum to 4 > total 3$"):
            coeff_Q(3, [2, 2], 0)
        with pytest.raises(DomainError, match=r"^bridge composition needs a nonempty final "
                           r"block: parts \(3,\) fill n=3$"):
            coeff_Q(3, (3,), 0)  # no room for the final bridge block
        with pytest.raises(DomainError, match=below_one):
            coeff_P(5, (1, -2), 0)
        # non-integers are rejected, not truncated to a neighbouring composition
        with pytest.raises(DomainError, match=r"^a composition part must be an integer, got 1\.5$"):
            coeff_P(5, (1.5, 2), 0)
        with pytest.raises(DomainError, match=r"^a composition part must be an integer, got 2\.9$"):
            coeff_Q(6, (2.9, 1), 1)
        with pytest.raises(DomainError, match=r"^r must be an integer, got 1\.0$"):
            coeff_P(5, (1, 2), 1.0)
        with pytest.raises(DomainError, match=r"^n must be an integer, got 5\.0$"):
            coeff_P(5.0, (1, 2), 1)
        with pytest.raises(DomainError):
            list(compositions(4.0, 2))


def test_coefficients_match_the_triangle_polynomials():
    # coeff_P/coeff_Q are root products; the triangle-built polynomials they
    # replaced are the oracle, compared at every index around the degree
    checked = 0
    for n in range(10):
        for total in range(n + 1):
            for count in range(total + 1):
                for parts in compositions(total, count):
                    walk = coeff_P_poly(n, parts)
                    bridge = coeff_Q_poly(n, parts) if total < n else []
                    for r in range(-1, n + 2):
                        assert coeff_P(n, parts, r) == (walk[r] if 0 <= r < len(walk) else 0)
                        if total < n:
                            assert coeff_Q(n, parts, r) == \
                                (bridge[r] if 0 <= r < len(bridge) else 0)
                        checked += 1
    assert checked > 10_000
    assert coeff_P(9, (2,), 10**12) == coeff_Q(9, (2,), 10**12) == 0


class TestCompositionEnumeration:
    def test_counts(self):
        for total in range(1, 9):
            for count in range(1, total + 1):
                got = list(compositions(total, count))
                assert len(got) == math.comb(total - 1, count - 1)
                assert all(sum(c) == total and min(c) >= 1 for c in got)
                assert len(set(got)) == len(got)

    def test_edge_cases(self):
        assert list(compositions(0, 0)) == [()]
        assert list(compositions(3, 0)) == []

    def test_matches_the_replaced_recursion_tuple_for_tuple(self):
        # stars and bars must give the recursion's tuples in the recursion's
        # order, count = 0 and count > total included
        for total in range(13):
            for count in range(total + 2):
                assert list(compositions(total, count)) == \
                    list(oracles.recursive_compositions(total, count)), (total, count)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), k=st.integers(0, 40))
def test_recurrences_hold_everywhere(n, k):
    assert T.first(n, k) == T.first(n - 1, k - 1) + (n - 1) * T.first(n - 1, k)
    assert T.second(n, k) == T.second(n - 1, k - 1) + k * T.second(n - 1, k)
    assert T.first_b(n, k) == T.first_b(n - 1, k - 1) + (2 * n - 1) * T.first_b(n - 1, k)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 25), k=st.integers(0, 25))
def test_second_b_matches_definition(n, k):
    assert T.second_b(n, k) == sum(
        (1 << (m - k)) * math.comb(n, m) * T.second(m, k) for m in range(k, n + 1))


def expand(roots):
    poly = [1]
    for a in roots:
        poly = poly_mul(poly, [a, 1])
    return poly


class TestRootProduct:
    def test_rows_are_the_triangle_rows(self):
        for n in range(41):
            assert root_product(range(n), n + 1) == [T.first(n, k) for k in range(n + 1)]
            assert root_product(range(1, 2 * n, 2), n + 1) == [
                T.first_b(n, k) for k in range(n + 1)]

    def test_long_rows_match_triangle_prefix(self):
        t = StirlingTables(200)
        for n in (17, 33, 64, 65, 200):  # around and above the leaf size
            for m in (1, 2, 5, 12):
                assert root_product(range(n), m) == [t.first(n, k) for k in range(m)]
                assert root_product(range(1, 2 * n, 2), m) == [t.first_b(n, k) for k in range(m)]

    def test_empty_and_zero_length(self):
        assert root_product([], 3) == [1, 0, 0]
        assert root_product([5, 7], 0) == []
        with pytest.raises(DomainError):
            root_product([1], -1)

    def test_cached_rows_are_reused_and_extended(self):
        t = StirlingTables()
        walk, bridge = _FAMILY["B"], _FAMILY["A"]
        row = walk.row(t, 50, 6)
        assert walk.row(t, 50, 4) is row
        longer = walk.row(t, 50, 9)
        assert longer.coeffs[:6] == row.coeffs and len(longer.coeffs) == 9
        assert walk.row(t, 50, 6) is longer
        # a row is the block product of its one block, a bridge's over t
        assert t.block_product((), (50,), 9) is longer
        assert longer.coeffs == [T.first_b(50, k) for k in range(9)]
        assert bridge.row(t, 30, 5) is t.block_product((30,), (), 5)
        assert bridge.row(t, 30, 5).coeffs == [T.first(30, k + 1) for k in range(5)]

    def test_cached_block_products_are_shared_and_extended(self, monkeypatch):
        built = []
        of = LowOrderProduct.of
        monkeypatch.setattr(LowOrderProduct, "of",
                            staticmethod(lambda roots, m: built.append(m) or of(roots, m)))
        t = StirlingTables()
        assert t._products == {} and StirlingTables(12)._products == {}
        # every index tuple of the models in d = 4, n ascending: one build per
        # multiset of block lengths, blocks without roots left out
        multisets = set()
        for n in range(5, 11):
            for tag in "AB":
                model = Model(tag, n, 4)
                for k in range(1, 4):
                    for idx in combinations(range(1, model.generator_count + 1), k):
                        face_probability(model, idx, tables=t)
                        gaps = [b - a for a, b in zip((0,) + idx, idx)]
                        tail = n - idx[-1]
                        bridges = gaps + [tail] if tag == "A" else gaps
                        walks = [tail] if tag == "B" and tail else []
                        multisets.add((tuple(sorted(g for g in bridges if g > 1)), tuple(walks)))
        products = [e for e in t._products.values() if isinstance(e, LowOrderProduct)]
        assert len(built) == len(multisets) == len(products)
        # permuted bridge gaps share one entry
        count = len(built)
        assert face_probability(Model("A", 9, 4), (2, 5), tables=t) == \
            face_probability(Model("A", 9, 4), (3, 5), tables=t)
        assert t.block_product((4, 2, 1, 3), (), 1) is t.block_product((2, 3, 4), (), 2)
        assert len(built) == count
        # a shorter request reuses the entry, a longer one replaces it
        prod = t.block_product((5, 4), (3,), 2)
        assert t.block_product((4, 5), (3, 0), 1) is prod
        longer = t.block_product((4, 5), (3,), 5)
        assert longer.coeffs[:2] == prod.coeffs and len(longer.coeffs) == 5
        assert t.block_product((5, 4), (3,), 3) is longer
        assert built[count:] == [2, 5]

    def test_store_drops_its_oldest_entries_past_its_bound(self, monkeypatch):
        size = {g: _footprint(LowOrderProduct.of(block_roots((g,)), 3)) for g in (4, 5, 6, 7)}
        # room for three of the four products, and then some
        monkeypatch.setattr(combinatorics, "_STORE_BYTES",
                            size[5] + size[6] + size[7] + size[4] // 2)
        t = StirlingTables()
        built = [t.block_product((g,), (), 3) for g in (4, 5, 6, 7)]
        assert list(t._products) == [((5,), ()), ((6,), ()), ((7,), ())]
        assert t._stored == size[5] + size[6] + size[7]
        # a longer product replaces its entry and goes last; the oldest make room
        longer = t.block_product((5,), (), 4)
        assert list(t._products) == [((6,), ()), ((7,), ()), ((5,), ())]
        assert t.block_product((4,), (), 2).coeffs == root_product(block_roots((4,)), 2)
        assert list(t._products) == [((7,), ()), ((5,), ()), ((4,), ())]
        assert t._products[(7,), ()] is built[3] and t._products[(5,), ()] is longer
        assert t._stored == sum(map(_footprint, t._products.values()))
        # an entry larger than the whole bound is still kept, alone
        monkeypatch.setattr(combinatorics, "_STORE_BYTES", 1)
        big = _FAMILY["A"].row(t, 30, 3)
        assert list(t._products.values()) == [big] and t._stored == _footprint(big)

    def test_store_count_survives_threads_racing(self, monkeypatch):
        # four threads build and evict on one instance, switching every
        # microsecond: a lost update would leave _stored off its entries
        monkeypatch.setattr(combinatorics, "_STORE_BYTES", 4_000)
        t = StirlingTables()

        def build(first):
            for g in range(first, first + 300):
                t.block_product((g % 40 + 2, g // 40 + 2), (), 2)

        threads = [threading.Thread(target=build, args=(300 * i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert t._stored == sum(map(_footprint, t._products.values())) <= 4_000

    def test_derived_entry_count_survives_threads_racing(self, monkeypatch):
        # four threads read face probabilities and closed forms on one
        # instance, storing derived entries (face values, weighted sums)
        # while the others store and evict theirs: a value counted twice,
        # or an eviction not counted, would leave _stored off its entries
        monkeypatch.setattr(combinatorics, "_STORE_BYTES", 20_000)
        t = StirlingTables()
        want = {}

        def read(first):
            for g in range(first, first + 150):
                model = Model("AB"[g % 2], g % 20 + 6, 4)
                idx = (g % 3 + 1, g % 3 + 3)
                got = (face_probability(model, idx, False, t), face_probability(model, idx, True, t),
                       expected_fk(model, g % 4, g % 3 == 0, t))
                want.setdefault((model, idx, g % 4, g % 3 == 0), set()).add(got)

        threads = [threading.Thread(target=read, args=(150 * i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert t._stored == sum(map(_footprint, t._products.values())) <= 20_000
        fresh = StirlingTables()
        for (model, idx, k, conditioned), got in want.items():
            assert got == {(face_probability(model, idx, False, fresh),
                            face_probability(model, idx, True, fresh),
                            expected_fk(model, k, conditioned, fresh))}

    def test_every_entry_is_one_product_record_or_value_tuple(self, monkeypatch):
        # one identity pass and 200 face probabilities (each with an edge
        # count, so records stay too) on a small store: each entry is
        # counted alone, and a face value outlives its product
        monkeypatch.setattr(combinatorics, "_STORE_BYTES", 30_000)
        t = StirlingTables()
        assert all(c.status == "pass" for c in identity_checks(tables=t))
        rng = random.Random(20250810)
        faces = []
        for _ in range(200):
            d = rng.randrange(2, 6)
            model = Model(rng.choice("AB"), rng.randrange(d + 1, 16), d)
            idx = tuple(sorted(rng.sample(range(1, model.generator_count + 1),
                                          rng.randrange(1, d))))
            faces.append((model, idx, face_probability(model, idx, tables=t)))
            expected_fk(model, 1, tables=t)
        entries = list(t._products.values())
        assert all(isinstance(e, (LowOrderProduct, _Record, tuple)) for e in entries)
        assert {type(e) for e in entries} == {LowOrderProduct, _Record, tuple}
        assert t._stored == sum(map(_footprint, entries)) <= 30_000
        orphans = 0
        fresh = StirlingTables()
        for model, idx, value in faces:
            key, m = _face_key(model, idx)
            if (key, m) in t._products and key not in t._products:
                orphans += 1
                assert face_probability(model, idx, tables=t) == value == \
                    face_probability(model, idx, tables=fresh)
        assert orphans > 0, "no face value outlived its product"

    def test_default_store_stays_bounded(self):
        # 20,000 cold three-index face probabilities on a long bridge, none
        # passing tables: each builds a block product into the default tables.
        # Without a bound they kept 19,979 products and 43.7 MB more peak RSS.
        src = str(Path(combinatorics.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = textwrap.dedent("""
            import random, resource
            from conic_walks.combinatorics import _STORE_BYTES, default_tables
            from conic_walks.formulas import Model, face_probability
            model, rng = Model("A", 1000, 4), random.Random(20250810)
            face_probability(model, (1, 2, 3))
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            for _ in range(20_000):
                face_probability(model, sorted(rng.sample(range(1, 1000), 3)))
            grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
            print(grown / 1024, default_tables()._stored <= _STORE_BYTES)
        """)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=600, check=True)
        grown_mb, within = out.stdout.split()
        assert within == "True"
        assert float(grown_mb) < 16, f"peak RSS grew by {grown_mb} MB"

    def test_product_term_cap(self):
        # 400 factors to 1,000 coefficients are at the cap and cheap: the
        # product has degree 400; one more coefficient is refused
        assert root_product(range(400), MAX_PRODUCT_TERMS // 400)[-1] == 0
        with pytest.raises(DomainError, match="exceed the cap of 400000 factors times"):
            root_product(range(400), MAX_PRODUCT_TERMS // 400 + 1)

    def test_factor_cap(self):
        # roots are counted before any list of them is built
        assert len(block_roots([], [MAX_FACTORS])) == MAX_FACTORS
        for call in (lambda: LowOrderProduct.of(range(MAX_FACTORS + 1), 3),
                     lambda: block_roots([MAX_FACTORS + 2]),
                     lambda: coeff_P(MAX_FACTORS + 1, [], 0),
                     lambda: coeff_Q(10 ** 12, [1], 0)):
            with pytest.raises(DomainError, match="linear factors exceeds the cap"):
                call()

    def test_reading_past_the_truncation_raises(self):
        low = LowOrderProduct.of(range(1, 20), 3)
        with pytest.raises(IndexError):
            low.down(3)
        with pytest.raises(IndexError):
            low.parity_tail(5)
        with pytest.raises(IndexError):
            low.tail(4)
        with pytest.raises(IndexError):
            low.alternating(3)


@settings(max_examples=80, deadline=None)
@given(roots=st.lists(st.integers(-6, 40), max_size=45), extra=st.integers(0, 3),
       data=st.data())
def test_root_product_and_tails_match_full_expansion(roots, extra, data):
    full = expand(roots)
    m = data.draw(st.integers(0, len(full) + extra))
    assert root_product(roots, m) == (full + [0] * extra)[:m]
    low = LowOrderProduct.of(roots, len(full))
    assert low.at_one == sum(full)
    assert low.at_minus_one == sum((-1) ** r * c for r, c in enumerate(full))
    for a in range(len(full) + 1):
        assert low.parity_tail(a) == sum(full[a::2])
        assert low.tail(a) == sum(full[a:])
    # weights that are zero at r = 2 and negative at r = 0 and 1
    weights = [r * r - 4 for r in range(len(full))]
    for a in range(-1, len(full)):
        assert low.down(a) == sum(full[r] for r in range(a, -1, -2))
        assert low.alternating(a) == sum((-1) ** (a - r) * full[r] for r in range(a + 1))
        assert low.down(a, weights) == sum(
            full[r] * (r * r - 4) for r in range(a, -1, -2))
        assert low.alternating(a, weights) == sum(
            (-1) ** (a - r) * full[r] * (r * r - 4) for r in range(a + 1))


def _outcome(call):
    """The value of a call, or IndexError if it reads past the truncation."""
    try:
        return call()
    except IndexError:
        return IndexError


@settings(max_examples=150, deadline=None)
@given(roots=st.lists(st.integers(-6, 40), max_size=30), data=st.data())
def test_slice_sums_match_the_replaced_callable_weight_sums(roots, data):
    low = LowOrderProduct.of(roots, data.draw(st.integers(0, len(roots) + 3)))
    kept = len(low.coeffs)
    # weights may be shorter than the coefficients kept, or longer
    weights = data.draw(st.lists(st.integers(-50, 50), max_size=kept + 2))
    for a in range(-2, kept + 3):
        for name, new, old in (("down", low.down, oracles.replaced_down),
                               ("alternating", low.alternating, oracles.replaced_alternating)):
            assert _outcome(lambda: new(a)) == _outcome(lambda: old(low, a)), (name, a)
            assert _outcome(lambda: new(a, weights)) == \
                _outcome(lambda: old(low, a, weights.__getitem__)), (name, a, "weighted")
        assert _outcome(lambda: low.tail(a)) == _outcome(lambda: oracles.replaced_tail(low, a))
        if a >= 0:
            assert _outcome(lambda: low.parity_tail(a)) == \
                _outcome(lambda: oracles.replaced_parity_tail(low, a))
    # past the coefficients or the weights kept every form raises
    for call in (lambda: low.down(kept), lambda: low.alternating(kept, [1] * (kept + 1)),
                 lambda: low.down(len(weights), weights),
                 lambda: low.parity_tail(kept + 2), lambda: low.tail(kept + 1)):
        with pytest.raises(IndexError):
            call()
