import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from powerparts.bigcount import (CoeffTable, PartitionKind, _knapsack,
                                 _log_weights, _slot_bits, count_partitions,
                                 count_via_log_recurrence, log_integer,
                                 verify_product_identity)

from _oracles import (brute_force_count, delta_k, divisor_sieve, epsilon_k,
                      knapsack, log_derivative_mismatch)

U = PartitionKind.UNRESTRICTED
D = PartitionKind.DISTINCT


class TestCountPartitions:
    def test_squares_small(self):
        assert count_partitions(U, 2, 4).coeffs == (1, 1, 1, 1, 2)

    def test_empty_partition_only(self):
        assert count_partitions(U, 1, 0).coeffs == (1,)

    def test_distinct_squares(self):
        t = count_partitions(D, 2, 5)
        assert t.coeffs[2] == 0
        assert t.coeffs[5] == 1  # 4 + 1

    def test_classic_partition_numbers(self):
        assert count_partitions(U, 1, 10).coeffs == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)

    def test_distinct_partition_numbers(self):
        assert count_partitions(D, 1, 10).coeffs == (1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10)

    @pytest.mark.parametrize("kind", [U, D])
    @pytest.mark.parametrize("k", [1, 2])
    def test_matches_brute_force(self, kind, k):
        table = count_partitions(kind, k, 30)
        for n in range(31):
            assert table.coeffs[n] == brute_force_count(kind, k, n), (kind, k, n)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_unrestricted_monotone(self, k):
        c = count_partitions(U, k, 300).coeffs
        assert all(b >= a for a, b in zip(c, c[1:]))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(kind=st.sampled_from([U, D]), k=st.integers(1, 5), n_max=st.integers(0, 600))
    @example(kind=U, k=2, n_max=0)  # no part at all
    @example(kind=D, k=3, n_max=7)  # n_max below the second part
    def test_knapsack_equals_scalar_oracle(self, kind, k, n_max):
        assert _knapsack(kind, k, n_max) == knapsack(kind, k, n_max)

    @pytest.mark.parametrize("kind", [U, D])
    @pytest.mark.parametrize("k", range(1, 7))
    def test_slot_bits_bound_every_entry(self, kind, k):
        # below, at and past part boundaries j^k, and two larger tables;
        # k = 1 from the pentagonal recurrence, k >= 2 from the scalar knapsack
        for n_max in sorted({0, 1, 2, 2**k - 1, 2**k, 3**k - 1, 3**k, 600, 4096}):
            table = count_partitions(kind, 1, n_max).coeffs if k == 1 else knapsack(kind, k, n_max)
            assert _slot_bits(kind, k, n_max) >= max(table).bit_length(), n_max

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            count_partitions(U, 0, 5)
        with pytest.raises(ValueError):
            count_partitions(U, -2, 5)
        with pytest.raises(ValueError):
            count_partitions(U, 1, -1)


class TestPentagonal:
    @pytest.mark.parametrize("kind", [U, D])
    @pytest.mark.parametrize("n_max", [0, 1, 2, 3, 4096])
    def test_equals_knapsack(self, kind, n_max):
        assert count_partitions(kind, 1, n_max).coeffs == tuple(_knapsack(kind, 1, n_max))

    def test_p_1000(self):
        assert count_partitions(U, 1, 1000)[1000] == 24061467864032622473692149727991

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(kind=st.sampled_from([U, D]), n_max=st.integers(0, 1500))
    def test_equals_knapsack_property(self, kind, n_max):
        assert count_partitions(kind, 1, n_max).coeffs == tuple(_knapsack(kind, 1, n_max))


class TestDivisorSums:
    def test_delta_examples(self):
        assert delta_k(1, 6) == 12  # 1+2+3+6
        assert delta_k(2, 4) == 5   # 1+4
        assert delta_k(3, 7) == 1

    def test_delta_at_primes(self):
        for p in (2, 3, 5, 7, 11, 13, 97):
            assert delta_k(1, p) == 1 + p
            assert delta_k(2, p) == 1
            assert delta_k(3, p) == 1

    def test_epsilon_examples(self):
        assert epsilon_k(1, 6) == 4  # odd divisors 1+3
        assert epsilon_k(1, 1) == 1
        assert epsilon_k(2, 2) == -1

    def test_epsilon_k1_is_odd_divisor_sum(self):
        for n in range(1, 201):
            odd_sum = sum(d for d in range(1, n + 1) if n % d == 0 and d % 2 == 1)
            assert epsilon_k(1, n) == odd_sum, n

    def test_epsilon_powers_of_two(self):
        for m in range(9):
            assert epsilon_k(1, 2**m) == 1

    def test_epsilon_k2_both_signs(self):
        vals = [epsilon_k(2, n) for n in range(1, 500)]
        assert any(v > 0 for v in vals) and any(v < 0 for v in vals)

    @pytest.mark.parametrize("sieve", [_log_weights, divisor_sieve])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_sieves_match_pointwise(self, sieve, k):
        ds = sieve(U, k, 300)
        es = sieve(D, k, 300)
        assert ds[0] == es[0] == 0
        for n in range(1, 301):
            assert ds[n] == delta_k(k, n)
            assert es[n] == epsilon_k(k, n)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            delta_k(1, 0)
        with pytest.raises(ValueError):
            epsilon_k(2, 0)


class TestLogRecurrence:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(kind=st.sampled_from([U, D]), k=st.integers(1, 5), n_max=st.integers(0, 400))
    def test_dp_equals_recurrence_property(self, kind, k, n_max):
        assert count_partitions(kind, k, n_max) == count_via_log_recurrence(kind, k, n_max)

    def test_partition_numbers(self):
        assert count_via_log_recurrence(U, 1, 5).coeffs == (1, 1, 2, 3, 5, 7)

    def test_distinct_numbers(self):
        assert count_via_log_recurrence(D, 1, 5).coeffs == (1, 1, 1, 2, 2, 3)

    @pytest.mark.parametrize("kind", [U, D])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_agrees_with_dp(self, kind, k):
        assert (count_via_log_recurrence(kind, k, 400).coeffs
                == count_partitions(kind, k, 400).coeffs)

    def test_epsilon_recovered_from_q2_table(self):
        # invert the recurrence: the log-series coefficients of the distinct
        # table must reproduce epsilon_k exactly
        a = count_partitions(D, 2, 60).coeffs
        c = [0]
        for n in range(1, 61):
            c.append(n * a[n] - sum(c[m] * a[n - m] for m in range(1, n)))
        for n in range(1, 61):
            assert c[n] == epsilon_k(2, n), n


class TestLogDerivativeCheck:
    @pytest.mark.parametrize("kind", [U, D])
    def test_k3_at_the_budget(self, kind):
        coeffs = count_partitions(kind, 3, 2**17).coeffs
        assert log_derivative_mismatch(kind, 3, coeffs) is None
        bad = list(coeffs)
        bad[99_991] += 1
        assert log_derivative_mismatch(kind, 3, bad) == 99_991

    @pytest.mark.parametrize("kind", [U, D])
    @pytest.mark.parametrize("k", [1, 2])
    def test_rejects_one_entry_plus_one(self, kind, k):
        coeffs = count_partitions(kind, k, 400).coeffs
        assert log_derivative_mismatch(kind, k, coeffs) is None
        for n in (0, 1, 257, 400):
            bad = list(coeffs)
            bad[n] += 1
            assert log_derivative_mismatch(kind, k, bad) == n, n


class TestProductIdentity:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_holds(self, k):
        rep = verify_product_identity(k, 200)
        assert rep.ok and rep.first_mismatch is None
        assert bool(rep)

    def test_detects_corruption(self):
        p = count_partitions(U, 1, 50)
        q = count_partitions(D, 1, 50)
        bad = CoeffTable(kind=D, k=1, n_max=50,
                         coeffs=q.coeffs[:10] + (q.coeffs[10] + 1,) + q.coeffs[11:])
        rep = verify_product_identity(1, 50, tables=(p, bad))
        assert not rep.ok and rep.first_mismatch == 10


class TestLogInteger:
    def test_moderate(self):
        assert math.isclose(log_integer(12345), math.log(12345), rel_tol=1e-14)

    def test_beyond_float_range(self):
        v = 1 << 10000
        assert math.isclose(log_integer(v), 10000 * math.log(2), rel_tol=1e-13)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_integer(0)
