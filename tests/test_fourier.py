import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from retroharness.core import MutationDescriptor, Outcome, SuiteConfig, TrialContext, run_suite
from retroharness.generators import Rng
from retroharness.suites import fourier
from retroharness.suites.fourier import (
    dft,
    differential_baseline,
    fourier_suite,
    idft,
    manual_fixture_check,
    metamorphic_baseline,
)

# Independent oracle: plain per-element loops, no shared code with the
# implementation under test.


def oracle_dft(seq, coef):
    n = len(seq)
    out = []
    for k in range(n):
        acc = 0j
        for i in range(n):
            acc += seq[i] * cmath.exp(coef * math.pi / n * k * i)
        out.append(acc)
    return out


def oracle_idft(seq, coef):
    n = len(seq)
    out = []
    for i in range(n):
        acc = 0j
        for k in range(n):
            acc += seq[k] * cmath.exp(-coef * math.pi / n * k * i)
        out.append(acc / n)
    return out


def full_matrix_transform(x, coef):
    """Reference transform: the whole exp matrix built on every call."""
    a = np.asarray(list(x), dtype=complex)
    k = np.arange(a.size)
    return np.exp(coef * np.pi / a.size * np.outer(k, k)) @ a


def full_matrix_dft(x, variant="correct"):
    return full_matrix_transform(x, fourier._COEF[variant]).tolist()


def full_matrix_idft(x, variant="correct"):
    y = full_matrix_transform(x, -fourier._COEF[variant])
    return (y / y.size).tolist()


def assert_close(actual, expected, tol=1e-12):
    assert len(actual) == len(expected)
    for a, e in zip(actual, expected):
        assert abs(a - e) <= tol, f"{actual} != {expected}"


class TestDft:
    def test_impulse_pair_spectrum(self):
        out = dft([1.0, 0.0, 1.0, 0.0])
        assert_close([v.real for v in out], [2.0, 0.0, 2.0, 0.0])
        assert all(abs(v.imag) <= 1e-12 for v in out)

    def test_length_one_is_identity(self):
        for variant in ("correct", "coef_minus_1j"):
            out = dft([3.5 + 1j], variant)
            assert_close(out, [3.5 + 1j])

    def test_buggy_spectrum_matches_direct_evaluation(self):
        out = dft([1.0, 0.0, 1.0, 0.0], "coef_minus_1j")
        expected = oracle_dft([1.0, 0.0, 1.0, 0.0], -1j)
        assert_close(out, expected)
        assert_close([v.real for v in out], [2.0, 1.0, 0.0, 1.0])

    def test_matches_oracle_on_random_input(self):
        rng = Rng(10)
        for _ in range(20):
            seq = [rng.uniform(-1, 1) for _ in range(rng.randint(1, 16))]
            assert_close(dft(seq), oracle_dft(seq, -2j), tol=1e-9)

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown variant 'nope'"):
            dft([1.0], "nope")

    @pytest.mark.parametrize("transform", [dft, idft], ids=["dft", "idft"])
    def test_rejects_empty_sequence(self, transform):
        with pytest.raises(ValueError, match="empty sequence"):
            transform([])

    @pytest.mark.parametrize("transform", [dft, idft], ids=["dft", "idft"])
    def test_items_are_python_complex(self, transform):
        assert all(type(v) is complex for v in transform([1.0, -0.5, 0.25]))


class TestIdft:
    def test_inverts_known_spectrum(self):
        out = idft([2.0, 0.0, 2.0, 0.0])
        assert_close(out, [1.0, 0.0, 1.0, 0.0])

    def test_length_one_is_identity(self):
        for variant in ("correct", "coef_minus_1j"):
            assert_close(idft([7.0], variant), [7.0])

    def test_round_trip_identity_random(self):
        rng = Rng(21)
        for _ in range(50):
            seq = [rng.uniform(-1, 1) for _ in range(rng.randint(1, 16))]
            assert_close(idft(dft(seq)), seq, tol=1e-12)

    def test_round_trip_identity_bulk(self):
        # 10,000 random sequences with lengths up to 64 stay within 1e-10.
        rng = Rng(64)
        for _ in range(10_000):
            seq = [rng.uniform(-1, 1) for _ in range(rng.randint(1, 64))]
            out = idft(dft(seq))
            assert max(abs(v.real - x) for v, x in zip(out, seq)) <= 1e-10


class TestFourierSuite:
    def test_buggy_forced_input_violates_with_oracle_values(self, force_input):
        report = force_input(fourier_suite(), [1.0, 0.0, 1.0, 0.0], variant="coef_minus_1j", seed=1)
        # seed 1 selects the identity mutator for this trial
        assert report.mutation.name == "identity"
        assert report.verdict.outcome is Outcome.VIOLATION
        expected = oracle_idft(oracle_dft([1.0, 0.0, 1.0, 0.0], -1j), -1j)
        assert_close(report.m1_prime, expected)
        assert_close([v.real for v in report.m1_prime], [1.0, 0.5, 1.0, 0.5])

    def test_correct_relation_accepts_unit_shift(self):
        # Adding 1 to the whole spectrum moves exactly the first sample.
        suite = fourier_suite()
        x = [1.0, 0.0, 1.0, 0.0]
        shifted = [v + 1.0 for v in dft(x)]
        x_prime = idft(shifted)
        assert_close([v.real for v in x_prime], [2.0, 0.0, 1.0, 0.0], tol=1e-12)
        ctx = TrialContext(rng=Rng(0), eps=1e-10, step_cap=1)
        descriptor = MutationDescriptor("add_constant", {"c": 1.0})
        assert suite.relation(x, x_prime, descriptor, ctx)

    def test_correct_passes_under_both_mutators(self):
        summary, reports = run_suite(fourier_suite(), SuiteConfig(iterations=300, master_seed=9))
        assert summary.violations == 0 and summary.program_errors == 0
        names = {r.mutation.name for r in reports}
        assert names == {"identity", "add_constant"}

    def test_add_constant_draws_c_in_unit_interval(self):
        _, reports = run_suite(fourier_suite(), SuiteConfig(iterations=200, master_seed=4))
        cs = [
            r.mutation.parameters["c"]
            for r in reports
            if r.mutation.name == "add_constant"
        ]
        assert cs and all(0.0 <= c < 1.0 for c in cs)

    @pytest.mark.parametrize(
        "backward",
        [
            lambda x, ctx: idft(x) + [0j],
            lambda x, ctx: idft(x)[:-1],
            lambda x, ctx: None,
            lambda x, ctx: 42,
            lambda x, ctx: ["x"] * len(x),
            lambda x, ctx: [complex(math.nan)] * len(x),
        ],
        ids=["extra_sample", "missing_sample", "none", "int", "str_items", "nan_items"],
    )
    def test_wrong_length_output_is_violation(self, backward):
        suite = dataclasses.replace(fourier_suite(), backward=backward)
        summary, _ = run_suite(suite, SuiteConfig(iterations=200))
        assert summary.violations == 200

    def test_bool_items_are_violation(self):
        # True has real part 1, so only the item type tells it from 1.0.
        suite = fourier_suite()
        ctx = TrialContext(rng=Rng(0), eps=1e-10, step_cap=1)
        identity = MutationDescriptor("identity")
        assert suite.relation([1.0, 0.0], [1.0, 0.0], identity, ctx)
        assert not suite.relation([1.0, 0.0], [True, False], identity, ctx)

    @pytest.mark.parametrize("container", [list, tuple])
    def test_container_is_judged_by_its_stored_items(self, container):
        # The container holds [0.0]; only its own __iter__ and __len__ show
        # the correct round trip.
        class Echo(container):
            def __iter__(self):
                return iter(self.shown)

            def __len__(self):
                return len(self.shown)

        def backward(spectrum, ctx):
            echo = Echo([0.0])
            echo.shown = idft(spectrum)
            return echo

        suite = dataclasses.replace(fourier_suite(), backward=backward)
        summary, _ = run_suite(suite, SuiteConfig(iterations=50))
        assert summary.violations == 50

    def test_imaginary_parts_are_judged(self):
        # Real parts exact, imaginary parts equal to them: a violation.
        tilted = dataclasses.replace(
            fourier_suite(), backward=lambda x, ctx: [v * (1 + 1j) for v in idft(x)]
        )
        summary, _ = run_suite(tilted, SuiteConfig(iterations=200, master_seed=42))
        assert summary.violations == 200

    def test_impulse_shift_property(self):
        # idft(dft(x) + c) = x + c*e0 for the correct transform.
        rng = Rng(12)
        for _ in range(200):
            seq = [rng.uniform(-1, 1) for _ in range(rng.randint(1, 64))]
            c = rng.random()
            shifted = idft([v + c for v in dft(seq)])
            assert abs(shifted[0].real - (seq[0] + c)) <= 1e-10
            for i in range(1, len(seq)):
                assert abs(shifted[i].real - seq[i]) <= 1e-10


class TestBaselines:
    def test_metamorphic_passes_on_buggy_variant(self):
        verdict = metamorphic_baseline([1.0, 0.0, 1.0, 0.0], 1.0, "coef_minus_1j")
        assert verdict.outcome is Outcome.PASS

    def test_metamorphic_zero_shift_any_variant(self):
        for variant in ("correct", "coef_minus_1j"):
            verdict = metamorphic_baseline([1.0, 0.0, 1.0, 0.0], 0.0, variant)
            assert verdict.outcome is Outcome.PASS

    def test_metamorphic_random_correct(self):
        rng = Rng(2)
        for _ in range(50):
            seq = [rng.uniform(-1, 1) for _ in range(rng.randint(1, 16))]
            verdict = metamorphic_baseline(seq, rng.random(), "correct")
            assert verdict.outcome is Outcome.PASS

    def test_differential_detects_buggy_variant(self):
        verdict = differential_baseline([1.0, 0.0, 1.0, 0.0], "coef_minus_1j")
        assert verdict.outcome is Outcome.VIOLATION

    def test_differential_passes_correct(self):
        assert differential_baseline([1.0, 0.0, 1.0, 0.0]).outcome is Outcome.PASS

    def test_differential_judges_imaginary_parts(self, monkeypatch):
        # The conjugate spectrum has numpy's real parts and no other value.
        seq = [1.0, 2.0, 0.0, -1.0]
        reference = np.fft.fft(seq).tolist()
        monkeypatch.setattr(
            fourier, "dft", lambda x, variant="correct": [v.conjugate() for v in reference]
        )
        verdict = differential_baseline(seq)
        assert verdict.outcome is Outcome.VIOLATION
        assert verdict.detail == (
            f"implementations disagree at index 1: direct={reference[1].conjugate()!r} "
            f"fft={reference[1]!r}"
        )

    def test_differential_length_one_any_variant(self):
        for variant in ("correct", "coef_minus_1j"):
            assert differential_baseline([5.0], variant).outcome is Outcome.PASS

    @pytest.mark.parametrize("n", [3, 5, 33, 63])
    def test_differential_takes_any_length(self, n):
        rng = Rng(n)
        seq = [rng.uniform(-1, 1) for _ in range(n)]
        assert differential_baseline(seq).outcome is Outcome.PASS
        assert differential_baseline(seq, "coef_minus_1j").outcome is Outcome.VIOLATION

    def test_differential_rejects_empty_input(self):
        with pytest.raises(ValueError, match="empty sequence"):
            differential_baseline([])

    @pytest.mark.parametrize(
        "check",
        [
            lambda: metamorphic_baseline([1.0, 0.0, 1.0, 0.0], 0.5),
            lambda: differential_baseline([1.0, 0.0, 1.0, 0.0]),
            lambda: manual_fixture_check(),
        ],
        ids=["metamorphic", "differential", "manual_fixture"],
    )
    def test_nan_spectrum_is_violation(self, check, monkeypatch):
        monkeypatch.setattr(fourier, "dft", lambda x, variant="correct": [complex(math.nan)] * len(x))
        assert check().outcome is Outcome.VIOLATION


class TestManualFixture:
    def test_correct_passes(self):
        assert manual_fixture_check().outcome is Outcome.PASS

    def test_buggy_violates(self):
        verdict = manual_fixture_check("coef_minus_1j")
        assert verdict.outcome is Outcome.VIOLATION

    def test_single_element_sanity(self):
        assert_close(dft([5.0]), [5.0])


class TestFullMatrixParity:
    """The transform gives the bytes of the full matrix built per call."""

    @pytest.mark.parametrize("variant", sorted(fourier._COEF))
    def test_bytes_match_full_matrix(self, variant):
        rng = Rng(5)
        for n in [*range(1, 65), 65, 100, 128]:
            seq = [rng.uniform(-1, 1) for _ in range(n)]
            spectrum = dft(seq, variant)
            pairs = [
                (spectrum, full_matrix_dft(seq, variant)),
                (idft(seq, variant), full_matrix_idft(seq, variant)),
                (idft(spectrum, variant), full_matrix_idft(spectrum, variant)),
            ]
            for got, want in pairs:
                assert np.array(got).tobytes() == np.array(want).tobytes(), n

    def test_baseline_verdicts_match_full_matrix(self, monkeypatch):
        rng = Rng(6)
        cases = []
        for _ in range(200):
            seq = [rng.uniform(-1, 1) for _ in range(rng.randint(1, 128))]
            cases.append((seq, rng.random(), rng.choice(sorted(fourier._COEF))))

        def verdicts():
            return [
                (metamorphic_baseline(seq, c, variant), differential_baseline(seq, variant))
                for seq, c, variant in cases
            ]

        cached = verdicts()
        monkeypatch.setattr(fourier, "dft", full_matrix_dft)
        full = verdicts()
        assert [[(v.outcome, v.detail) for v in pair] for pair in cached] == [
            [(v.outcome, v.detail) for v in pair] for pair in full
        ]


class TestTwiddleTables:
    def _kept(self):
        return fourier._kept_tables.cache_info().currsize

    @pytest.mark.parametrize("n", [65, 200])
    def test_long_input_keeps_no_table(self, n):
        assert n > fourier.MAX_LENGTH
        before = self._kept()
        dft([1.0] * n)
        idft([1.0] * n, "coef_minus_1j")
        assert self._kept() == before

    def test_short_input_keeps_its_tables(self):
        dft([1.0] * 7)
        before = fourier._kept_tables.cache_info()
        dft([1.0] * 7)
        after = fourier._kept_tables.cache_info()
        assert after.hits == before.hits + 1 and after.currsize == before.currsize

    def test_cached_tables_are_read_only(self):
        dft([1.0, 2.0, 3.0])
        twiddles, index = fourier._kept_tables(3, fourier._COEF["correct"])
        with pytest.raises(ValueError):
            twiddles[0] = 0
        with pytest.raises(ValueError):
            index[0, 0] = 1

    def test_mutating_a_result_leaves_the_next_unchanged(self):
        seq = [0.5, -0.25, 1.0, 0.0, 0.75]
        first = dft(seq)
        expected = list(first)
        first[:] = [complex(99)] * len(first)
        assert dft(seq) == expected

    @pytest.mark.parametrize("variant", sorted(fourier._COEF))
    @pytest.mark.parametrize("n", [*range(1, 65), 65, 100, 128])
    def test_matrices_are_the_exponentials_bit_for_bit(self, n, variant, monkeypatch):
        coef = fourier._COEF[variant]
        k = np.arange(n)
        take = np.take
        seen = []

        def kept_take(twiddles, index):
            seen.append(take(twiddles, index))
            return seen[-1]

        for transform, exponent in ((dft, coef), (idft, -coef)):
            seen.clear()
            with monkeypatch.context() as patch:
                patch.setattr(np, "take", kept_take)
                transform([0.0] * n, variant)
            want = np.exp(exponent * np.pi / n * np.outer(k, k))
            assert len(seen) == 1 and seen[0].tobytes() == want.tobytes(), transform

    @pytest.mark.parametrize("variant", sorted(fourier._COEF))
    def test_inverse_adds_no_kept_table(self, variant):
        dft([1.0] * 9, variant)
        before = fourier._kept_tables.cache_info(), fourier._kept_index.cache_info()
        idft([1.0] * 9, variant)
        after = fourier._kept_tables.cache_info(), fourier._kept_index.cache_info()
        assert [info.currsize for info in after] == [info.currsize for info in before]

    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("variant", sorted(fourier._COEF))
    def test_length_64_halves_give_the_unsplit_product_bit_for_bit(self, variant, inverse):
        coef = fourier._COEF[variant]
        twiddles, index = fourier._kept_tables(64, coef)
        if inverse:
            twiddles = np.conjugate(twiddles)
            twiddles[0] = 1
        matrix = np.take(twiddles, index)
        rng = np.random.default_rng(64)
        for _ in range(50):
            real = rng.uniform(-1.0, 1.0, 64)
            for x in (real, real + 1j * rng.uniform(-1.0, 1.0, 64)):
                got = fourier._transform(x.tolist(), coef, inverse)
                want = matrix @ x.astype(complex)
                assert got.tobytes() == want.tobytes()

    def test_kept_tables_for_every_length_fit_their_budget(self):
        fourier._kept_tables.cache_clear()
        fourier._kept_index.cache_clear()
        tracemalloc.start()
        try:
            for n in range(1, fourier.MAX_LENGTH + 1):
                for variant in fourier._COEF:
                    idft(dft([1.0] * n, variant), variant)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fourier._kept_tables.cache_info().currsize == 2 * fourier.MAX_LENGTH
        assert kept <= 1.4 * 2**20
