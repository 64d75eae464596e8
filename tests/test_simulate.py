"""Generator contract, latent-model tables, and sampling behavior."""

import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import selinf.simulate
from selinf.chsh import compute_gamma
from selinf.errors import InvalidValue
from selinf.feasibility import (
    HIDDEN_STATES,
    HiddenStateDistribution,
    fine_criterion,
)
from selinf.io import analyze
from selinf.model import CELLS, TREATMENTS, ExperimentData, JointTable
from selinf.selectivity import check_marginal_selectivity
from selinf.simulate import (
    Model,
    SampleSpec,
    SplitMix64,
    _LANES,
    _lane_constants,
    _tallies,
    sample_counts,
)

from conftest import random_hidden_distribution
from relabel import (
    mix_tables,
    next_53bits,
    point_mass_distribution,
    point_mass_table,
    push_forward,
    uniform_distribution,
    uniform_table,
)

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def reference_splitmix64(seed, count):
    """Independent transcription of the published SplitMix64 algorithm."""
    out = []
    state = seed & MASK64
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


def reference_thresholds(cells):
    """ceil(cumulative * 2^53) over the cells in order."""
    return [math.ceil(sum(cells[: k + 1]) * 2**53) for k in range(4)]


def reference_tally(outputs, thresholds):
    """Cell counts when each r = output >> 11 falls in the first cell whose threshold exceeds r."""
    tally = [0, 0, 0, 0]
    for out in outputs:
        tally[next(k for k, th in enumerate(thresholds) if out >> 11 < th)] += 1
    return tally


class TestSplitMix64:
    def test_published_reference_vector(self):
        # first outputs of the reference C implementation for x = 1234567
        gen = SplitMix64(1234567)
        assert [gen.next_uint64() for _ in range(5)] == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
            4593380528125082431,
            16408922859458223821,
        ]

    def test_agrees_with_independent_transcription(self):
        rng = random.Random(71)
        for _ in range(10):
            seed = rng.getrandbits(64)
            gen = SplitMix64(seed)
            assert [gen.next_uint64() for _ in range(20)] == reference_splitmix64(seed, 20)

    def test_outputs_are_64_bit(self):
        gen = SplitMix64(0)
        for _ in range(100):
            v = gen.next_uint64()
            assert 0 <= v <= MASK64

    def test_53_bit_draws(self):
        gen = SplitMix64(99)
        for _ in range(100):
            assert 0 <= next_53bits(gen) < (1 << 53)


class TestModelTables:
    def test_uniform_selective_model(self):
        tables = Model(uniform_distribution()).tables
        for t in TREATMENTS:
            assert tables.table(t) == uniform_table()

    def test_zero_contamination_equals_selective(self):
        rng = random.Random(72)
        hidden = random_hidden_distribution(rng)
        cross = {t: (1, -1) for t in TREATMENTS}
        plain = Model(hidden).tables
        contaminated = Model(hidden=hidden, eta=Fraction(0), cross_map=cross).tables
        for t in TREATMENTS:
            assert plain.table(t) == contaminated.table(t)

    def test_full_contamination_can_break_selectivity(self):
        # forced outcomes differ in A across beta levels: delta = 1 at eta = 1
        cross = {
            TREATMENTS[0]: (1, 1),
            TREATMENTS[1]: (-1, 1),
            TREATMENTS[2]: (1, 1),
            TREATMENTS[3]: (-1, 1),
        }
        model = Model(
            hidden=uniform_distribution(), eta=Fraction(1), cross_map=cross
        )
        report = check_marginal_selectivity(model.tables, 0)
        assert not report.satisfied
        assert report.comparisons[0].delta == 1

    def test_contamination_is_affine_in_eta(self):
        rng = random.Random(73)
        hidden = random_hidden_distribution(rng)
        cross = {t: (-1, -1) for t in TREATMENTS}
        base = Model(hidden).tables
        point = JointTable(0, 0, 0, 1)
        for _ in range(20):
            eta = Fraction(rng.randint(0, 12), 12)
            mixed = Model(hidden=hidden, eta=eta, cross_map=cross).tables
            for t in TREATMENTS:
                for got, p, q in zip(
                    mixed.table(t).cells(), base.table(t).cells(), point.cells()
                ):
                    assert got == (1 - eta) * p + eta * q

    def test_tables_equal_the_fraction_route_push_forward_and_mix(self):
        # seeded models with random forced pairs and rates, some over large denominators
        rng = random.Random(75)
        for i in range(60):
            hidden = random_hidden_distribution(rng)
            cross = {t: rng.choice(CELLS) for t in TREATMENTS}
            eta = Fraction(rng.randint(0, 20), 20) if i % 3 else Fraction(rng.randrange(10**40), 10**40 + 7)
            base = push_forward(hidden)
            assert Model(hidden).tables == base
            mixed = {t: mix_tables(point_mass_table(*cross[t]), base.table(t), eta) for t in TREATMENTS}
            assert Model(hidden, eta, cross).tables == ExperimentData(tables=mixed)

    def test_selective_models_pass_criterion_and_solver(self):
        rng = random.Random(74)
        for _ in range(50):
            data = Model(random_hidden_distribution(rng)).tables
            assert fine_criterion(data)
            assert analyze(data).feasibility.feasible

    def test_tables_are_computed_once_at_construction(self, monkeypatch):
        pushed = []
        original = selinf.simulate._push_forward

        def counting(dist):
            pushed.append(dist)
            return original(dist)

        monkeypatch.setattr(selinf.simulate, "_push_forward", counting)
        uniform = uniform_distribution()
        cross = {t: (1, -1) for t in TREATMENTS}
        builds = (
            lambda: Model(uniform),
            lambda: Model(hidden=uniform, eta=Fraction(1, 5), cross_map=cross),
        )
        for build in builds:
            pushed.clear()
            model = build()
            assert pushed == [uniform]  # one push-forward, at construction
            first = sample_counts(model, SampleSpec(n_per_treatment=50, seed=3))
            assert sample_counts(model, SampleSpec(n_per_treatment=50, seed=3)) == first
            assert model.tables is model.tables
            assert pushed == [uniform]  # none while sampling

    def test_a_model_builds_one_experiment_and_no_table_through_its_constructor(self, tables_built):
        # the push-forward's cells and the mix are integers, handed to the data's _hold as integers; no __init__ runs
        uniform = uniform_distribution()
        cross = {t: (1, -1) for t in TREATMENTS}
        for build in (lambda: Model(uniform), lambda: Model(hidden=uniform, eta=Fraction(1, 5), cross_map=cross)):
            tables_built.clear()
            build()
            assert tables_built == ["ExperimentData._hold"]

    def test_thresholds_are_the_ceilings_of_the_contract(self):
        # seeded selective and contaminated models; a cumulative cell times 2^53 that is not an integer is rounded up
        rng = random.Random(76)
        fractional = 0
        for i in range(20):
            hidden = random_hidden_distribution(rng)
            cross = {t: rng.choice(CELLS) for t in TREATMENTS}
            model = Model(hidden, Fraction(rng.randint(1, 6), 7), cross) if i % 2 else Model(hidden)
            cells = [model.tables.table(t).cells() for t in TREATMENTS]
            assert model._thresholds == [reference_thresholds(c) for c in cells]
            fractional += sum((sum(c[: k + 1]) * 2**53).denominator != 1 for c in cells for k in range(4))
        assert fractional > 20

    def test_thresholds_and_lane_constants_are_computed_once(self, monkeypatch):
        pushed = []
        original = selinf.simulate._push_forward

        def counting(dist):
            pushed.append(dist)
            return original(dist)

        monkeypatch.setattr(selinf.simulate, "_push_forward", counting)
        model = Model(random_hidden_distribution(random.Random(8)))
        before = _lane_constants.cache_info()
        first = sample_counts(model, SampleSpec(n_per_treatment=77, seed=3))
        assert sample_counts(model, SampleSpec(n_per_treatment=77, seed=4)) != first
        after = _lane_constants.cache_info()
        assert pushed == [model.hidden]  # once per model, not per call
        assert after.misses - before.misses <= 1 and after.hits - before.hits >= 7

    def test_model_validation(self):
        uniform = uniform_distribution()
        with pytest.raises(InvalidValue, match="^eta > 0 needs a cross_map of forced outcome pairs$"):
            Model(uniform, Fraction(1, 2))
        with pytest.raises(InvalidValue):
            Model(hidden=uniform, eta=Fraction(3, 2), cross_map={})
        with pytest.raises(InvalidValue):
            Model(
                hidden=uniform,
                eta=Fraction(1, 2),
                cross_map={TREATMENTS[0]: (1, 1)},
            )
        with pytest.raises(InvalidValue):
            Model(
                hidden=uniform,
                eta=Fraction(1, 2),
                cross_map={t: (1, 2) for t in TREATMENTS},
            )


class TestSampleSpec:
    def test_validation(self):
        with pytest.raises(InvalidValue):
            SampleSpec(0, 1)
        with pytest.raises(InvalidValue):
            SampleSpec(10, -1)
        with pytest.raises(InvalidValue):
            SampleSpec(10, 1 << 64)
        SampleSpec(1, (1 << 64) - 1)

    @pytest.mark.parametrize("n, seed", [(True, 0), (10, False), (True, False), (10, True)])
    def test_bools_are_not_sizes_or_seeds(self, n, seed):
        # as a CountTable rejects a bool count
        with pytest.raises(InvalidValue, match="^(n_per_treatment|seed) must be"):
            SampleSpec(n, seed)

    def test_sample_size_is_capped_like_count_totals(self):
        # constructing a spec draws nothing; a larger n could never form a CountTable
        assert SampleSpec(2**53, 0).n_per_treatment == 2**53
        with pytest.raises(InvalidValue, match="2\\*\\*53"):
            SampleSpec(2**53 + 1, 0)


class TestSampling:
    def test_point_mass_model_draws_only_plus_plus(self):
        model = Model(point_mass_distribution(HIDDEN_STATES[0]))
        sampled = sample_counts(model, SampleSpec(40, 7))
        for t in TREATMENTS:
            assert sampled.count(t).cells() == (40, 0, 0, 0)
            assert sampled.table(t) == JointTable(1, 0, 0, 0)

    def test_reproducibility_exact(self):
        rng = random.Random(75)
        model = Model(random_hidden_distribution(rng))
        spec = SampleSpec(200, 31337)
        first = sample_counts(model, spec)
        second = sample_counts(model, spec)
        for t in TREATMENTS:
            assert first.count(t) == second.count(t)

    def test_different_seeds_differ(self):
        model = Model(uniform_distribution())
        a = sample_counts(model, SampleSpec(500, 1))
        b = sample_counts(model, SampleSpec(500, 2))
        assert any(a.count(t) != b.count(t) for t in TREATMENTS)

    def test_counts_attach_with_derived_tables(self):
        model = Model(uniform_distribution())
        sampled = sample_counts(model, SampleSpec(100, 5))
        assert sampled.has_full_counts()
        for t in TREATMENTS:
            assert sampled.count(t).n == 100
            assert sampled.table(t) == sampled.count(t).normalized()

    def test_cell_frequencies_converge_with_n(self):
        # fixed seed 2026: max cell deviation shrinks over n = 1e2, 1e4, 1e6
        model = Model(uniform_distribution())
        exact = model.tables
        deviations = []
        for n in (10**2, 10**4, 10**6):
            sampled = sample_counts(model, SampleSpec(n, 2026))
            dev = max(
                abs(sampled.table(t).cells()[k] - exact.table(t).cells()[k])
                for t in TREATMENTS
                for k in range(4)
            )
            deviations.append(dev)
        assert deviations[0] > deviations[1] > deviations[2]

    def test_empirical_gamma_near_zero_for_uniform_model(self):
        model = Model(uniform_distribution())
        sampled = sample_counts(model, SampleSpec(10**5, 2026))
        assert float(compute_gamma(sampled).gamma) < 0.05

    def test_skewed_rational_cells_are_respected(self):
        # cells with denominators that do not divide a power of two
        dist = HiddenStateDistribution.from_mapping(
            {"++++": Fraction(1, 3), "---+": Fraction(2, 3)}
        )
        model = Model(dist)
        sampled = sample_counts(model, SampleSpec(30000, 17))
        table = sampled.table(TREATMENTS[0])
        assert abs(table.p_pp - Fraction(1, 3)) < Fraction(2, 100)
        assert abs(table.p_mm - Fraction(2, 3)) < Fraction(2, 100)


CHUNK_EDGES = (1, _LANES - 1, _LANES, _LANES + 1, 2 * _LANES + 1)
WRAPPING_SEEDS = (0, MASK64, (1 << 64) - GOLDEN)  # first states GOLDEN, GOLDEN - 1 and 0


class TestPackedSampler:
    """The chunked big-integer sampler against draw-by-draw transcription."""

    CELLS = {
        "distinct": (Fraction(1, 3), Fraction(1, 7), Fraction(1, 5), Fraction(34, 105)),
        "first cell empty": (Fraction(0), Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
        "middle cell empty": (Fraction(1, 3), Fraction(0), Fraction(1, 3), Fraction(1, 3)),
        "point mass pp": (Fraction(1), Fraction(0), Fraction(0), Fraction(0)),
        "point mass pm": (Fraction(0), Fraction(1), Fraction(0), Fraction(0)),
        "point mass mm": (Fraction(0), Fraction(0), Fraction(0), Fraction(1)),
    }

    @staticmethod
    def tie_thresholds(outputs):
        """Thresholds that put drawn outputs on top-byte ties: at and just past their r, on
        top-byte edges (the threshold << 11 has 56 zero low bits) and two-byte edges (48 zero
        low bits) and just past them, and 0 and 2^53 before the last cell."""
        first, last = outputs[0] >> 11, outputs[-1] >> 11
        # the most trailing zeros: with 11 or more, this output equals its threshold << 11 exactly
        exact = max(outputs, key=lambda out: out & -out) >> 11
        edges = [r >> 45 << 45 for r in (first, last, exact)]
        two_byte_edges = sorted(r >> 37 << 37 for r in (first, last, exact))
        return [
            sorted([first, last, exact]) + [2**53],
            sorted([first + 1, last + 1, exact + 1]) + [2**53],
            sorted(edges[:2] + [edges[2] + (1 << 45)]) + [2**53],
            two_byte_edges + [2**53],
            [r + 1 for r in two_byte_edges] + [2**53],
            [0, 0, exact, 2**53],
            [0, 2**53, 2**53, 2**53],
            [exact, 2**53, 2**53, 2**53],
        ]

    def test_the_tie_thresholds_reach_every_branch(self):
        """Among the draws of the reference test that tie a threshold on the top byte, byte 6 decides some as
        reached and some as not, and some tie on byte 6 too and are decided by the full comparison, either way."""
        branches = Counter()
        for seed in WRAPPING_SEEDS:
            outputs = reference_splitmix64(seed, max(CHUNK_EDGES))
            for thresholds in [reference_thresholds(c) for c in self.CELLS.values()] + self.tie_thresholds(outputs):
                for t in [th << 11 for th in thresholds[:3] if th < 2**53]:
                    for out in outputs:
                        if out >> 56 == t >> 56:  # bytes 6 and 7 of the output are those of the lane
                            byte_6, t_6 = out >> 48 & 255, t >> 48 & 255
                            if byte_6 != t_6:
                                branches["byte 6", byte_6 > t_6] += 1
                            else:
                                branches["full comparison", out >= t] += 1
        assert len(branches) == 4, branches

    @pytest.mark.parametrize("seed", WRAPPING_SEEDS)
    @pytest.mark.parametrize("n", CHUNK_EDGES)
    def test_tallies_match_per_draw_reference(self, n, seed):
        outputs = reference_splitmix64(seed, n)
        thresholds = [reference_thresholds(c) for c in self.CELLS.values()] + self.tie_thresholds(outputs)
        got = _tallies(n, [(seed, th) for th in thresholds])
        assert got == [reference_tally(outputs, th) for th in thresholds]

    @staticmethod
    def tying(out):
        """Thresholds r' that tie the output on the top byte, for its r = out >> 11: r + 1, r and r - 1; r' that
        share r's top two bytes, so tie on byte 6 too, from either end of that range; and r' that share its top byte."""
        r = out >> 11
        block = r >> 37 << 37  # r's top two bytes, with zero bits below them
        return st.one_of(
            st.sampled_from([r + 1, r, max(r - 1, 0)]),
            st.integers(0, 2**37 - 1).map(lambda low: block + low),
            st.integers(0, 2**37 - 1).map(lambda low: block + 2**37 - 1 - low),
            st.integers(0, 2**45 - 1).map(lambda low: (r >> 45 << 45) + low),
        )

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(seed=st.integers(0, MASK64), n=st.integers(1, 300), data=st.data())
    def test_tallies_match_per_draw_reference_for_any_seed(self, seed, n, data):
        outputs = reference_splitmix64(seed, n)
        independent = st.one_of(
            st.just(0),
            st.just(2**53),
            st.integers(0, 2**53),
            st.integers(0, 2**53).map(lambda r: r >> 45 << 45),
            st.integers(0, 2**53).map(lambda r: r >> 37 << 37),
            st.integers(0, 2**53 - 1).map(lambda r: (r >> 37 << 37) + 1),
        )
        # two in three thresholds come from the seed's own outputs, so that draws tie them on the top byte and on byte 6
        from_outputs = st.sampled_from(outputs).flatmap(self.tying)
        threshold = st.one_of(from_outputs, from_outputs, independent)
        thresholds = sorted(data.draw(st.lists(threshold, min_size=3, max_size=3))) + [2**53]
        assert _tallies(n, [(seed, thresholds)]) == [reference_tally(outputs, thresholds)]

    @pytest.mark.parametrize("seed", WRAPPING_SEEDS)
    def test_sample_counts_match_per_draw_reference(self, seed):
        cross = dict(zip(TREATMENTS, ((1, 1), (1, -1), (-1, -1), (1, 1))))
        hidden = random_hidden_distribution(random.Random(76))
        model = Model(hidden=hidden, eta=Fraction(1, 10), cross_map=cross)
        exact = model.tables
        n = _LANES + 1
        sampled = sample_counts(model, SampleSpec(n, seed))
        for t, sub_seed in zip(TREATMENTS, reference_splitmix64(seed, 4)):
            expected = reference_tally(
                reference_splitmix64(sub_seed, n), reference_thresholds(exact.table(t).cells())
            )
            assert list(sampled.count(t).cells()) == expected

    def test_memory_does_not_grow_with_n(self):
        model = Model(uniform_distribution())
        tracemalloc.start()
        try:
            sample_counts(model, SampleSpec(10**6, 2026))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
