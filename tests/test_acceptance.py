"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import json
import random

import pytest

from iaarank import (
    DecisionMatrix,
    ScaleConfig,
    attribute_vector,
    bundled_path,
    construct_fuzzy,
    ideal_interval_set,
    ideal_ratio,
    load_dataset,
    measure_similarity,
    midpoint_mean,
    rank_baseline_mean,
    rank_by_ideal_ratio,
    rank_universal,
    select_ideals,
    separations,
    topsis_rank,
)
from iaarank.cli import main
from iaarank.errors import DivisionByZero
from iaarank.similarity import FEATURE_WEIGHTS

import oracle
from conftest import (
    ATTRIBUTE_TABLE,
    BASELINE_ORDER,
    FILM_MEANS,
    IDEAL_RATIO_ORDER,
    IDEAL_RATIO_TABLE,
    JACCARD_TABLE,
    SPIKE_FILMS,
    UNIVERSAL_ORDER,
    make_set,
    universal_relation,
)


def test_criterion_1_interval_mean_table(film_sets):
    """Preprocessed averages and the baseline ranking match the reference table."""
    for label, iset in film_sets.items():
        assert abs(midpoint_mean(iset) - FILM_MEANS[label]) <= 1e-12, label
    result = rank_baseline_mean(list(film_sets.values()))
    assert list(result.labels()) == BASELINE_ORDER
    print("CRITERION 1 PASS: interval-to-mean table exact at 1e-12, "
          "baseline ranking matches the reference column")


def test_criterion_2_jaccard_table(film_numbers, film_ideals):
    best, worst = film_ideals
    for label, (expected_best, expected_worst) in JACCARD_TABLE.items():
        fz = film_numbers[label]
        assert measure_similarity("jaccard", fz, best) == pytest.approx(
            expected_best, abs=5e-5
        ), label
        assert measure_similarity("jaccard", fz, worst) == pytest.approx(
            expected_worst, abs=5e-5
        ), label
    with pytest.raises(DivisionByZero):
        ideal_ratio(film_numbers["Film I"], best, worst, "jaccard")
    print("CRITERION 2 PASS: overlap similarity matches both reference columns "
          "at 5e-5; the no-overlap film raises the undefined-ratio error")


def test_criterion_3_attribute_table(film_numbers, film_ideals):
    best, worst = film_ideals
    for label in SPIKE_FILMS:
        expected_best, expected_worst = ATTRIBUTE_TABLE[label]
        got_best = measure_similarity("attribute", film_numbers[label], best)
        got_worst = measure_similarity("attribute", film_numbers[label], worst)
        assert got_best == pytest.approx(expected_best, abs=5e-5), label
        assert got_worst == pytest.approx(expected_worst, abs=5e-5), label
    worst_deviation = 0.0
    for label, (expected_best, expected_worst) in ATTRIBUTE_TABLE.items():
        if label in SPIKE_FILMS:
            continue
        dev = max(
            abs(measure_similarity("attribute", film_numbers[label], best)
                - expected_best),
            abs(measure_similarity("attribute", film_numbers[label], worst)
                - expected_worst),
        )
        worst_deviation = max(worst_deviation, dev)
        assert dev <= 0.03, (label, dev)
    print(f"CRITERION 3 PASS: spike rows exact at 5e-5; non-spike rows within "
          f"the 0.03 target (worst deviation {worst_deviation:.4f})")


def test_criterion_4_ideal_ratio_column(film_numbers, film_ideals):
    best, worst = film_ideals
    result = rank_by_ideal_ratio(list(film_numbers.values()), best, worst, "combined")
    scores = {entry.label: entry.score for entry in result.entries}
    for label in SPIKE_FILMS:
        assert scores[label] == pytest.approx(IDEAL_RATIO_TABLE[label], abs=5e-4), label

    assert list(result.labels()) == IDEAL_RATIO_ORDER
    print("CRITERION 4 PASS: spike-film ratio scores at 5e-4; ordering equals "
          "the reference column exactly")


def test_criterion_5_universal_ranking(film_numbers):
    result = rank_universal(list(film_numbers.values()))
    assert list(result.labels()) == UNIVERSAL_ORDER
    cx_b = attribute_vector(film_numbers["Film B"]).centroid_x
    cx_h = attribute_vector(film_numbers["Film H"]).centroid_x
    assert cx_b == pytest.approx(5.9375, abs=1e-9)
    # the convention that reproduces the 5.9375 value exactly yields
    # ~6.0477 here; the ranking consequence is what matters
    assert cx_h > cx_b
    print("CRITERION 5 PASS: universal ranking column exact; centroid 5.9375 "
          f"at 1e-9; second centroid {cx_h:.4f} stays above it")


WIDE = ScaleConfig(0, 10)


def test_criterion_6a_membership_oracle_equivalence():
    rng = random.Random(20260810)
    points_checked = 0
    for trial in range(10_000):
        pairs = oracle.random_pairs(rng)
        fz = construct_fuzzy(make_set(f"t{trial}", pairs), WIDE)
        xs = list(fz.endpoints)
        xs += [(a + b) / 2 for a, b in zip(xs, xs[1:])]
        xs += [rng.uniform(0, 10) for _ in range(100)]
        n = len(pairs)
        for x in xs:
            direct = sum(1 for l, r in pairs if l <= x <= r) / n
            assert fz.membership(x) == direct, (pairs, x)
            points_checked += 1
    print(f"CRITERION 6a PASS: membership oracle equivalence exact on 10,000 "
          f"random sets ({points_checked} evaluation points)")


def test_criterion_6b_similarity_laws():
    rng = random.Random(60602)
    for _ in range(1_000):
        a = construct_fuzzy(make_set("a", oracle.random_pairs(rng)), WIDE)
        b = construct_fuzzy(make_set("b", oracle.random_pairs(rng)), WIDE)
        for measure in ("jaccard", "attribute", "combined"):
            forward = measure_similarity(measure, a, b)
            assert forward == measure_similarity(measure, b, a)
            assert 0.0 <= forward <= 1.0
            assert measure_similarity(measure, a, a) == 1.0
    print("CRITERION 6b PASS: similarity symmetry/identity/range on 1,000 "
          "random pairs")


def test_criterion_6c_weight_norm():
    norm = sum(w * w for w in FEATURE_WEIGHTS)
    assert abs(norm - 1.0) <= 1e-4
    print(f"CRITERION 6c PASS: weight vector norm {norm:.6f} within 1e-4 of 1")


def test_criterion_6d_strict_weak_order():
    rng = random.Random(60604)
    pool = [
        construct_fuzzy(make_set(f"p{i}", oracle.random_pairs(rng)), WIDE)
        for i in range(250)
    ]
    for _ in range(10_000):
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        ab = universal_relation(a, b, epsilon=0.0)
        assert ab == -universal_relation(b, a, epsilon=0.0)
        bc = universal_relation(b, c, epsilon=0.0)
        ac = universal_relation(a, c, epsilon=0.0)
        if ab == 1 and bc == 1:
            assert ac == 1
        if ab == 0 and bc == 0:
            assert ac == 0
    print("CRITERION 6d PASS: asymmetry and transitivity on 10,000 random "
          "triples under exact comparison keys")


def test_criterion_6e_translation_monotonicity():
    rng = random.Random(60605)
    scale = ScaleConfig(0, 20)
    for _ in range(200):
        pair_lists = [
            oracle.random_pairs(rng, low=0, high=8) for _ in range(rng.randint(2, 6))
        ]
        numbers = [
            construct_fuzzy(make_set(f"alt{i}", pairs), scale)
            for i, pairs in enumerate(pair_lists)
        ]
        target = rng.randrange(len(pair_lists))
        before = rank_universal(numbers).labels().index(f"alt{target}")
        delta = rng.uniform(0.5, 2.0)
        moved = make_set(f"alt{target}", oracle.shifted(pair_lists[target], delta))
        shifted = list(numbers)
        shifted[target] = construct_fuzzy(moved, scale)
        after = rank_universal(shifted).labels().index(f"alt{target}")
        assert after <= before
    print("CRITERION 6e PASS: shifting one alternative upward never worsens "
          "its universal rank (200 random fixtures)")


def test_criterion_6f_ideal_extremes(film_numbers, film_ideals):
    best, worst = film_ideals
    members = list(film_numbers.values()) + [best, worst]
    scores = [ideal_ratio(fz, best, worst, "combined") for fz in members]
    assert ideal_ratio(best, best, worst, "combined") == pytest.approx(
        max(scores), abs=1e-12
    )
    assert ideal_ratio(worst, best, worst, "combined") == pytest.approx(
        min(scores), abs=1e-12
    )
    rng = random.Random(60606)
    for _ in range(100):
        k = rng.randint(2, 5)
        n = rng.randint(1, 6)
        pool = [
            construct_fuzzy(
                make_set(f"m{i}", oracle.random_pairs(rng, low=0.5, high=9.5, max_n=n)),
                WIDE,
            )
            for i in range(k)
        ]
        rand_best = construct_fuzzy(ideal_interval_set(WIDE, n, "best"), WIDE)
        rand_worst = construct_fuzzy(ideal_interval_set(WIDE, n, "worst"), WIDE)
        pool += [rand_best, rand_worst]
        pool_scores = [ideal_ratio(fz, rand_best, rand_worst, "combined")
                       for fz in pool]
        top = ideal_ratio(rand_best, rand_best, rand_worst, "combined")
        bottom = ideal_ratio(rand_worst, rand_best, rand_worst, "combined")
        assert top == pytest.approx(max(pool_scores), abs=1e-12)
        assert bottom == pytest.approx(min(pool_scores), abs=1e-12)
    print("CRITERION 6f PASS: ideal best/worst attain the extreme ratio scores "
          "on the film fixture and 100 random fixtures")


def test_criterion_7_topsis_fixture():
    dataset = load_dataset(bundled_path("synthetic-3x2"), WIDE)
    matrix = DecisionMatrix.from_dataset(dataset)
    result = topsis_rank(matrix, "combined")
    top = result.entries[0]
    assert top.label == "X" and top.rank == 1 and top.closeness == 1.0

    scaled = topsis_rank(DecisionMatrix.from_dataset(dataset, weights=(9, 9)))
    for a, b in zip(result.entries, scaled.entries):
        assert abs(a.closeness - b.closeness) <= 1e-12

    permuted_cells = {}
    for alt in ("Z", "Y", "X"):
        for crit in ("c2", "c1"):
            permuted_cells[(alt, crit)] = dataset.cells[(alt, crit)]
    from iaarank.intervals import MultiCriteriaDataset

    permuted = MultiCriteriaDataset(
        ("Z", "Y", "X"), ("c2", "c1"), permuted_cells, WIDE
    )
    permuted_result = topsis_rank(DecisionMatrix.from_dataset(permuted), "combined")
    base_cc = {e.label: e.closeness for e in result.entries}
    for entry in permuted_result.entries:
        assert abs(entry.closeness - base_cc[entry.label]) <= 1e-12

    ideals = select_ideals(matrix)
    pairs = separations(matrix, ideals, "combined")
    raw = {
        key: list(zip(iset.lefts, iset.rights))
        for key, iset in dataset.cells.items()
    }
    for label, (d_plus, d_minus) in zip(matrix.alternatives, pairs):
        expected_plus = sum(
            matrix.weights[j]
            * (1 - oracle.brute_combined_similarity(
                raw[(label, crit)], raw[(ideals[j].pis.label, crit)], 0, 10))
            for j, crit in enumerate(matrix.criteria)
        )
        expected_minus = sum(
            matrix.weights[j]
            * (1 - oracle.brute_combined_similarity(
                raw[(label, crit)], raw[(ideals[j].nis.label, crit)], 0, 10))
            for j, crit in enumerate(matrix.criteria)
        )
        assert d_plus == pytest.approx(expected_plus, abs=1e-9)
        assert d_minus == pytest.approx(expected_minus, abs=1e-9)
    print("CRITERION 7 PASS: dominant alternative closes at 1.0 and ranks "
          "first; weight-scaling and permutation invariance at 1e-12; "
          "separations match the brute-force recomputation")


FILM_ARGS = ["--input", "films", "--scale-min", "1", "--scale-max", "10"]
SYNTH_ARGS = ["--input", "synthetic-3x2", "--scale-min", "0", "--scale-max", "10"]


def test_criterion_8_cli_determinism_and_exit_codes(tmp_path):
    subcommands = [
        ("build", FILM_ARGS),
        ("attributes", FILM_ARGS),
        ("similarity", FILM_ARGS + ["--matrix"]),
        ("rank", FILM_ARGS + ["--method", "ideal-ratio", "--measure", "combined"]),
        ("topsis", SYNTH_ARGS),
        ("plotdata", FILM_ARGS),
    ]
    for command, args in subcommands:
        first = tmp_path / f"{command}-1.out"
        second = tmp_path / f"{command}-2.out"
        assert main([command, *args, "--output", str(first)]) == 0
        assert main([command, *args, "--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), command

    header = "alternative,criterion,source,left,right\n"
    inverted = tmp_path / "inverted.csv"
    inverted.write_text(header + "A,c,s,7,3\n", encoding="utf-8")
    sink = str(tmp_path / "sink.out")

    assert main(["rank", *FILM_ARGS, "--output", sink]) == 0
    assert main(["build", "--input", str(tmp_path / "missing.csv"),
                 "--scale-min", "1", "--scale-max", "10"]) == 2
    assert main(["build", "--input", str(inverted),
                 "--scale-min", "1", "--scale-max", "10"]) == 3
    assert main(["rank", *FILM_ARGS, "--method", "ideal-ratio",
                 "--measure", "jaccard"]) == 4
    print("CRITERION 8 PASS: byte-identical reruns for every subcommand; "
          "exit codes 0/2/3/4 verified")


def test_criterion_8_build_record_schema(tmp_path):
    # the serialized records double as the documented JSON contract
    target = tmp_path / "records.out"
    assert main(["build", *FILM_ARGS, "--output", str(target)]) == 0
    records = [json.loads(line) for line in target.read_text().splitlines()]
    by_label = {r["label"]: r for r in records}
    assert by_label["Film A"]["regions"] == [[1.0, 1.0, 1.0]]
    assert {"label", "n", "regions", "endpoints"} <= set(records[0])
