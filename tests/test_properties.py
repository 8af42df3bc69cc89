"""Property-based tests of the paper's central claims (hypothesis).

The headline property is exactness: DMC mines the same rule set as the
brute-force oracle for *every* matrix, threshold, and optimization
combination — no false positives, no false negatives.
"""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import mine
from repro.baselines.bruteforce import (
    implication_rules_bruteforce,
    similarity_rules_bruteforce,
)
from repro.core.dmc_imp import PruningOptions, find_implication_rules
from repro.core.dmc_sim import find_similarity_rules
from repro.core.miss_counting import BitmapConfig
from repro.matrix.binary_matrix import BinaryMatrix

# A compact matrix strategy: list of rows over a small column universe.
matrices = st.builds(
    lambda rows, m: BinaryMatrix(
        [[c for c in row if c < m] for row in rows], n_columns=m
    ),
    rows=st.lists(
        st.lists(st.integers(min_value=0, max_value=11), max_size=8),
        max_size=24,
    ),
    m=st.integers(min_value=1, max_value=12),
)

thresholds = st.fractions(
    min_value=Fraction(1, 10), max_value=Fraction(1), max_denominator=12
)

relaxed = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@relaxed
@given(matrix=matrices, threshold=thresholds)
def test_implication_exactness(matrix, threshold):
    """DMC-imp == oracle for any matrix and threshold."""
    got = find_implication_rules(matrix, threshold).pairs()
    want = implication_rules_bruteforce(matrix, threshold).pairs()
    assert got == want


@relaxed
@given(matrix=matrices, threshold=thresholds)
def test_similarity_exactness(matrix, threshold):
    """DMC-sim == oracle for any matrix and threshold."""
    got = find_similarity_rules(matrix, threshold).pairs()
    want = similarity_rules_bruteforce(matrix, threshold).pairs()
    assert got == want


@relaxed
@given(
    matrix=matrices,
    threshold=thresholds,
    switch_rows=st.integers(min_value=1, max_value=30),
)
def test_bitmap_switch_point_is_irrelevant(matrix, threshold, switch_rows):
    """Forcing the DMC-bitmap switch anywhere never changes the rules."""
    options = PruningOptions(
        bitmap=BitmapConfig(switch_rows=switch_rows, memory_budget_bytes=0)
    )
    got = find_implication_rules(matrix, threshold, options=options).pairs()
    want = implication_rules_bruteforce(matrix, threshold).pairs()
    assert got == want


@relaxed
@given(matrix=matrices, threshold=thresholds, seed=st.integers(0, 2**16))
def test_row_permutation_invariance(matrix, threshold, seed):
    """Mining is invariant under row permutation of the input."""
    import numpy as np

    rng = np.random.default_rng(seed)
    permutation = rng.permutation(matrix.n_rows)
    shuffled = matrix.select_rows([int(r) for r in permutation])
    assert (
        find_implication_rules(matrix, threshold).pairs()
        == find_implication_rules(shuffled, threshold).pairs()
    )


@relaxed
@given(matrix=matrices, threshold=thresholds)
def test_similarity_prunings_are_semantics_free(matrix, threshold):
    """Density and max-hits pruning change cost, never results."""
    baseline = find_similarity_rules(
        matrix,
        threshold,
        options=PruningOptions(
            density_pruning=False, max_hits_pruning=False
        ),
    ).pairs()
    pruned = find_similarity_rules(matrix, threshold).pairs()
    assert pruned == baseline


@relaxed
@given(
    matrix=matrices,
    low=thresholds,
    high=thresholds,
)
def test_threshold_monotonicity(matrix, low, high):
    """Raising the threshold can only shrink the rule set."""
    if low > high:
        low, high = high, low
    low_rules = find_implication_rules(matrix, low).pairs()
    high_rules = find_implication_rules(matrix, high).pairs()
    assert high_rules <= low_rules


@relaxed
@given(matrix=matrices, threshold=thresholds)
def test_rule_confidences_clear_threshold(matrix, threshold):
    """Every reported rule's exact confidence clears the threshold and
    matches a recount from the raw matrix."""
    sets = matrix.column_sets()
    for rule in find_implication_rules(matrix, threshold):
        assert rule.confidence >= threshold
        assert rule.hits == len(
            sets[rule.antecedent] & sets[rule.consequent]
        )
        assert rule.ones == len(sets[rule.antecedent])


@relaxed
@given(matrix=matrices, threshold=thresholds)
def test_similarity_symmetry_canonicalization(matrix, threshold):
    """Reported pairs are canonically ordered and their similarity is
    the true Jaccard value."""
    sets = matrix.column_sets()
    ones = matrix.column_ones()
    for rule in find_similarity_rules(matrix, threshold):
        assert (ones[rule.first], rule.first) < (
            ones[rule.second],
            rule.second,
        )
        union = sets[rule.first] | sets[rule.second]
        assert rule.similarity == Fraction(
            len(sets[rule.first] & sets[rule.second]), len(union)
        )


# ----------------------------------------------------------------------
# Engine conformance: every (engine, task) pair against the oracle
# ----------------------------------------------------------------------

#: Every engine configuration reachable through :func:`repro.mine`,
#: with the hypothesis example budget it gets (the spawn-pool cases pay
#: about a second of worker start-up per example).
ENGINE_CASES = {
    "dmc": (dict(engine="dmc"), 40),
    "vector": (dict(engine="vector", vector_block_rows=3), 40),
    "stream": (dict(engine="stream"), 30),
    "stream+vector": (
        dict(
            engine="stream",
            options=PruningOptions(scan_engine="vector"),
            vector_block_rows=3,
        ),
        30,
    ),
    "partitioned": (dict(engine="partitioned"), 40),
    "partitioned-pool": (dict(engine="partitioned", n_workers=2), 5),
    "partitioned+vector": (
        dict(
            engine="partitioned",
            options=PruningOptions(scan_engine="vector"),
        ),
        30,
    ),
    "auto": (dict(engine="auto"), 40),
    "auto-budget": (dict(engine="auto"), 40),
}

#: The cases whose carrier honours every :class:`PruningOptions`
#: toggle; each example draws a fresh set of toggles for them.
OPTION_CASES = frozenset(
    ("dmc", "vector", "stream", "stream+vector", "auto", "auto-budget")
)

ORACLES = {
    "implication": implication_rules_bruteforce,
    "similarity": similarity_rules_bruteforce,
}


@st.composite
def conformance_matrices(draw):
    """Matrices built column-first so the edge cases are easy to hit:
    zero columns, one row, empty columns, duplicate columns and
    all-ones columns, in any column order."""
    n_rows = draw(st.one_of(st.just(1), st.integers(0, 10)))
    row_ids = st.frozensets(
        st.integers(0, max(n_rows - 1, 0)), max_size=n_rows
    )
    columns = draw(st.lists(row_ids, max_size=7))
    extras = draw(
        st.lists(st.sampled_from(("empty", "ones", "duplicate")), max_size=3)
    )
    for extra in extras:
        if extra == "empty":
            columns.append(frozenset())
        elif extra == "ones":
            columns.append(frozenset(range(n_rows)))
        elif columns:
            columns.append(draw(st.sampled_from(columns)))
    columns = draw(st.permutations(columns))
    return BinaryMatrix.from_column_sets(columns, n_rows)


def boundary_thresholds(matrix):
    """Thresholds that sit exactly on a pair's confidence or similarity
    (as ``"p/q"`` strings), plus 1 and arbitrary small fractions."""
    sets = matrix.column_sets()
    exact = set()
    for i, left in enumerate(sets):
        for right in sets[i + 1:]:
            hits = len(left & right)
            if not hits:
                continue
            exact.add(Fraction(hits, len(left)))
            exact.add(Fraction(hits, len(right)))
            exact.add(Fraction(hits, len(left | right)))
    strategies = [st.just(Fraction(1)), thresholds]
    if exact:
        strategies.append(st.sampled_from(sorted(exact)))
    return st.one_of(*strategies).map(
        lambda value: f"{value.numerator}/{value.denominator}"
    )


@st.composite
def pruning_toggles(draw):
    """Every semantics-free :class:`PruningOptions` toggle, including a
    DMC-bitmap switch forced at an arbitrary row."""
    switch_rows = draw(st.one_of(st.none(), st.integers(1, 12)))
    return dict(
        hundred_percent_pass=draw(st.booleans()),
        density_pruning=draw(st.booleans()),
        max_hits_pruning=draw(st.booleans()),
        row_reordering=draw(st.booleans()),
        bitmap=None
        if switch_rows is None
        else BitmapConfig(switch_rows=switch_rows, memory_budget_bytes=0),
    )


@pytest.mark.parametrize("task", sorted(ORACLES))
@pytest.mark.parametrize("case", sorted(ENGINE_CASES))
def test_engine_conformance(case, task):
    """Every engine mines exactly the oracle's rules, for both tasks."""
    knobs, examples = ENGINE_CASES[case]

    @settings(
        max_examples=examples,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data(), matrix=conformance_matrices())
    def check(data, matrix):
        threshold = data.draw(boundary_thresholds(matrix), label="threshold")
        extra = {}
        if knobs.get("engine") == "partitioned":
            extra["n_partitions"] = data.draw(
                st.integers(2, 5), label="n_partitions"
            )
        if case == "auto-budget":
            extra["memory_budget"] = data.draw(
                st.sampled_from((1, 64, 1 << 20)), label="memory_budget"
            )
        if case in OPTION_CASES:
            extra["options"] = replace(
                knobs.get("options", PruningOptions()),
                **data.draw(pruning_toggles(), label="options"),
            )
        config = {**knobs, **extra}
        result = mine(matrix, task=task, threshold=threshold, **config)
        want = ORACLES[task](matrix, threshold)
        assert result.rules == want

    check()


@relaxed
@given(matrix=matrices)
def test_hundred_percent_rules_are_subset_relations(matrix):
    """A 100% rule i => j holds iff S_i is a subset of S_j."""
    sets = matrix.column_sets()
    rules = find_implication_rules(matrix, 1)
    for rule in rules:
        assert sets[rule.antecedent] <= sets[rule.consequent]
    # Completeness: every canonical non-empty subset pair is reported.
    from repro.core.rules import canonical_before

    ones = matrix.column_ones()
    for i in range(matrix.n_columns):
        if not sets[i]:
            continue
        for j in range(matrix.n_columns):
            if i == j or not canonical_before(ones[i], i, ones[j], j):
                continue
            if sets[i] <= sets[j]:
                assert (i, j) in rules.pairs()
