"""Rule serialization (repro.mining.export)."""

import pytest

from repro.baselines.bruteforce import (
    implication_rules_bruteforce,
    similarity_rules_bruteforce,
)
from repro.core.rules import ImplicationRule, RuleSet
from repro.matrix.binary_matrix import Vocabulary
from repro.mining.export import (
    implication_rules_from_csv,
    implication_rules_to_csv,
    rules_from_json,
    rules_to_json,
    rules_to_text,
    similarity_rules_from_csv,
    similarity_rules_to_csv,
)
from tests.conftest import random_binary_matrix


class TestText:
    def test_one_line_per_rule_sorted(self):
        rules = RuleSet(
            [
                ImplicationRule(2, 3, 1, 1),
                ImplicationRule(0, 1, 1, 2),
            ]
        )
        lines = rules_to_text(rules).splitlines()
        assert lines == ["c0 -> c1 (0.500)", "c2 -> c3 (1.000)"]

    def test_labels_used_when_available(self):
        rules = RuleSet([ImplicationRule(0, 1, 1, 1)])
        vocabulary = Vocabulary(["jam", "butter"])
        assert rules_to_text(rules, vocabulary) == "jam -> butter (1.000)"


class TestCsvRoundTrip:
    def test_implication(self, tmp_path):
        matrix = random_binary_matrix(3)
        rules = implication_rules_bruteforce(matrix, 0.6)
        path = str(tmp_path / "rules.csv")
        implication_rules_to_csv(rules, path)
        assert implication_rules_from_csv(path) == rules

    def test_similarity(self, tmp_path):
        matrix = random_binary_matrix(4)
        rules = similarity_rules_bruteforce(matrix, 0.4)
        path = str(tmp_path / "pairs.csv")
        similarity_rules_to_csv(rules, path)
        assert similarity_rules_from_csv(path) == rules

    def test_empty_rule_set(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        implication_rules_to_csv(RuleSet(), path)
        assert len(implication_rules_from_csv(path)) == 0


class TestJsonRoundTrip:
    def test_implication(self):
        matrix = random_binary_matrix(5)
        rules = implication_rules_bruteforce(matrix, 0.7)
        assert rules_from_json(rules_to_json(rules)) == rules

    def test_similarity(self):
        matrix = random_binary_matrix(6)
        rules = similarity_rules_bruteforce(matrix, 0.5)
        assert rules_from_json(rules_to_json(rules)) == rules

    def test_labels_embedded(self):
        rules = RuleSet([ImplicationRule(0, 1, 1, 1)])
        vocabulary = Vocabulary(["jam", "butter"])
        document = rules_to_json(rules, vocabulary)
        assert '"antecedent_label": "jam"' in document

    def test_tampered_confidence_rejected(self):
        rules = RuleSet([ImplicationRule(0, 1, 1, 2)])
        document = rules_to_json(rules).replace("1/2", "3/4")
        with pytest.raises(ValueError):
            rules_from_json(document)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            rules_from_json('{"rules": [{"kind": "bogus"}]}')

    @pytest.mark.parametrize("with_stats", (False, True))
    def test_layout_is_indented_json(self, with_stats):
        """The record-at-a-time writer lays the document out exactly as
        ``json.dumps(..., indent=2)`` would, escapes and all."""
        import json

        import repro

        transactions = [
            ['jam "x"', "butter\n"],
            ['jam "x"', "butter\n", "caf\u00e9"],
            ["caf\u00e9", "tea"],
            ["tea"],
        ]
        for task, threshold in (("implication", 0.5), ("similarity", 0.3)):
            result = repro.mine(transactions, task=task, threshold=threshold)
            stats = result.stats if with_stats else None
            for vocabulary in (None, result.vocabulary):
                text = rules_to_json(result.rules, vocabulary, stats)
                assert text == json.dumps(json.loads(text), indent=2)
        empty = {"rules": []}
        assert rules_to_json(RuleSet()) == json.dumps(empty, indent=2)

    def test_exact_fractions_survive(self):
        rules = RuleSet([ImplicationRule(0, 1, hits=1, ones=3)])
        loaded = rules_from_json(rules_to_json(rules))
        from fractions import Fraction

        assert loaded[(0, 1)].confidence == Fraction(1, 3)
