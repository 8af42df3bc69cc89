"""Exporting mined rules: text, CSV, and JSON serializations.

Rule sets survive a round trip through each format — the tests assert
it — so mined results can be archived and diffed across runs.  A JSON
export can additionally carry the run's
:class:`~repro.core.stats.PipelineStats` (``stats=``), so an archived
rule set keeps the provenance of how it was mined;
:func:`stats_to_json` / :func:`stats_from_json` round-trip the stats
on their own.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from typing import Optional

from repro.core.rules import ImplicationRule, RuleSet, SimilarityRule
from repro.core.stats import PipelineStats
from repro.matrix.binary_matrix import Vocabulary


def rules_to_text(
    rules: RuleSet, vocabulary: Optional[Vocabulary] = None
) -> str:
    """One formatted rule per line, in stable pair order."""
    return "\n".join(rule.format(vocabulary) for rule in rules.sorted())


def implication_rules_to_csv(rules: RuleSet, path: str) -> None:
    """Write implication rules as CSV with exact integer statistics."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["antecedent", "consequent", "hits", "ones"])
        for rule in rules.sorted():
            writer.writerow(
                [rule.antecedent, rule.consequent, rule.hits, rule.ones]
            )


def implication_rules_from_csv(path: str) -> RuleSet:
    """Read rules written by :func:`implication_rules_to_csv`."""
    rules = RuleSet()
    with open(path, "r", encoding="utf-8", newline="") as handle:
        for record in csv.DictReader(handle):
            rules.add(
                ImplicationRule(
                    antecedent=int(record["antecedent"]),
                    consequent=int(record["consequent"]),
                    hits=int(record["hits"]),
                    ones=int(record["ones"]),
                )
            )
    return rules


def similarity_rules_to_csv(rules: RuleSet, path: str) -> None:
    """Write similar pairs as CSV with exact integer statistics."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["first", "second", "intersection", "union"])
        for rule in rules.sorted():
            writer.writerow(
                [rule.first, rule.second, rule.intersection, rule.union]
            )


def similarity_rules_from_csv(path: str) -> RuleSet:
    """Read pairs written by :func:`similarity_rules_to_csv`."""
    rules = RuleSet()
    with open(path, "r", encoding="utf-8", newline="") as handle:
        for record in csv.DictReader(handle):
            rules.add(
                SimilarityRule(
                    first=int(record["first"]),
                    second=int(record["second"]),
                    intersection=int(record["intersection"]),
                    union=int(record["union"]),
                )
            )
    return rules


def rules_to_json(
    rules: RuleSet,
    vocabulary: Optional[Vocabulary] = None,
    stats: Optional[PipelineStats] = None,
) -> str:
    """Serialize a rule set (either kind) to a JSON document.

    Confidences/similarities are emitted as exact ``"p/q"`` strings in
    addition to the integer statistics.  When ``stats`` is given the
    document gains a ``"stats"`` key carrying the run's
    :class:`PipelineStats` (see :func:`stats_from_json`), so the export
    records how its rules were mined.
    """
    # The text is json.dumps(..., indent=2) of {"rules": [records],
    # "stats": ...}, laid out one record at a time: a whole-document
    # dumps holds a string per token (about 30 per rule) until its join:
    # a 16 MB traced peak for an 8k-rule export, against 4 MB here.
    quote = json.dumps
    parts = ['{\n  "rules": [']
    for rule in rules.sorted():
        if isinstance(rule, ImplicationRule):
            fields = [
                ('"kind"', '"implication"'),
                ('"antecedent"', str(rule.antecedent)),
                ('"consequent"', str(rule.consequent)),
                ('"hits"', str(rule.hits)),
                ('"ones"', str(rule.ones)),
                ('"confidence"', quote(str(rule.confidence))),
            ]
            labelled = (
                ('"antecedent_label"', rule.antecedent),
                ('"consequent_label"', rule.consequent),
            )
        else:
            fields = [
                ('"kind"', '"similarity"'),
                ('"first"', str(rule.first)),
                ('"second"', str(rule.second)),
                ('"intersection"', str(rule.intersection)),
                ('"union"', str(rule.union)),
                ('"similarity"', quote(str(rule.similarity))),
            ]
            labelled = (
                ('"first_label"', rule.first),
                ('"second_label"', rule.second),
            )
        if vocabulary is not None:
            fields.extend(
                (key, quote(vocabulary.label_of(column)))
                for key, column in labelled
            )
        parts.append(
            "\n    {\n      "
            + ",\n      ".join(f"{key}: {value}" for key, value in fields)
            + "\n    },"
        )
    if len(parts) > 1:
        parts[-1] = parts[-1][:-1] + "\n  ]"
    else:
        parts.append("]")
    if stats is not None:
        nested = json.dumps(stats.to_dict(), indent=2)
        parts.append(',\n  "stats": ' + nested.replace("\n", "\n  "))
    parts.append("\n}")
    return "".join(parts)


def rules_from_json(document: str) -> RuleSet:
    """Parse rules serialized by :func:`rules_to_json`.

    The exact-fraction fields are validated against the integer
    statistics on load.
    """
    rules = RuleSet()
    for record in json.loads(document)["rules"]:
        if record["kind"] == "implication":
            rule = ImplicationRule(
                antecedent=record["antecedent"],
                consequent=record["consequent"],
                hits=record["hits"],
                ones=record["ones"],
            )
            if Fraction(record["confidence"]) != rule.confidence:
                raise ValueError(
                    f"confidence mismatch for {rule.pair}: "
                    f"{record['confidence']}"
                )
        elif record["kind"] == "similarity":
            rule = SimilarityRule(
                first=record["first"],
                second=record["second"],
                intersection=record["intersection"],
                union=record["union"],
            )
            if Fraction(record["similarity"]) != rule.similarity:
                raise ValueError(
                    f"similarity mismatch for {rule.pair}: "
                    f"{record['similarity']}"
                )
        else:
            raise ValueError(f"unknown rule kind {record['kind']!r}")
        rules.add(rule)
    return rules


def stats_to_json(stats: PipelineStats) -> str:
    """Serialize a run's :class:`PipelineStats` to a JSON document."""
    return json.dumps(stats.to_dict(), indent=2)


def stats_from_json(document: str) -> PipelineStats:
    """Rebuild :class:`PipelineStats` from :func:`stats_to_json` output,
    or from the ``"stats"`` key of a :func:`rules_to_json` document."""
    payload = json.loads(document)
    if "stats" in payload and "rules" in payload:
        payload = payload["stats"]
    return PipelineStats.from_dict(payload)
