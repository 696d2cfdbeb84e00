"""Static signature rules: the traditional baseline the adaptive loop is measured against.

Each rule compares one named raw feature against a threshold; the first
matching rule decides the label, and a window matching nothing is benign.
Rules live in a packaged JSON document rather than code so the baseline is
auditable and swappable.
"""

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from .detector import ThreatVerdict, verdict
from .errors import InputError
from .features import FeatureLayout
from .files import read_json
from .telemetry import LABELS

_OPS = {
    ">=": lambda v, t: v >= t,
    "<=": lambda v, t: v <= t,
    ">": lambda v, t: v > t,
    "<": lambda v, t: v < t,
}


@dataclass(frozen=True)
class Rule:
    """First-match signature: one feature, one comparison, one label."""

    label: str
    feature: str
    op: str
    threshold: float

    def __post_init__(self):
        if self.label not in LABELS:
            raise InputError(f"rule labels a class outside the label set: "
                             f"{self.label!r}")
        if self.op not in _OPS:
            raise InputError(f"unknown rule operator {self.op!r}")

    def matches(self, value):
        """Whether the rule fires, elementwise on an array of values."""
        return _OPS[self.op](value, self.threshold)


class RuleBasedDetector:
    """Orders rules, resolves feature names once per layout, emits verdicts."""

    def __init__(self, rules: tuple, layout: FeatureLayout):
        self.rules = tuple(rules)
        self.layout = layout
        self._indices = [layout.index_of(r.feature) for r in self.rules]
        # label per column of classify_batch's hit matrix; the last is benign
        self._labels = np.array([LABELS.index(r.label) for r in self.rules]
                                + [LABELS.index("benign")])

    def classify(self, raw_features: np.ndarray) -> ThreatVerdict:
        """First matching rule wins; no match means benign."""
        raw_features = np.asarray(raw_features, dtype=np.float64)
        if raw_features.shape != (self.layout.dim,):
            raise InputError(
                f"feature vector shape {raw_features.shape} does not match "
                f"layout dimension {self.layout.dim}"
            )
        return verdict(self.classify_batch(raw_features[None]).probabilities[0], 1.0)

    def classify_batch(self, raw: np.ndarray) -> ThreatVerdict:
        """``classify`` on every row of ``[N, D]`` raw features at once, as
        one verdict of ``[N]`` arrays.

        Column r of the hit matrix says whether rule r fires; a last,
        always-true column stands for benign, so the first hit per row is
        its argmax. Rule verdicts are one-hot and always confident: a
        signature either fires or it does not, there is no probability mass
        to threshold.
        """
        raw = np.asarray(raw, dtype=np.float64)
        if raw.ndim != 2 or raw.shape[1] != self.layout.dim:
            raise InputError(
                f"feature matrix shape {raw.shape} does not match "
                f"[N, {self.layout.dim}]"
            )
        hits = np.ones((len(raw), len(self.rules) + 1), dtype=bool)
        for r, (rule, idx) in enumerate(zip(self.rules, self._indices)):
            hits[:, r] = rule.matches(raw[:, idx])
        return verdict(np.eye(len(LABELS))[self._labels[hits.argmax(axis=1)]], 1.0)


def parse_rules(doc: dict) -> tuple[Rule, ...]:
    if not isinstance(doc, dict) or not isinstance(doc.get("rules"), list):
        raise InputError("rule document must be an object with a 'rules' list")
    out = []
    for entry in doc["rules"]:
        try:
            threshold = float(entry["threshold"])  # a number or a numeric string
            if threshold != threshold or isinstance(entry["threshold"], bool):
                raise ValueError("a NaN threshold never fires, and a bool is not a number")
            if not isinstance(entry["feature"], str):
                raise TypeError("a rule's feature is a feature name")
            out.append(Rule(label=entry["label"], feature=entry["feature"],
                            op=entry["op"], threshold=threshold))
        except InputError:
            raise  # the rule's own check, which says what is wrong
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed rule entry: {entry!r}") from exc
    return tuple(out)


def load_rules(path) -> tuple[Rule, ...]:
    return parse_rules(read_json(path, InputError, "rule file"))


@lru_cache(maxsize=1)
def default_rules() -> tuple[Rule, ...]:
    """The packaged signature set."""
    ref = resources.files("cloudguard").joinpath("data/baseline_rules.json")
    with resources.as_file(ref) as path:
        return load_rules(path)
