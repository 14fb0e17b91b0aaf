"""The proof principles: induction, coinduction and bounded coinduction.

``is_closed``, ``is_consistent`` and ``bounded_coinduction_check`` mechanize their
obligations for a candidate set, reporting per-judgment counterexamples and
witnesses; each is a question about membership in the set. Reports and proofs name
a rule by its index: the rules in declaration order, then the corules
(``InferenceSystem.rule_at``).
"""

from typing import Iterable, Mapping, Optional

from .inference import (InferenceSystem, InternalError, JudgmentSet, Value, _members, _set,
                        _tuple, _typed)

# Reason tags carried by CheckReport failures.
CLOSEDNESS = "closedness"
CONSISTENCY = "consistency"
BOUNDEDNESS = "boundedness"


class Failure(Value):
    """One violated proof obligation: which judgment, why, and through which rule.

    For a closedness failure ``rule`` is the index of the plain rule whose
    premises hold but whose conclusion is missing (``InferenceSystem.rule_at``
    gives the rule); for the other reasons it is None.
    """

    __slots__ = __match_args__ = ("judgment", "reason", "rule")

    def __init__(self, judgment: int, reason: str, rule: Optional[int] = None):
        _set(self, "judgment", judgment)
        _set(self, "reason", reason)
        _set(self, "rule", rule)


_NEW_DICT = object()  # CheckReport's default witnesses: a new empty dict


class CheckReport(Value):
    """Outcome of a principle check.

    ``witnesses`` maps each consistent judgment, ascending, to the index of
    the first declared rule that concludes it from premises inside the
    checked set.
    """

    __slots__ = __match_args__ = ("failures", "witnesses")

    def __init__(self, failures: Iterable[Failure] = (),
                 witnesses: Mapping[int, int] = _NEW_DICT):
        _set(self, "failures", _tuple(failures, "failures"))
        for f in self.failures:
            _typed(f, (Failure,), "a failure in failures")
        _set(self, "witnesses", {} if witnesses is _NEW_DICT else witnesses)

    @property
    def ok(self) -> bool:
        """Whether the check passed: there are no failures."""
        return not self.failures

    def failures_tagged(self, reason: str) -> tuple[Failure, ...]:
        return tuple(f for f in self.failures if f.reason == reason)


def is_closed(system: InferenceSystem, s: JudgmentSet) -> CheckReport:
    """Check the induction obligation: every applicable rule concludes in ``s``.

    Each failure names the conclusion that is missing and the index of the
    rule that derives it, in ascending judgment order then rule order.
    """
    inside = _members(s, _typed(system, (InferenceSystem,), "system").universe_size, "s")
    heads = system._heads
    hits = [i for i in range(system._plain)
            if heads[i] not in inside and inside.issuperset(system._premises(i))]
    hits.sort(key=heads.__getitem__)  # stable: rules of one judgment stay in order
    return CheckReport._valid(tuple([Failure(heads[i], CLOSEDNESS, i) for i in hits]), {})


def is_consistent(system: InferenceSystem, s: JudgmentSet) -> CheckReport:
    """Check the coinduction obligation: every member of ``s`` is concluded
    by some rule whose premises lie in ``s``.

    Witnesses record, for each member, the index of the first such rule in
    declaration order. Corules never count.
    """
    inside = _members(s, _typed(system, (InferenceSystem,), "system").universe_size, "s")
    heads, premises = system._heads, system._premises
    first: dict[int, int] = {}  # per member, the first rule that concludes it from inside
    for i in range(system._plain):
        c = heads[i]
        if c in inside and c not in first and inside.issuperset(premises(i)):
            first[c] = i
    failures = [Failure(j, CONSISTENCY, None) for j in sorted(inside.difference(first))]
    return CheckReport._valid(tuple(failures), {j: first[j] for j in sorted(first)})


def bounded_coinduction_check(system: InferenceSystem, spec: JudgmentSet) -> CheckReport:
    """Check the bounded coinduction obligations for ``spec``.

    Two sub-checks, distinguishable by failure reason tag:

    * boundedness: every judgment of ``spec`` is inductively derivable once
      corules are admitted (failures are tagged ``BOUNDEDNESS``);
    * consistency: ``spec`` is consistent with respect to the rules alone
      (failures are tagged ``CONSISTENCY``, witnesses as in
      ``is_consistent``).

    When both pass, ``spec`` is contained in the generated interpretation;
    this inclusion is verified before returning.
    """
    inside = _members(spec, _typed(system, (InferenceSystem,), "system").universe_size, "spec")
    firing = system._bound[0]
    failures = [Failure(j, BOUNDEDNESS, None) for j in inside if firing[j] is None]
    consistency = is_consistent(system, spec)
    failures.extend(consistency.failures)
    failures.sort(key=lambda f: (f.judgment, f.reason))
    if not failures and not system._gen[0].issuperset(inside):
        raise InternalError("bounded and consistent spec escaped the generated interpretation")
    return CheckReport._valid(tuple(failures), consistency.witnesses)
