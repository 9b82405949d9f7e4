"""The calculus's specification, kept apart from the package that runs it.

Tests compare the package against these definitions: the CSV oracle against
`value_matches`, and the kernel's intervention cut against a generic cut of
the intervention axiom. No proof uses either rule, so neither ships in the
trusted kernel.
"""

from fractions import Fraction

from cfcheck import (
    Atom,
    AttrItem,
    Attribution,
    Complement,
    InterventionExpr,
    InterventionItem,
    Judgment,
    RuleError,
    Sum,
)
from cfcheck.model import ValueTerm


def value_matches(term: ValueTerm, observed: str) -> bool:
    """Decide whether an observed atomic token satisfies a value term.

    An atom matches itself, a sum matches if any member does, and a
    complement matches if its inner term does not.
    """
    if isinstance(term, Atom):
        return term.token == observed
    if isinstance(term, Sum):
        return any(value_matches(m, observed) for m in term.members)
    if isinstance(term, Complement):
        return not value_matches(term.inner, observed)
    raise TypeError(f"not a value term: {term!r}")


def intervention_axiom(e: InterventionExpr) -> Judgment:
    """The intervened variable receives the imposed value with certainty."""
    return Judgment(
        (InterventionItem(e),), e.intervention.var, e.intervention.value, Fraction(1)
    )


def generic_cut(left: Judgment, right: Judgment) -> Judgment:
    """Cut a certainty premise against a matching loose attribution."""
    if left.prob != 1:
        raise RuleError("cut-premise-not-certain", f"left premise has probability {left.prob}")
    try:
        rest = right.erase(AttrItem(Attribution(left.target, left.value)))
    except ValueError:
        raise RuleError(
            "cut-attribution-missing",
            f"right context lacks {left.target}={left.value}",
        )
    if left.intervention_item() is not None and right.intervention_item() is not None:
        raise RuleError(
            "two-interventions", "both premises carry an intervention expression"
        )
    return Judgment(left.context + rest.context, right.target, right.value, right.prob)
