"""Judgments made by `Judgment.erase`, the successor constructor of the cut
rules, against the same contexts built through the public constructor; and
the cost guarantees of deriving and replaying a proof."""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cfcheck import (
    Atom,
    AttrItem,
    Attribution,
    CausalGraph,
    DataPoint,
    EdgeItem,
    Intervention,
    InterventionExpr,
    InterventionItem,
    Judgment,
    Proof,
    ProofCheck,
    RuleId,
    check_proof,
    derive_counterfactual,
)
from cfcheck import kernel
from cfcheck.dsl import parse_proof, render_judgment, render_proof
from cfcheck.engine import Case, candidate_judgment, reduced_point, verify_candidate
from conftest import random_dag, replayed_conclusions

SEEDS = st.integers(0, 2**32 - 1)


def _without_first(context: tuple, item) -> tuple:
    out = list(context)
    out.remove(item)
    return tuple(out)


def _rebuilt(j: Judgment) -> Judgment:
    return Judgment(j.context, j.target, j.value, j.prob)


def _random_case(rng: random.Random):
    """A case on a random DAG whose target is a node outside the factual point."""
    while True:
        g = random_dag(rng, max_nodes=8)
        nodes = sorted(g.nodes)
        if len(nodes) >= 2:
            break
    target = rng.choice(nodes)
    others = [n for n in nodes if n != target]
    factual = DataPoint(
        tuple(Attribution(v, Atom(rng.choice("xy"))) for v in others if rng.random() < 0.7)
    )
    intervention = Intervention(rng.choice(others), Atom("w"))
    return Case(g, factual, intervention, target, Atom("yes"))


def _items_with_duplicates(rng: random.Random, items: list, copyable: list) -> list:
    """`items` plus random copies of `copyable` ones, shuffled."""
    out = items + [rng.choice(copyable) for _ in range(rng.randint(0, len(copyable)))]
    rng.shuffle(out)
    return out


@settings(max_examples=200, deadline=None)
@given(SEEDS)
def test_erase_agrees_with_the_public_constructor(seed):
    rng = random.Random(seed)
    case = _random_case(rng)
    expr = case.intervention_expr()
    iv = case.intervention
    pool = [EdgeItem(s, d) for s, d in sorted(case.graph.edges)]
    pool += [AttrItem(a) for a in case.factual] + [AttrItem(Attribution(iv.var, iv.value))]
    context = _items_with_duplicates(rng, pool + [InterventionItem(expr)], pool)
    j = Judgment(tuple(context), case.target, case.target_value, Fraction(rng.randint(0, 4), 4))
    order = list(context)
    rng.shuffle(order)

    other = Judgment(tuple(context[:-1]) + (EdgeItem("zz", "zz"),), j.target, j.value, j.prob)
    assert other != j and j != other  # as long, one item apart
    twin = Judgment(tuple(list(context)), j.target, j.value, j.prob)  # an equal, distinct tuple
    assert twin.context is not j.context
    erased, built = j, j
    for item in order:
        erased, twin = erased.erase(item), twin.erase(item)
        built = Judgment(_without_first(built.context, item), j.target, j.value, j.prob)
        permuted = list(built.context)
        rng.shuffle(permuted)
        permuted = Judgment(tuple(permuted), j.target, j.value, j.prob)
        assert erased.context == built.context
        assert erased == built and built == erased
        assert erased == permuted and permuted == erased
        assert hash(erased) == hash(built) == hash(permuted)
        assert render_judgment(erased) == render_judgment(built)
        assert erased.intervention_item() == built.intervention_item()
        # a chain erased from an equal root: equal after every step
        assert twin == erased and erased == twin and twin.context == built.context
    assert erased.context == ()
    with pytest.raises(ValueError):
        erased.erase(order[0])


@settings(max_examples=100, deadline=None)
@given(SEEDS)
def test_check_proof_agrees_on_erased_and_constructed_conclusions(seed):
    rng = random.Random(seed)
    case = _random_case(rng)
    sigma = reduced_point(case)
    honest = candidate_judgment(case, sigma, Fraction(1, 3))
    # every copy of an edge or a factual attribution is cut; a second copy of
    # the imposed attribution is not, so that one is not copied
    imposed = AttrItem(Attribution(case.intervention.var, case.intervention.value))
    copyable = [i for i in honest.context if i != imposed]
    context = _items_with_duplicates(rng, list(honest.context), copyable)
    candidate = Judgment(tuple(context), honest.target, honest.value, honest.prob)
    proof = verify_candidate(case, candidate)
    assert isinstance(proof, Proof)
    # every conclusion recorded: as the cut rules erase them, and rebuilt
    conclusions = replayed_conclusions(proof)

    def recording(conclusions):
        steps = (dataclasses.replace(s, conclusion=c) for s, c in zip(proof.steps, conclusions))
        return Proof(proof.assumptions, tuple(steps))

    proof, rebuilt = recording(conclusions), recording(map(_rebuilt, conclusions))
    assert check_proof(proof) == check_proof(rebuilt) == ProofCheck(True)

    # the certified conclusion forged to another expression of the same size
    other = InterventionExpr(case.graph, case.factual, Intervention(case.intervention.var, Atom("v")))
    forged = Judgment((InterventionItem(other),), honest.target, honest.value, honest.prob)
    for p in (proof, rebuilt):
        result = check_proof(_with_step(p, len(p.steps) - 1, conclusion=forged))
        assert result.code == "conclusion-mismatch"

    # one step forged the same way in both: the same verdict
    k = rng.randrange(len(proof.steps))
    forged_item = {"item": rng.choice([s.item for s in proof.steps] + [None])}
    forged_prob = {"conclusion": Judgment(context, case.target, case.target_value, Fraction(1, 2))}
    for changes in (forged_item, forged_prob):
        assert check_proof(_with_step(proof, k, **changes)) == check_proof(
            _with_step(rebuilt, k, **changes)
        )


def _with_step(proof: Proof, k: int, **changes) -> Proof:
    steps = proof.steps[:k] + (dataclasses.replace(proof.steps[k], **changes),) + proof.steps[k + 1 :]
    return Proof(proof.assumptions, steps)


def roadmap_case(n: int) -> Case:
    """The scaling generator: edges vi -> vj for j in i+1..i+5 at probability
    0.6, intervention on v{n/2}, every node but the last attributed, and the
    last node the target."""
    rng = random.Random(n)
    nodes = [f"v{i}" for i in range(n)]
    edges = {
        (nodes[i], nodes[j])
        for i in range(n)
        for j in range(i + 1, min(n, i + 6))
        if rng.random() < 0.6
    }
    factual = DataPoint(tuple(Attribution(v, Atom("a")) for v in nodes[:-1]))
    graph = CausalGraph(frozenset(nodes), frozenset(edges))
    return Case(graph, factual, Intervention(nodes[n // 2], Atom("b")), nodes[-1], Atom("yes"))


class ConstOracle:
    def query(self, q):
        return Fraction(1, 2)


def test_derive_and_replay_compute_each_blocked_set_once_and_validate_no_cut(monkeypatch):
    blocked_sets, validated_in_cut, cuts, depth = [], [0], [0], [0]
    descendants = kernel.descendants
    monkeypatch.setattr(
        kernel, "descendants", lambda g, a: blocked_sets.append(a) or descendants(g, a)
    )
    post_init = Judgment.__post_init__

    def counting_post_init(self):
        validated_in_cut[0] += depth[0] > 0
        post_init(self)

    monkeypatch.setattr(Judgment, "__post_init__", counting_post_init)
    for name in ("apply_i_cut", "apply_tri_cut", "apply_v_cut"):
        rule = getattr(kernel, name)

        def counting_rule(*args, _rule=rule):
            cuts[0] += 1
            depth[0] += 1
            try:
                return _rule(*args)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(kernel, name, counting_rule)

    case = roadmap_case(200)
    _, proof = derive_counterfactual(case, ConstOracle())
    assert check_proof(proof).ok
    weakenings = [s.item.expr for s in proof.steps if s.rule is RuleId.WEAKENING]
    assert all(e is case.intervention_expr() for e in weakenings)
    # the reduced point, every value cut of the derivation and of the replay
    # share one intervention expression object, hence one blocked set
    assert blocked_sets == [case.intervention.var]
    assert cuts[0] == 2 * (len(proof.steps) - len(weakenings)) > 1000
    assert validated_in_cut[0] == 0


@pytest.mark.parametrize("n", [100, 400])
def test_replaying_a_derived_proof_compares_one_judgment(monkeypatch, n):
    # a derived proof records only the judgment it certifies, in memory as in
    # its file, so replay compares that one and derives every other step's
    calls = [0]
    eq = Judgment.__eq__

    def counting_eq(self, other):
        calls[0] += 1
        return eq(self, other)

    monkeypatch.setattr(Judgment, "__eq__", counting_eq)
    _, proof = derive_counterfactual(roadmap_case(n), ConstOracle())
    parsed = parse_proof(render_proof(proof))
    assert len(proof.steps) > n
    for p in (proof, parsed):
        calls[0] = 0
        assert check_proof(p).ok
        assert calls[0] == 1
