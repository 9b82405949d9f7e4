"""Surface syntax: parsing and pretty-printing of case files, graphs,
judgments, judgment databases and serialized proofs.

Tokens keep their source offsets, and a span's line and column are counted
only when an error is raised, so every error points at the offending text.
Rendering is canonical (intervention item first, edges sorted, attributions
in stored order), and parse(render(x)) == x for every well-formed value.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .kernel import Proof, ProofStep, RuleId
from .model import (
    Atom,
    AttrItem,
    Attribution,
    Case,
    CausalGraph,
    Complement,
    ContextItem,
    DataPoint,
    EdgeItem,
    GraphCycle,
    Intervention,
    InterventionExpr,
    InterventionItem,
    InvalidModel,
    Judgment,
    Sum,
    TOKEN_PATTERN,
    ValueTerm,
    check_probability,
    render_valueterm,
    variables_of,
)

MAX_FRACTION_DIGITS = 6
MAX_TERM_NESTING = 100  # `!` and `(` levels in one value term; deeper input is refused


@dataclass(frozen=True)
class SourceSpan:
    line: int
    column: int
    length: int


class ParseError(Exception):
    def __init__(self, span: SourceSpan, expected: str, found: str):
        self.span = span
        self.expected = expected
        self.found = found
        super().__init__(f"{span.line}:{span.column}: expected {expected}, found {found}")


# ---------------------------------------------------------------------------
# Tokenizer.

# One lexeme per match, after any whitespace: a word (the model's token rule,
# so every word is a valid token), punctuation, a comment, or one character
# that starts no lexeme.
_LEXEME_RE = re.compile(
    rf"\s*(?:(?P<word>{TOKEN_PATTERN})|(?P<punct>->|\|-|[{{}}()\[\];,=+!@/])"
    r"|#[^\n]*|(?P<bad>.)|\Z)"
)


# (kind, text, start): a plain tuple read by index, built without a Python-level
# constructor. Kind is "word", "eof", "bad" or the punctuation; start, the offset.
Token = tuple[str, str, int]


def tokenize(text: str) -> list[Token]:
    """The tokens of `text`, ending at `eof` or at the first `bad` character."""
    toks: list[Token] = []
    for m in _LEXEME_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:  # a comment, or blanks at the end
            continue
        lexeme = m.group(kind)
        toks.append((lexeme if kind == "punct" else kind, lexeme, m.start(kind)))
        if kind == "bad":
            return toks
    toks.append(("eof", "", len(text)))
    return toks


# ---------------------------------------------------------------------------
# Probability literals.


def render_probability(p: Fraction) -> str:
    if p.denominator == 1:
        return str(p.numerator)
    for k in range(1, MAX_FRACTION_DIGITS + 1):
        scaled = p * 10**k
        if scaled.denominator == 1:
            whole, frac = divmod(scaled.numerator, 10**k)
            return f"{whole}.{frac:0{k}d}"
    return f"{p.numerator}/{p.denominator}"


def parse_probability_literal(text: str) -> Fraction:
    """Parse a standalone probability: a decimal or a `num/den` rational."""
    return _parse_all(text, _Parser.probability, "end of probability")


# ---------------------------------------------------------------------------
# Recursive-descent parser.

_Item = Union[tuple[str, str], Attribution, str]  # an edge, an attribution or a bare node


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = tokenize(text)
        self.i = 0
        # where each attributed or intervened variable, and each edge, was last read
        self.seen: dict[Union[str, tuple[str, str]], Token] = {}
        if self.toks[-1][0] == "bad":  # before any other error in the text
            self.error("a token", self.toks[-1])

    def peek(self) -> Token:
        return self.toks[self.i]  # advance never moves past eof

    def advance(self) -> Token:
        t = self.toks[self.i]
        if t[0] != "eof":
            self.i += 1
        return t

    def at(self, kind: str) -> bool:
        return self.toks[self.i][0] == kind

    def error(self, expected: str, tok: Optional[Token] = None, found: Optional[str] = None):
        """Raise a ParseError at `tok`, the next token by default."""
        kind, text, start = tok or self.toks[self.i]
        if found is None:
            found = repr(text) if kind != "eof" else "end of input"
        line = self.text.count("\n", 0, start) + 1
        column = start - self.text.rfind("\n", 0, start)
        raise ParseError(SourceSpan(line, column, max(len(text), 1)), expected, found)

    def expect(self, kind: str, expected: Optional[str] = None) -> Token:
        if self.toks[self.i][0] != kind:
            self.error(expected or f"'{kind}'")
        return self.advance()

    def keyword(self, name: str) -> None:
        tok = self.expect("word", f"'{name}'")
        if tok[1] != name:
            self.error(f"'{name}'", tok)

    # -- value terms ------------------------------------------------------

    def valueterm(self, depth: int = 0) -> ValueTerm:
        start = self.peek()
        members = [self.term(depth)]
        while self.at("+"):
            self.advance()
            members.append(self.term(depth))
        if len(members) == 1:
            return members[0]
        try:
            return Sum(tuple(members))
        except InvalidModel as e:
            self.error("distinct sum members", start, str(e))

    def term(self, depth: int) -> ValueTerm:
        if self.at("!") or self.at("("):
            if depth == MAX_TERM_NESTING:
                self.error(f"at most {MAX_TERM_NESTING} nested '!' and '('")
            if self.advance()[0] == "!":
                return Complement(self.term(depth + 1))
            t = self.valueterm(depth + 1)
            self.expect(")")
            return t
        return Atom(self.expect("word", "a value term")[1])

    # -- probabilities ----------------------------------------------------

    def probability(self) -> Fraction:
        tok = self.expect("word", "a probability")
        if self.at("/"):
            self.advance()
            den = self.expect("word", "a denominator")
            for part in (tok, den):
                if not part[1].isdigit():
                    self.error("an integer rational", part)
            try:
                num = self.numeral(tok, tok[1])
                return check_probability(Fraction(num, self.numeral(den, den[1])))
            except (ZeroDivisionError, InvalidModel):
                self.error("a probability in [0, 1]", tok, repr(f"{tok[1]}/{den[1]}"))
        return self.decimal(tok)

    def decimal(self, tok: Token) -> Fraction:
        whole, dot, frac = tok[1].partition(".")
        if not whole.isdigit() or (dot and not frac.isdigit()):
            self.error("a decimal probability", tok)
        if len(frac) > MAX_FRACTION_DIGITS:
            self.error(f"at most {MAX_FRACTION_DIGITS} fractional digits", tok)
        value = Fraction(self.numeral(tok, whole))
        if frac:
            value += Fraction(int(frac), 10 ** len(frac))
        if value > 1:
            self.error("a probability in [0, 1]", tok)
        return value

    def numeral(self, tok: Token, digits: str) -> int:
        try:
            return int(digits)
        except ValueError:  # longer than the interpreter's int() digit limit
            self.error(f"at most {sys.get_int_max_str_digits()} digits", tok, str(len(digits)))

    # -- items, interventions and lists ---------------------------------------

    def item(self, expected: str, *, edge=False, attr=True, node=False) -> _Item:
        """An edge `NAME -> NAME` (as a pair), an attribution `NAME = term` or
        a bare node `NAME` (as its name), as the caller allows. A name that
        starts no edge must start an attribution unless a bare node is allowed."""
        name = self.expect("word", expected)
        if edge and self.at("->"):
            self.advance()
            pair = (name[1], self.expect("word", "an edge target")[1])
            self.seen[pair] = name
            return pair
        if attr and (not node or self.at("=")):
            self.seen[name[1]] = name
            self.expect("=")
            return Attribution(name[1], self.valueterm())
        return name[1]

    def intervention(self) -> Intervention:
        """`NAME = NAME`: an atomic value imposed on a variable."""
        var = self.expect("word", "the intervention variable")
        self.seen[var[1]] = var
        self.expect("=")
        return Intervention(var[1], Atom(self.expect("word", "an atomic value")[1]))

    def separated(self, entry, end: str) -> list:
        """Entries read by `entry` with `,` between them, then `end`."""
        out = [] if self.at(end) else [entry()]
        while self.at(","):
            self.advance()
            out.append(entry())
        self.expect(end)
        return out

    def terminated(self, entry, end: str) -> list:
        """Entries read by `entry`, each followed by `;`, then `end`."""
        out = []
        while not self.at(end):
            out.append(entry())
            self.expect(";")
        self.expect(end)
        return out

    # -- context items and judgments -----------------------------------------

    def bracket_expr(self) -> InterventionExpr:
        """`[` edges, bare nodes and attributions `] I(var=value)`."""
        open_tok = self.expect("[")
        items = self.separated(
            lambda: self.item("an edge, node or attribution", edge=True, node=True), "]"
        )
        self.keyword("I")
        self.expect("(")
        intervention = self.intervention()
        self.expect(")")
        try:
            graph = _graph(items + [intervention.var])
            attrs = DataPoint(tuple(i for i in items if isinstance(i, Attribution)))
            return InterventionExpr(graph, attrs, intervention)
        except InvalidModel as e:
            self.error("a well-formed intervention expression", open_tok, str(e))

    def context_item(self) -> ContextItem:
        if self.at("["):
            return InterventionItem(self.bracket_expr())
        item = self.item("a context item", edge=True)
        return AttrItem(item) if isinstance(item, Attribution) else EdgeItem(*item)

    def judgment(self, context: Optional[list] = None) -> Judgment:
        """A judgment, or what follows its `|-` when its `context` is given."""
        start = self.peek()
        context = context or self.separated(self.context_item, "|-")
        conclusion = self.item("a target variable")
        self.expect("@")
        prob = self.probability()
        try:
            return Judgment(tuple(context), conclusion.var, conclusion.value, prob)
        except InvalidModel as e:
            self.error("a well-formed judgment", start, str(e))

    # -- case files -----------------------------------------------------------

    def graph_block(self) -> CausalGraph:
        self.keyword("graph")
        self.expect("{")
        items = self.terminated(
            lambda: self.item("a node or edge", edge=True, attr=False, node=True), "}"
        )
        try:
            return _graph(items)
        except GraphCycle as e:
            tokens = [self.seen[edge] for edge in zip(e.cycle, e.cycle[1:])]
            self.error("an acyclic graph", max(tokens, key=lambda t: t[2]), str(e))

    def attr_block(self, name: str) -> DataPoint:
        self.keyword(name)
        self.expect("{")
        return DataPoint(tuple(self.terminated(lambda: self.item("a variable name"), "}")))

    def case(self, graph: CausalGraph) -> Case:
        """The rest of a case file; an error points at its variable's latest occurrence."""
        try:
            factual = self.attr_block("factual")

            self.keyword("intervene")
            intervention = self.intervention()
            self.expect(";")

            self.keyword("target")
            target = self.item("the target variable")
            self.expect(";")

            candidate = self.attr_block("candidate") if self.peek()[1] == "candidate" else None

            prob = None
            if self.peek()[1] == "factual_prob":
                self.advance()
                prob = self.decimal(self.expect("word", "a decimal probability"))
                self.expect(";")

            self.expect("eof", "end of case file")
            return Case(graph, factual, intervention, target.var, target.value, prob, candidate)
        except InvalidModel as e:
            self.error("a well-formed case", self.seen[e.var], str(e))


def _graph(items: list[_Item]) -> CausalGraph:
    """The graph that edges, bare nodes and attributions state: their edges,
    and every variable they name as a node."""
    edges = frozenset(i for i in items if isinstance(i, tuple))
    nodes = {i for i in items if isinstance(i, str)}
    nodes.update(i.var for i in items if isinstance(i, Attribution))
    return CausalGraph(frozenset(nodes.union(*edges)), edges)


# ---------------------------------------------------------------------------
# Public parse entry points.


def _parse_all(text: str, rule, what: str):
    """Parse the whole of `text` with one parser rule."""
    p = _Parser(text)
    result = rule(p)
    p.expect("eof", what)
    return result


def parse_case(text: str) -> Case:
    p = _Parser(text)
    return p.case(p.graph_block())


def parse_case_or_graph(text: str) -> Union[Case, CausalGraph]:
    """Parse either a full case file or a bare graph block."""
    p = _Parser(text)
    g = p.graph_block()
    return g if p.at("eof") else p.case(g)


def parse_judgment(text: str) -> Judgment:
    return _parse_all(text, _Parser.judgment, "end of judgment")


def parse_judgment_db(text: str) -> list[Judgment]:
    """Parse a judgment database: judgments separated by `;`."""
    p = _Parser(text)
    return p.terminated(p.judgment, "eof")


# ---------------------------------------------------------------------------
# Rendering.


def render_attribution(a: Attribution) -> str:
    return f"{a.var} = {render_valueterm(a.value)}"


def render_intervention_expr(e: InterventionExpr) -> str:
    inside: list[str] = [f"{s} -> {d}" for s, d in sorted(e.graph.edges)]
    covered = {n for edge in e.graph.edges for n in edge}
    covered |= variables_of(e.datapoint) | {e.intervention.var}
    inside += sorted(e.graph.nodes - covered)
    inside += [render_attribution(a) for a in e.datapoint.attributions]
    iv = e.intervention
    return f"[{', '.join(inside)}] I({iv.var}={iv.value.token})"


def render_context_item(item: ContextItem) -> str:
    if isinstance(item, InterventionItem):
        return render_intervention_expr(item.expr)
    if isinstance(item, EdgeItem):
        return f"{item.src} -> {item.dst}"
    if isinstance(item, AttrItem):
        return render_attribution(item.attribution)
    raise TypeError(f"not a context item: {item!r}")


def parse_context_item(text: str) -> ContextItem:
    return _parse_all(text, _Parser.context_item, "end of context item")


def render_judgment(j: Judgment) -> str:
    """Canonical rendering: intervention item, edges sorted, then loose
    attributions in stored order."""
    item = j.intervention_item()
    items = [] if item is None else [item]
    items += sorted(j.edge_items(), key=lambda e: (e.src, e.dst))
    lhs = ", ".join(map(render_context_item, items + j.attr_items()))
    rhs = f"|- {j.target} = {render_valueterm(j.value)} @ {render_probability(j.prob)}"
    return f"{lhs} {rhs}" if lhs else rhs


# ---------------------------------------------------------------------------
# Proof serialization (JSON with DSL-syntax judgment and item strings).


def proof_to_dict(p: Proof) -> dict:
    """Each step writes the conclusion it records and no other. A derived
    proof records only its last, the judgment the proof certifies; replay
    derives every other step's."""
    steps = [
        {"rule": s.rule.value, "item": s.item and render_context_item(s.item), "premise": s.premise}
        | ({} if s.conclusion is None else {"conclusion": render_judgment(s.conclusion)})
        for s in p.steps
    ]
    return {"assumptions": [render_judgment(a) for a in p.assumptions], "steps": steps}


def render_proof(p: Proof) -> str:
    """`json.dumps(proof_to_dict(p), indent=2)`, laid out by hand: that indenter is pure Python."""
    doc, enc = proof_to_dict(p), json.encoder.encode_basestring_ascii
    encoded = [
        f'{{\n      "rule": {enc(s["rule"])},\n      "item": '
        f'{"null" if s["item"] is None else enc(s["item"])},\n      "premise": '
        f'{"null" if s["premise"] is None else s["premise"]}'
        + (f',\n      "conclusion": {enc(s["conclusion"])}' if "conclusion" in s else "")
        + "\n    }"
        for s in doc["steps"]
    ]
    assumptions = ",\n    ".join(map(enc, doc["assumptions"]))  # a proof has at least one
    steps = "[\n    " + ",\n    ".join(encoded) + "\n  ]" if encoded else "[]"
    return f'{{\n  "assumptions": [\n    {assumptions}\n  ],\n  "steps": {steps}\n}}\n'


class ProofFormatError(ValueError):
    """A serialized proof document is malformed."""


def _read_item(text, known: dict) -> ContextItem:
    """The item `text` states; `known` maps canonical texts to the contexts read so far."""
    found = known.get(text, ()) if isinstance(text, str) else ()
    if len(found) != 1:
        found = (parse_context_item(text),)
        known[render_context_item(found[0])] = found  # never the raw text: it may end in a comment
    return found[0]


def _read_judgment(text, known: dict) -> Judgment:
    """A judgment; one whose context text is in `known` is read from its `|-` on."""
    key, sep, rest = text.partition(" |- ") if isinstance(text, str) else ("", "", "")
    if sep and known.get(key):  # an empty context would let `rest` bring one of its own
        try:
            return _parse_all(rest, lambda p: p.judgment(list(known[key])), "end of judgment")
        except ParseError:  # the whole text, read again, reports it
            pass
    return parse_judgment(text)


def proof_from_dict(doc: dict, known=()) -> Proof:
    """`known`: contexts, as tuples, whose texts and items' texts are taken as read."""
    rendered = [[render_context_item(i) for i in context] for context in known]
    by_text = {t: (i,) for context, r in zip(known, rendered) for t, i in zip(r, context)}
    by_text.update((", ".join(r), context) for context, r in zip(known, rendered))
    try:
        assumptions = tuple(_read_judgment(s, by_text) for s in doc["assumptions"])
        others = (i for a in assumptions if a.context not in known for i in a.context)
        by_text.update((render_context_item(i), (i,)) for i in others)
        steps = []
        for raw in doc["steps"]:
            rule = RuleId(raw["rule"])
            item = None if raw.get("item") is None else _read_item(raw["item"], by_text)
            premise = raw.get("premise")
            if premise is not None and type(premise) is not int:
                raise ValueError(f"premise {premise!r} is not an integer index")
            conclusion = raw.get("conclusion")
            conclusion = None if conclusion is None else _read_judgment(conclusion, by_text)
            steps.append(ProofStep(rule, item, premise, conclusion))
        return Proof(assumptions, tuple(steps))
    except (KeyError, TypeError, ValueError, ParseError) as e:
        raise ProofFormatError(f"malformed proof document: {e}")


def parse_proof(text: str, known=()) -> Proof:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:  # bad JSON, too deep, or a number too long
        raise ProofFormatError(f"malformed proof document: {e}")
    return proof_from_dict(doc, known)
