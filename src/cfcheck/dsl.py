"""Surface syntax: parsing and pretty-printing of case files, graphs,
judgments, judgment databases and serialized proofs.

Parsing tracks source spans so every error points at the offending text.
Rendering is canonical (intervention item first, edges sorted, attributions
in stored order), and parse(render(x)) == x for every well-formed value.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Union

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

# One lexeme per match, after any blanks: a word (the model's token rule, so
# every word is a valid token), punctuation, a newline, a comment, or one
# character that starts no lexeme.
_LEXEME_RE = re.compile(
    rf"[^\S\n]*(?:(?P<word>{TOKEN_PATTERN})|(?P<punct>->|\|-|[{{}}()\[\];,=+!@/])"
    r"|(?P<nl>\n)|#[^\n]*|(?P<bad>.)|\Z)"
)


class Token(NamedTuple):  # a tuple: cheaper to build than a frozen dataclass
    kind: str  # "word", "eof", or the punctuation text itself
    text: str
    line: int
    col: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.line, self.col, max(len(self.text), 1))


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, line_start = 1, 0
    for m in _LEXEME_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:  # a comment, or blanks at the end
            continue
        lexeme = m.group(kind)
        col = m.end() - len(lexeme) - line_start + 1
        if kind == "nl":
            line, line_start = line + 1, m.end()
        elif kind == "bad":
            raise ParseError(SourceSpan(line, col, 1), "a token", repr(lexeme))
        else:
            toks.append(Token("word" if kind == "word" else lexeme, lexeme, line, col))
    toks.append(Token("eof", "", line, len(text) - line_start + 1))
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


def _decimal_to_fraction(text: str, span: SourceSpan) -> Fraction:
    whole, dot, frac = text.partition(".")
    if not whole.isdigit() or (dot and not frac.isdigit()):
        raise ParseError(span, "a decimal probability", repr(text))
    if len(frac) > MAX_FRACTION_DIGITS:
        raise ParseError(
            span, f"at most {MAX_FRACTION_DIGITS} fractional digits", repr(text)
        )
    value = Fraction(_numeral(whole, span))
    if frac:
        value += Fraction(int(frac), 10 ** len(frac))
    if value > 1:
        raise ParseError(span, "a probability in [0, 1]", repr(text))
    return value


def _numeral(digits: str, span: SourceSpan) -> int:
    try:
        return int(digits)
    except ValueError:  # longer than the interpreter's int() digit limit
        raise ParseError(span, f"at most {sys.get_int_max_str_digits()} digits", str(len(digits)))


def parse_probability_literal(text: str) -> Fraction:
    """Parse a standalone probability: a decimal or a `num/den` rational."""
    return _parse_all(text, _Parser.probability, "end of probability")


# ---------------------------------------------------------------------------
# Recursive-descent parser.

_Item = Union[tuple[str, str], Attribution, str]  # an edge, an attribution or a bare node


class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.i = 0
        # where each attributed or intervened variable, and each edge, was last read
        self.seen: dict[Union[str, tuple[str, str]], Token] = {}

    def peek(self) -> Token:
        return self.toks[self.i]  # advance never moves past eof

    def advance(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def at(self, kind: str) -> bool:
        return self.peek().kind == kind

    def error(self, expected: str, tok: Optional[Token] = None):
        tok = tok or self.peek()
        found = repr(tok.text) if tok.kind != "eof" else "end of input"
        raise ParseError(tok.span, expected, found)

    def expect(self, kind: str, expected: Optional[str] = None) -> Token:
        if not self.at(kind):
            self.error(expected or f"'{kind}'")
        return self.advance()

    def word(self, expected: str = "an identifier") -> Token:
        if not self.at("word"):
            self.error(expected)
        return self.advance()

    def keyword(self, name: str) -> Token:
        tok = self.word(f"'{name}'")
        if tok.text != name:
            self.error(f"'{name}'", tok)
        return tok

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
            raise ParseError(start.span, "distinct sum members", str(e))

    def term(self, depth: int) -> ValueTerm:
        if self.at("!") or self.at("("):
            if depth == MAX_TERM_NESTING:
                self.error(f"at most {MAX_TERM_NESTING} nested '!' and '('")
            if self.advance().kind == "!":
                return Complement(self.term(depth + 1))
            t = self.valueterm(depth + 1)
            self.expect(")")
            return t
        tok = self.word("a value term")
        return Atom(tok.text)

    # -- probabilities ----------------------------------------------------

    def probability(self) -> Fraction:
        tok = self.word("a probability")
        if self.at("/"):
            self.advance()
            den = self.word("a denominator")
            if not tok.text.isdigit() or not den.text.isdigit():
                self.error("an integer rational", tok)
            try:
                num = _numeral(tok.text, tok.span)
                return check_probability(Fraction(num, _numeral(den.text, den.span)))
            except (ZeroDivisionError, InvalidModel):
                raise ParseError(tok.span, "a probability in [0, 1]", f"{tok.text}/{den.text}")
        return _decimal_to_fraction(tok.text, tok.span)

    # -- items, interventions and lists ---------------------------------------

    def item(self, expected: str, *, edge=False, attr=True, node=False) -> _Item:
        """An edge `NAME -> NAME` (as a pair), an attribution `NAME = term` or
        a bare node `NAME` (as its name), as the caller allows. A name that
        starts no edge must start an attribution unless a bare node is allowed."""
        name = self.word(expected)
        if edge and self.at("->"):
            self.advance()
            pair = (name.text, self.word("an edge target").text)
            self.seen[pair] = name
            return pair
        if attr and (not node or self.at("=")):
            self.seen[name.text] = name
            self.expect("=")
            return Attribution(name.text, self.valueterm())
        return name.text

    def intervention(self) -> Intervention:
        """`NAME = NAME`: an atomic value imposed on a variable."""
        var = self.word("the intervention variable")
        self.seen[var.text] = var
        self.expect("=")
        return Intervention(var.text, Atom(self.word("an atomic value").text))

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
            raise ParseError(open_tok.span, "a well-formed intervention expression", str(e))

    def context_item(self) -> ContextItem:
        if self.at("["):
            return InterventionItem(self.bracket_expr())
        item = self.item("a context item", edge=True)
        return AttrItem(item) if isinstance(item, Attribution) else EdgeItem(*item)

    def judgment(self) -> Judgment:
        start = self.peek()
        context = self.separated(self.context_item, "|-")
        conclusion = self.item("a target variable")
        self.expect("@")
        prob = self.probability()
        try:
            return Judgment(tuple(context), conclusion.var, conclusion.value, prob)
        except InvalidModel as e:
            raise ParseError(start.span, "a well-formed judgment", str(e))

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
            last = max(tokens, key=lambda t: (t.line, t.col))
            raise ParseError(last.span, "an acyclic graph", str(e))

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

            candidate = self.attr_block("candidate") if self.peek().text == "candidate" else None

            prob = None
            if self.peek().text == "factual_prob":
                self.advance()
                tok = self.word("a decimal probability")
                prob = _decimal_to_fraction(tok.text, tok.span)
                self.expect(";")

            self.expect("eof", "end of case file")
            return Case(graph, factual, intervention, target.var, target.value, prob, candidate)
        except InvalidModel as e:
            raise ParseError(self.seen[e.var].span, "a well-formed case", str(e))


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
    p = _Parser(tokenize(text))
    result = rule(p)
    p.expect("eof", what)
    return result


def parse_case(text: str) -> Case:
    p = _Parser(tokenize(text))
    return p.case(p.graph_block())


def parse_graph(text: str) -> CausalGraph:
    return _parse_all(text, _Parser.graph_block, "end of graph file")


def parse_case_or_graph(text: str) -> Union[Case, CausalGraph]:
    """Parse either a full case file or a bare graph block."""
    p = _Parser(tokenize(text))
    g = p.graph_block()
    return g if p.at("eof") else p.case(g)


def parse_judgment(text: str) -> Judgment:
    return _parse_all(text, _Parser.judgment, "end of judgment")


def parse_valueterm(text: str) -> ValueTerm:
    return _parse_all(text, _Parser.valueterm, "end of value term")


def parse_judgment_db(text: str) -> list[Judgment]:
    """Parse a judgment database: judgments separated by `;`."""
    p = _Parser(tokenize(text))
    return p.terminated(p.judgment, "eof")


# ---------------------------------------------------------------------------
# Rendering.


def render_valueterm(t: ValueTerm) -> str:
    if isinstance(t, Atom):
        return t.token
    if isinstance(t, Sum):
        return " + ".join(
            f"({render_valueterm(m)})" if isinstance(m, Sum) else render_valueterm(m)
            for m in t.members
        )
    if isinstance(t, Complement):
        inner = render_valueterm(t.inner)
        if isinstance(t.inner, Sum):
            inner = f"({inner})"
        return "!" + inner
    raise TypeError(f"not a value term: {t!r}")


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
    """Only the last step records its conclusion, the judgment the proof
    certifies; replay derives every other step's."""
    steps = [
        {
            "rule": s.rule.value,
            "item": None if s.item is None else render_context_item(s.item),
            "premise": s.premise,
        }
        for s in p.steps
    ]
    if steps:
        steps[-1]["conclusion"] = render_judgment(p.steps[-1].conclusion)
    return {"assumptions": [render_judgment(a) for a in p.assumptions], "steps": steps}


def render_proof(p: Proof) -> str:
    return json.dumps(proof_to_dict(p), indent=2) + "\n"


class ProofFormatError(ValueError):
    """A serialized proof document is malformed."""


def proof_from_dict(doc: dict) -> Proof:
    try:
        assumptions = tuple(parse_judgment(s) for s in doc["assumptions"])
        steps = []
        for raw in doc["steps"]:
            rule = RuleId(raw["rule"])
            item = None if raw.get("item") is None else parse_context_item(raw["item"])
            premise = raw.get("premise")
            if premise is not None and type(premise) is not int:
                raise ValueError(f"premise {premise!r} is not an integer index")
            conclusion = raw.get("conclusion")
            conclusion = None if conclusion is None else parse_judgment(conclusion)
            steps.append(ProofStep(rule, item, premise, conclusion))
        return Proof(assumptions, tuple(steps))
    except (KeyError, TypeError, ValueError, ParseError) as e:
        raise ProofFormatError(f"malformed proof document: {e}")


def parse_proof(text: str) -> Proof:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:  # bad JSON, too deep, or a number too long
        raise ProofFormatError(f"malformed proof document: {e}")
    return proof_from_dict(doc)
