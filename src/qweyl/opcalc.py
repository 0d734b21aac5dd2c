"""The polynomial ring Q(q)[X_0..X_{r+1}] and a free operator calculus.

Polynomials and operators are both ScalarQ-linear combinations of monoid
elements, exponent vectors under addition and words in generator symbols
under concatenation, and share one arithmetic core.  A word acts on a
polynomial rightmost symbol first, through an action table mapping each
symbol to a ``ShiftWord`` that sends every monomial to one monomial times
v q^k [n], [n] = (q^n - q^-n)/(q - q^-1) the balanced q-integer.
``ActionTable.act`` is the one place a letter is read, as one such step kept
in that form, and every walk of a word consumes those steps: a path is
v q^k times the product of its [n], which ``q_product`` multiplies out.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import chain
from operator import add, index
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Tuple)

from .qscalar import ScalarQ, q_product
from .shift import ShiftWord, _identity, compile_relation, sum_of_products

Monomial = Tuple[int, ...]


def monomials_of_degree(nvars: int, degree: int) -> List[Monomial]:
    """All exponent vectors of the given total degree, lex descending."""
    if nvars == 1:
        return [(degree,)]
    out = []
    for first in range(degree, -1, -1):
        for rest in monomials_of_degree(nvars - 1, degree - first):
            out.append((first,) + rest)
    return out


def monomials_up_to(nvars: int, max_degree: int) -> List[Monomial]:
    out = []
    for s in range(max_degree + 1):
        out.extend(monomials_of_degree(nvars, s))
    return out


class _Combination:
    """A ScalarQ-linear combination of monoid elements: ``terms`` maps each
    element to its nonzero coefficient.  A subclass names the monoid's
    product (``_op``), which operands it combines with (``_same_ring``) and
    how a result is built (``_new``)."""

    __slots__ = ("terms",)

    def _new(self, terms):
        out = type(self).__new__(type(self))
        out.terms = terms
        return out

    def _same_ring(self, other) -> bool:
        return type(other) is type(self)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _combine(self, other, sign: int):
        """self + sign * other in one pass over other's terms."""
        if not self._same_ring(other):
            return NotImplemented
        t = dict(self.terms)
        for w, c in other.terms.items():
            v = t.get(w)
            if v is None:
                v = c if sign > 0 else -c
            else:
                v = v + c if sign > 0 else v - c
            if v.is_zero:
                t.pop(w, None)
            else:
                t[w] = v
        return self._new(t)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self._new({w: -c for w, c in self.terms.items()})

    def scale(self, c):
        c = c if isinstance(c, ScalarQ) else ScalarQ(c)
        return self._new({} if c.is_zero else
                         {w: co * c for w, co in self.terms.items()})

    def __mul__(self, other):
        """The monoid's product ``_op`` extended bilinearly."""
        if not self._same_ring(other):
            return NotImplemented
        t, op = {}, self._op
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = op(w1, w2)
                c = c1 * c2
                v = t.get(w)
                v = c if v is None else v + c
                if v.is_zero:
                    t.pop(w, None)
                else:
                    t[w] = v
        return self._new(t)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms


class QPolynomial(_Combination):
    """Sparse polynomial: map from exponent vector to nonzero ScalarQ.
    Exponent vectors multiply by adding."""

    __slots__ = ("nvars",)

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        t = {}
        if terms:
            for mon, c in terms.items():
                mon = tuple(map(index, mon))
                if len(mon) != nvars:
                    raise ValueError("exponent vector length %d != %d"
                                     % (len(mon), nvars))
                if any(e < 0 for e in mon):
                    raise ValueError("negative exponent in %r" % (mon,))
                c = c if isinstance(c, ScalarQ) else ScalarQ(c)
                if not c.is_zero:
                    t[mon] = c
        self.terms = t

    @classmethod
    def zero(cls, nvars: int) -> "QPolynomial":
        return cls(nvars)

    @classmethod
    def monomial(cls, mon: Monomial, coeff=1) -> "QPolynomial":
        return cls(len(mon), {tuple(mon): coeff})

    @classmethod
    def variable(cls, i: int, nvars: int) -> "QPolynomial":
        return cls.monomial(tuple(1 if j == i else 0 for j in range(nvars)))

    def _new(self, terms) -> "QPolynomial":
        out = _Combination._new(self, terms)
        out.nvars = self.nvars
        return out

    def _same_ring(self, other) -> bool:
        if type(other) is QPolynomial and other.nvars != self.nvars:
            raise ValueError("mixing polynomial rings")
        return type(other) is QPolynomial

    @staticmethod
    def _op(a: Monomial, b: Monomial) -> Monomial:
        return tuple(map(add, a, b))

    def scale_var(self, i: int, power: int) -> "QPolynomial":
        """Substitute X_i -> q^power * X_i."""
        return self._new({m: c * ScalarQ.q_power(power * m[i])
                          for m, c in self.terms.items()})

    def __eq__(self, other):
        if type(other) is not QPolynomial:
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __str__(self):
        return poly_to_text(self)

    def __repr__(self):
        return "QPolynomial(%d, %s)" % (self.nvars, self)


class GeneratorSymbol(NamedTuple):
    """A named generator in a presentation: family tag, index, inverse flag."""

    fam: str
    idx: int
    inv: bool = False

    @property
    def label(self) -> str:
        return "%s%d%s" % (self.fam, self.idx, "^-1" if self.inv else "")

    @classmethod
    def from_label(cls, text: str) -> Optional["GeneratorSymbol"]:
        """The symbol whose ``label`` is ``text``, or None if there is none:
        no sign, space or leading zero in the index, which has at most nine
        ASCII digits."""
        match = _LABEL.fullmatch(text)
        if match is None:
            return None
        sym = cls(match[1], int(match[2]), bool(match[3]))
        return sym if sym.label == text else None


_LABEL = re.compile(r"([A-Za-z]+)([0-9]{1,9})(\^-1)?")


Word = Tuple[GeneratorSymbol, ...]
# The default coefficient, already canonical: ScalarQ values are immutable.
_ONE = ScalarQ.one()


class OperatorExpr(_Combination):
    """Formal ScalarQ-linear combination of words in generator symbols.
    Words multiply by concatenation.  Images (chi, iota, phi, the aliases),
    ``expr_map`` and ``apply`` read it; a relation side is a tuple of rows
    instead, and ``expr.terms.items()`` gives the rows of an expression."""

    __slots__ = ()
    _op = staticmethod(add)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for word, c in terms.items():
                c = c if isinstance(c, ScalarQ) else ScalarQ(c)
                if not c.is_zero:
                    t[tuple(word)] = c
        self.terms = t

    @classmethod
    def zero(cls) -> "OperatorExpr":
        return cls()

    @classmethod
    def identity(cls) -> "OperatorExpr":
        return cls({(): _ONE})

    @classmethod
    def word(cls, symbols: Iterable[GeneratorSymbol],
             coeff=_ONE) -> "OperatorExpr":
        """One word times ``coeff``; a nonzero ScalarQ is taken as it is."""
        out = cls.__new__(cls)
        out.terms = {tuple(symbols): coeff}
        ok = isinstance(coeff, ScalarQ) and coeff.num
        return out if ok else cls(out.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms, key=lambda w: (len(w), [s.label for s in w])):
            c = self.terms[w]
            body = " ".join(s.label for s in w) if w else "1"
            parts.append("(%s)*%s" % (c, body))
        return " + ".join(parts)

    __repr__ = __str__


def expr_map(expr: OperatorExpr, mapping: Dict[GeneratorSymbol, OperatorExpr]) -> OperatorExpr:
    """Push an expression through a symbol-to-expression homomorphism."""
    out = OperatorExpr.zero()
    for word, c in expr.terms.items():
        img = OperatorExpr.identity()
        for sym in word:
            if sym not in mapping:
                raise KeyError("no image for symbol %s" % sym.label)
            img = img * mapping[sym]
        out = out + img.scale(c)
    return out


def _checked(sym: GeneratorSymbol, entry) -> ShiftWord:
    """``entry`` if it is a run-shaped ``ShiftWord`` (``ShiftWord.is_run``),
    else a ValueError naming ``sym``."""
    if not (isinstance(entry, ShiftWord) and entry.is_run):
        raise ValueError("the action of %s is not a q-integer run: %r"
                         % (sym.label, entry))
    return entry


class ActionTable:
    """Maps generator symbols to their actions on monomials: each entry is a
    ``ShiftWord`` whose every image is one monomial times v q^k [n].  The
    table checks that shape (``ShiftWord.is_run``) once for each entry it
    stores, and refuses any other with a ValueError.

    A table has one build rule, ``build``: called with a symbol, it returns
    that symbol's entry, or its image, an ``OperatorExpr`` in the table's
    own symbols that the table composes over itself (``_image_entry``), or
    None for a symbol the table does not have.  An entry is built, checked
    and stored the first time ``get`` or ``entry`` looks it up, so every
    later lookup is one dict hit, and an entry never looked up is never
    built.  ``symbols``, a function of no arguments, lists the symbols
    ``build`` has; only the ``symbols`` property calls it.  A stored entry
    never changes, so a word's form over the table never changes either:
    ``forms`` is the table's memo of relation word forms, which only
    ``compile_relation`` fills (``shift._word_form``), and starts with the
    empty word's, the identity.
    """

    def __init__(self, nvars: int,
                 build: Callable[[GeneratorSymbol], Optional[ShiftWord]],
                 symbols: Callable[[], Iterable[GeneratorSymbol]] = tuple):
        self.nvars = nvars
        self._built = {}
        self._build = build
        self._symbols = symbols
        self.forms = {(): _identity(nvars)}

    @property
    def symbols(self):
        """Every symbol of the table, built or not, as a keys view."""
        return dict.fromkeys(chain(self._symbols(), self._built)).keys()

    def act(self, sym: GeneratorSymbol, mon: Monomial):
        """``sym``'s image of X^mon as one step (target, k, v, n), the term
        v*q^k*[n]*X^target with n >= 1, read by the entry's ``ShiftWord.run``
        in O(touched slots); None if the image is zero."""
        step = (self._built.get(sym) or self.entry(sym)).run(mon)
        return step if step[3] else None

    def get(self, sym: GeneratorSymbol) -> Optional[ShiftWord]:
        """The action of ``sym``, built, checked and stored on its first
        lookup; None if the table has none.  A stored entry is never None,
        so one dict read tells a stored symbol from a new one."""
        action = self._built.get(sym)
        if action is None:
            action = self._build(sym)
            if type(action) is OperatorExpr:
                action = _image_entry(action, self)
            if action is not None:
                action = self._built[sym] = _checked(sym, action)
        return action

    def entry(self, sym: GeneratorSymbol) -> ShiftWord:
        """The action of ``sym`` (``get``); a KeyError naming it if the
        table has none."""
        action = self.get(sym)
        if action is None:
            raise KeyError("unknown symbol %s in action table" % sym.label)
        return action


def image_table(images: Dict[GeneratorSymbol, OperatorExpr],
                table: ActionTable) -> ActionTable:
    """The homomorphism ``images``, a dict from each symbol to its image,
    followed by ``table``'s action.  Each image is composed over ``table``,
    on the sparse terms of its letters' entries (``_image_entry``), when its
    symbol is first looked up."""

    def compose(sym) -> Optional[ShiftWord]:
        image = images.get(sym)
        return None if image is None else _image_entry(image, table)

    return ActionTable(table.nvars, compose, images.keys)


def _image_entry(image: OperatorExpr, table: ActionTable) -> ShiftWord:
    """``image`` followed by ``table``'s action, as one ``ShiftWord``: each
    word the product of its letters' entries, each times its Laurent
    coefficient, summed by ``shift.sum_of_products``.  Every chi, iota, phi
    and alias image has one shift vector and one d-count; an image whose
    words differ in either is refused with a ValueError."""
    entry = table.entry
    return sum_of_products(([entry(sym) for sym in word], c.as_laurent())
                           for word, c in image.terms.items())


def walk_word(word: Word, mon: Monomial, table: ActionTable):
    """The one path of ``word`` from X^mon, rightmost letter first: (target,
    k, v, ns), v*q^k*X^target times [n] for each n in ns, or None for zero.
    Each letter adds the k of its ``ActionTable.act`` step to k, multiplies
    v by its v and, if n >= 2, adds its n to ns, so ``apply`` multiplies
    them out once."""
    k, v, ns = 0, 1, ()
    for sym in reversed(word):
        step = table.act(sym, mon)
        if step is None:
            return None
        mon, sk, sv, n = step
        k, v = k + sk, v * sv
        if n > 1:
            ns += (n,)
    return mon, k, v, ns


def apply(expr: OperatorExpr, p: QPolynomial, table: ActionTable) -> QPolynomial:
    """Apply an operator expression to a polynomial, rightmost symbol first,
    as the sum of the ``walk_word`` paths of every word and term, each
    multiplied out by ``q_product``.

    A path whose target has an X_i exponent above ``MAX_EXPONENT``, or whose
    numerator would run over more than ``MAX_EXPONENT`` powers of q
    (``q_span``), raises a ValueError before it is expanded: every result
    reads back through ``poly_from_text``."""
    acc: Dict[Monomial, ScalarQ] = {}
    for word, c in expr.terms.items():
        for mon, coeff in p.terms.items():
            path = walk_word(word, mon, table)
            if path is None:
                continue
            target, k, v, ns = path
            pc = coeff * c
            if max(target, default=0) > MAX_EXPONENT:
                raise ValueError("image exponent above %d (MAX_EXPONENT)"
                                 % MAX_EXPONENT)
            if q_span(pc.num.min_exp() + k, pc.num.max_exp() + k,
                      ns) > MAX_EXPONENT:
                raise ValueError("image coefficient over more than %d "
                                 "powers of q (MAX_EXPONENT)" % MAX_EXPONENT)
            value = ScalarQ(q_product(ns, pc.num._term_mul(k, v)), pc.den)
            w = acc.get(target)
            w = value if w is None else w + value
            if w.is_zero:
                acc.pop(target, None)
            else:
                acc[target] = w
    out = QPolynomial.__new__(QPolynomial)
    out.nvars, out.terms = p.nvars, acc
    return out


def apply_word(word: Word, p: QPolynomial, table: ActionTable) -> QPolynomial:
    return apply(OperatorExpr.word(word), p, table)


def operator_equal_on_degrees(e1: OperatorExpr, e2: OperatorExpr,
                              table: ActionTable, max_s: int):
    """Residuals of (e1 - e2) on every monomial of total degree <= max_s.

    An empty list means the two expressions agree on that truncation.  No
    monomial goes through ``apply``: the residuals are read off the form
    that ``compile_relation`` compiles from the rows of both sides
    (``ShiftForm.residuals``).
    """
    n, form = table.nvars, compile_relation(e1.terms.items(),
                                            e2.terms.items(), table)
    return [(mon, QPolynomial(n, terms))
            for mon, terms in form.residuals(monomials_up_to(n, max_s))]


def verify_relations(instances, table: ActionTable, max_s: int):
    """Check a list of relation instances against an action table.

    ``instances`` holds tuples (group_id, indices, lhs, rhs), each side a
    sequence of rows (word, coeff) as the relation builders emit them (see
    ``compile_relation``); an ``OperatorExpr`` side is passed as
    ``expr.terms.items()``.  To check a homomorphism's relations, pass
    ``image_table(images, table)``.  Returns a list of per-instance report
    dicts.

    Each relation is compiled once from its two sides (``compile_relation``),
    which reads word forms from ``table``'s memo, so every suffix of every
    word is composed once over ``table``.  The verdict is read off that
    form: OK exactly when it is zero, so the relation holds in every degree.
    A nonzero form fails in some degree, whatever ``max_s`` is; its first
    residual at degree <= ``max_s`` (``ShiftForm.residuals``, its least
    target) is reported, or ``None`` for the monomial and the coefficient if
    it has none there.  The search walks one degree at a time and stops at
    that first residual.
    """
    n, report = table.nvars, []
    for group_id, indices, lhs, rhs in instances:
        form = compile_relation(lhs, rhs, table)
        entry = {"relation_id": group_id, "instance_indices": list(indices),
                 "ok": not form.components}
        if form.components:
            upward = (mon for s in range(max_s + 1)
                      for mon in monomials_of_degree(n, s))
            first = next(form.residuals(upward), None)
            entry["residual_monomial"] = entry["residual_coefficient"] = None
            if first is not None:
                mon, terms = first
                entry["residual_monomial"] = list(mon)
                entry["residual_coefficient"] = str(terms[min(terms)])
        report.append(entry)
    return report


def report_failures(report):
    return [entry for entry in report if not entry["ok"]]


def poly_to_text(p: QPolynomial) -> str:
    """Render as ``(<ScalarQ>)*X0^2*X3 + ...`` with monomials lex descending."""
    if p.is_zero:
        return "0"
    return " + ".join("(%s)*%s" % (p.terms[mon], monomial_text(mon))
                      for mon in sorted(p.terms, reverse=True))


def monomial_text(mon: Monomial) -> str:
    """X^mon as ``poly_to_text`` writes it: ``X0^2*X3``, or ``1``."""
    factors = []
    for i, e in enumerate(mon):
        if e == 1:
            factors.append("X%d" % i)
        elif e > 1:
            factors.append("X%d^%d" % (i, e))
    return "*".join(factors) if factors else "1"


_TOKEN = re.compile(r"[0-9]+(?:/[0-9]+)?|[A-Za-z_]\w*|\S", re.ASCII)

# Work on a parsed polynomial grows with its exponents, so larger powers of
# one X_i, and coefficients that run over more powers of q, are refused.
MAX_EXPONENT = 10_000


def q_span(low: int, high: int, ns=()) -> int:
    """How many powers of q the terms q^low..q^high times [n] for each n in
    ``ns`` run over, counted from q^0: [n] spans q^(1-|n|)..q^(|n|-1)."""
    reach = sum([abs(n) - 1 for n in ns])
    return max(high + reach, 0) - min(low - reach, 0)


def poly_from_text(text: str, nvars: int) -> QPolynomial:
    """Parse the poly_to_text format (and bare monomials like ``X2``).

    Tokens are integers and ``a/b`` rationals, ``q``, ``X<i>`` and
    ``+ - * / ^ ( )``; whitespace between tokens is ignored.  The grammar is

        poly   := sign? term (sign term)*
        term   := factor ('*' factor)*
        factor := number | q['^'['-']n] | X<i>['^'n]
                | '(' coeff ')' ['/' '(' coeff ')']

    where a coeff is a poly over no variables, so ``nvars = 0`` reads the
    text of a ``LaurentPoly`` or a ``ScalarQ``.  Any other input raises a
    ValueError that names the offending token, as does a '^' exponent above
    ``MAX_EXPONENT``, an X_i whose exponents in one term sum past it, a term
    or parenthesised coefficient whose numerator or denominator runs over
    more than ``MAX_EXPONENT`` powers of q (from q^0), and a number longer
    than Python's limit for converting digits to an int.
    """
    parser = _PolyParser(text)
    out = parser.poly(nvars)
    parser.expect("", "unbalanced parenthesis")
    return out


def _clip(text: str, width: int) -> str:
    return text if len(text) <= width else text[:width] + "..."


def _bounded(digits: str, bound: int):
    """int(digits) if it is at most ``bound``, else None; a token too long
    to be at most ``bound`` is never converted."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(bound)) or int(digits) > bound:
        return None
    return int(digits)


class _PolyParser:
    """Recursive descent over the tokens of one ``poly_from_text`` input."""

    def __init__(self, text: str):
        self.text, self.pos, self.depth = text, 0, 0
        self.tokens = _TOKEN.findall(text) + [""]

    def peek(self) -> str:
        return self.tokens[self.pos]

    def take(self) -> str:
        self.pos += 1
        return self.tokens[self.pos - 1]

    def fail(self, what: str, tok=None):
        tok = self.peek() if tok is None else tok
        raise ValueError("%s at %s in polynomial %r"
                         % (what, repr(_clip(tok, 20)) if tok else "end",
                            _clip(self.text, 80)))

    def expect(self, tok: str, what: str):
        if self.peek() != tok:
            self.fail(what)
        self.pos += 1

    def poly(self, nvars: int) -> QPolynomial:
        sign = -1 if self.peek() == "-" else 1
        self.pos += self.peek() in ("+", "-")
        terms = {}
        while True:
            coeff, mon = self.term(nvars)
            coeff = coeff if sign > 0 else -coeff
            terms[mon] = terms[mon] + coeff if mon in terms else coeff
            if self.peek() not in ("+", "-"):
                return QPolynomial(nvars, terms)
            sign = -1 if self.take() == "-" else 1

    def term(self, nvars: int):
        """(coefficient, exponent vector) of one product of factors."""
        if self.peek() in ("+", "-", ")", ""):
            self.fail("empty term")
        coeff, exps = ScalarQ.one(), [0] * nvars
        laurent = True  # only numbers and q-powers so far
        while True:
            tok = self.take()
            if tok == "(":
                coeff, laurent = coeff * self.quotient(), False
            elif "0" <= tok[:1] <= "9":
                num, _, den = tok.partition("/")
                limit = sys.get_int_max_str_digits()
                if limit and len(max(num, den, key=len)) > limit:
                    self.fail("number of more than %d digits" % limit, tok)
                if not int(den or 1):
                    self.fail("zero denominator", tok)
                coeff = coeff * ScalarQ(Fraction(int(num), int(den or 1)))
            elif tok == "q":
                coeff = coeff * ScalarQ.q_power(self.exponent(True))
            elif tok[:1] == "X" and tok[1:].isdigit():
                idx = _bounded(tok[1:], nvars - 1)
                if idx is None:
                    self.fail("variable out of range", tok)
                exps[idx] += self.exponent(False)
                if exps[idx] > MAX_EXPONENT:
                    self.fail("total exponent above %d" % MAX_EXPONENT, tok)
                laurent = False
            else:
                self.fail("missing variable index" if tok == "X" else
                          "empty factor" if tok in ("", "+", "-", "*", ")")
                          else "unexpected token", tok)
            self.bound(coeff, tok)
            if self.peek() != "*":
                break
            self.pos += 1
        tok = self.peek()
        if tok[:1].isalnum() or tok[:1] in ("(", "_"):
            self.fail("missing sign between terms" if laurent
                      else "missing '*' between factors")
        if tok not in ("+", "-", ")", ""):
            self.fail("unexpected token")
        return coeff, tuple(exps)

    def exponent(self, signed: bool) -> int:
        """n from an optional '^' n (or '^' '-' n if signed); 1 without '^'."""
        if self.peek() != "^":
            return 1
        self.pos += 1
        sign = -1 if signed and self.peek() == "-" else 1
        self.pos += sign < 0
        if not (self.peek().isascii() and self.peek().isdigit()):
            self.fail("missing exponent")
        tok = self.take()
        n = _bounded(tok, MAX_EXPONENT)
        if n is None:
            self.fail("exponent above %d" % MAX_EXPONENT, tok)
        return sign * n

    def bound(self, value: ScalarQ, tok: str):
        """Refuse a value whose numerator or denominator runs over more than
        ``MAX_EXPONENT`` powers of q (``q_span``)."""
        for part in (value.num, value.den):
            if part and q_span(part.min_exp(), part.max_exp()) > MAX_EXPONENT:
                self.fail("powers of q spanning more than %d" % MAX_EXPONENT,
                          tok)

    def quotient(self) -> ScalarQ:
        """coeff ')' ['/' '(' coeff ')'], after the first '('."""
        value = self.coeff()
        if self.peek() == "/":
            self.pos += 1
            self.expect("(", "missing '(' after '/'")
            value = value / self.coeff()
        return value

    def coeff(self) -> ScalarQ:
        """A poly over no variables and its closing ')', as a scalar."""
        self.depth += 1
        if self.depth > 64:  # far inside the interpreter's recursion limit
            self.fail("parentheses nested too deeply", "(")
        value = self.poly(0).terms.get((), ScalarQ.zero())
        self.bound(value, self.peek())
        self.expect(")", "unbalanced parenthesis")
        self.depth -= 1
        return value
