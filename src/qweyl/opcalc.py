"""The polynomial ring Q(q)[X_0..X_{r+1}] and a free operator calculus.

Polynomials and operators are both ScalarQ-linear combinations of monoid
elements, exponent vectors under addition and words in generator symbols
under concatenation, and share one arithmetic core.  A word acts on a
polynomial rightmost symbol first, through an action table mapping each
symbol to a ``ShiftWord`` that sends every monomial to one monomial times a
q-integer run or a signed power of q.  ``ActionTable.act`` is the one place
a letter is read, as one such step kept factored, and every walk of a word
consumes those steps.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Mapping
from fractions import Fraction
from functools import partial
from itertools import chain
from operator import add
from typing import Callable, Dict, Iterable, List, NamedTuple, Tuple

from .qscalar import ScalarQ, _window_product
from .shift import (ShiftForm, ShiftWord, _add_terms, _word_form,
                    compile_relation)

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
                if len(mon) != nvars:
                    raise ValueError("exponent vector length %d != %d"
                                     % (len(mon), nvars))
                if any(e < 0 for e in mon):
                    raise ValueError("negative exponent in %r" % (mon,))
                c = c if isinstance(c, ScalarQ) else ScalarQ(c)
                if not c.is_zero:
                    t[tuple(mon)] = c
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


Word = Tuple[GeneratorSymbol, ...]
# The default coefficient, already canonical: ScalarQ values are immutable.
_ONE = ScalarQ.one()


class OperatorExpr(_Combination):
    """Formal ScalarQ-linear combination of words in generator symbols.
    Words multiply by concatenation."""

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

    @classmethod
    def symbol(cls, g: GeneratorSymbol, coeff=_ONE) -> "OperatorExpr":
        return cls.word((g,), coeff)

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
    ``ShiftWord`` whose every image is one monomial times a q-integer run or
    a signed power of q.  The table checks that shape (``ShiftWord.is_run``)
    once for each entry it stores, and refuses any other with a ValueError.

    A table holds the ``entries`` given to it, and ``builders``: for each
    other symbol, a function of no arguments that returns its entry.  Such
    an entry is built and stored the first time ``entry`` looks it up, so
    every later lookup is one dict hit, and an entry never looked up is
    never built.

    ``entries`` reads as a mapping of every symbol to its entry: iterating
    it lists every symbol, built or not, and reading an entry through it
    builds that one.  Assigning a mapping to ``entries`` makes it the whole
    table, with nothing left to build.
    """

    def __init__(self, nvars: int,
                 entries: Dict[GeneratorSymbol, ShiftWord],
                 builders: Dict[GeneratorSymbol, Callable] = None):
        self.nvars = nvars
        self.entries = entries
        self._builders = dict(builders) if builders else {}

    @property
    def entries(self) -> Mapping:
        return _Entries(self)

    @entries.setter
    def entries(self, entries):
        self._built = {sym: _checked(sym, entry)
                       for sym, entry in entries.items()}
        self._builders = {}

    def act(self, sym: GeneratorSymbol, mon: Monomial):
        """``sym``'s image of X^mon as one step (target, lo, v, m), the term
        v*q^lo*(1 + q^2 + ... + q^(2(m-1)))*X^target, read by the entry's
        ``ShiftWord.run`` in O(touched slots); None if the image is zero."""
        step = self.entry(sym).run(mon)
        return step if step[3] else None

    def entry(self, sym: GeneratorSymbol) -> ShiftWord:
        """The action of ``sym``, built and stored on its first lookup; a
        KeyError naming it if the table has none."""
        try:
            return self._built[sym]
        except KeyError:
            build = self._builders.get(sym)
            if build is None:
                raise KeyError("unknown symbol %s in action table"
                               % sym.label) from None
        action = self._built[sym] = _checked(sym, build())
        return action

    def merged(self, other: "ActionTable") -> "ActionTable":
        """The entries of both tables, ``other``'s where both have a symbol.
        Nothing is built here: the new table builds an entry that neither
        has built yet, when it first reads it, with the same builder."""
        if self.nvars != other.nvars:
            raise ValueError("mixing action tables over different rings")
        built = {sym: action for sym, action in self._built.items()
                 if sym not in other._builders}
        built.update(other._built)
        return ActionTable(self.nvars, built,
                           {**self._builders, **other._builders})


class _Entries(Mapping):
    """``ActionTable.entries``: every symbol of a table, read as its entry;
    assigning to a symbol checks that entry and stores it as built."""

    __slots__ = ("_table",)

    def __init__(self, table: ActionTable):
        self._table = table

    def __getitem__(self, sym):
        return self._table.entry(sym)

    def __setitem__(self, sym, action):
        self._table._built[sym] = _checked(sym, action)

    def __contains__(self, sym):
        return sym in self._table._built or sym in self._table._builders

    def _symbols(self) -> dict:
        return dict.fromkeys(chain(self._table._builders, self._table._built))

    def __iter__(self):
        return iter(self._symbols())

    def __len__(self):
        return len(self._symbols())


def image_table(images: Dict[GeneratorSymbol, OperatorExpr],
                table: ActionTable) -> ActionTable:
    """The homomorphism ``images`` followed by ``table``'s action.

    ``images`` maps each symbol to its image, or to a function of no
    arguments that returns it.  Every chi, iota, phi and alias image is a
    sum of words with Laurent coefficients, one shift vector and one
    d-count: it sums into one ``ShiftWord``, from one memo of word forms per
    table, as in the compiler.  An image given as a sum of several words is
    composed here, so that words that differ in shift vector or d-count are
    refused at once; any other image is built and composed when its symbol
    is first looked up.
    """
    n, forms = table.nvars, {}

    def compose(image) -> ShiftWord:
        if callable(image):
            image = image()
        shapes, total = set(), {}
        for word, c in image.terms.items():
            delta, poly, divided = _word_form(word, table, forms)
            shapes.add((delta, divided))
            _add_terms(total, poly, c.as_laurent())
        if len(shapes) > 1:
            raise ValueError("words differ in shift vector or d-count")
        delta, divided = shapes.pop() if shapes else ((0,) * n, 0)
        return ShiftWord.from_poly(delta, total, divided)

    built, builders = {}, {}
    for sym, image in images.items():
        if callable(image) or len(image.terms) < 2:
            builders[sym] = partial(compose, image)
        else:
            built[sym] = compose(image)
    return ActionTable(n, built, builders)


def walk_word(word: Word, mon: Monomial, table: ActionTable):
    """The one path of ``word`` from X^mon, rightmost letter first: (target,
    lo, v, widths), v*q^lo*X^target times (1 + q^2 + ... + q^(2(m-1))) for
    each m in widths, or None for zero.  Each letter adds the lo of its
    ``ActionTable.act`` step to lo, multiplies v by its v and, if m >= 2,
    adds its m to widths, so ``apply`` multiplies them out once."""
    lo, v, widths = 0, 1, ()
    for sym in reversed(word):
        step = table.act(sym, mon)
        if step is None:
            return None
        mon, slo, sv, m = step
        lo, v = lo + slo, v * sv
        if m > 1:
            widths += (m,)
    return mon, lo, v, widths


def apply(expr: OperatorExpr, p: QPolynomial, table: ActionTable) -> QPolynomial:
    """Apply an operator expression to a polynomial, rightmost symbol first,
    as the sum of the ``walk_word`` paths of every word and term.

    A path whose target has an X_i exponent above ``MAX_EXPONENT``, or whose
    numerator would run over more than ``MAX_EXPONENT`` powers of q, counted
    from q^0, raises a ValueError before it is expanded: every result reads
    back through ``poly_from_text``."""
    acc: Dict[Monomial, ScalarQ] = {}
    for word, c in expr.terms.items():
        for mon, coeff in p.terms.items():
            path = walk_word(word, mon, table)
            if path is None:
                continue
            target, lo, v, widths = path
            pc = coeff * c
            if max(target, default=0) > MAX_EXPONENT:
                raise ValueError("image exponent above %d (MAX_EXPONENT)"
                                 % MAX_EXPONENT)
            low = pc.num.min_exp() + lo
            high = pc.num.max_exp() + lo + 2 * (sum(widths) - len(widths))
            if max(high, 0) - min(low, 0) > MAX_EXPONENT:
                raise ValueError("image coefficient over more than %d "
                                 "powers of q (MAX_EXPONENT)" % MAX_EXPONENT)
            num = (_window_product(dict(pc.num.items()), widths, lo, v)
                   if widths else pc.num._term_mul(lo, v))
            value = ScalarQ(num, pc.den)
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


def _residuals(form: ShiftForm, nvars: int, monomials):
    """Residuals of a compiled relation on ``monomials``, in their order.

    Yields (monomial, residual): each component of ``form`` is a
    ``ShiftWord`` evaluated at X^a, and each value is divided by the form's
    ``scale``.  A form without components is the zero operator and yields
    nothing, without drawing a monomial.
    """
    if not form.components:
        return
    words = [ShiftWord.from_poly(delta, poly)
             for delta, poly in form.components.items()]
    for mon in monomials:
        # distinct components have distinct shift vectors: no target repeats
        terms = {tgt: ScalarQ(c.num, form.scale)
                 for word in words for tgt, c in word(mon)}
        if terms:
            yield mon, QPolynomial(nvars, terms)


def operator_equal_on_degrees(e1: OperatorExpr, e2: OperatorExpr,
                              table: ActionTable, max_s: int):
    """Residuals of (e1 - e2) on every monomial of total degree <= max_s.

    An empty list means the two expressions agree on that truncation.  No
    monomial goes through ``apply``: the residuals are read off the form
    that ``compile_relation`` compiles from both sides.
    """
    return list(_residuals(compile_relation(e1, e2, table), table.nvars,
                           monomials_up_to(table.nvars, max_s)))


def verify_relations(instances, table: ActionTable, max_s: int):
    """Check a list of relation instances against an action table.

    ``instances`` holds tuples (group_id, indices, lhs, rhs).  To check a
    homomorphism's relations, pass ``image_table(images, table)``.  Returns
    a list of per-instance report dicts.

    Each relation is compiled once from its two sides (``compile_relation``),
    with one memo of word forms for the whole call, so every suffix of every
    word is composed once over ``table``.  The verdict is read off that
    form: OK exactly when it is zero, so the relation holds in every degree.
    A nonzero form fails in some degree, whatever ``max_s`` is; its first
    residual at degree <= ``max_s`` is reported, or ``None`` for the
    monomial and the coefficient if it has none there.  The search walks one
    degree at a time and stops at that first residual.
    """
    n, forms, report = table.nvars, {}, []
    for group_id, indices, lhs, rhs in instances:
        form = compile_relation(lhs, rhs, table, forms)
        entry = {"relation_id": group_id, "instance_indices": list(indices),
                 "ok": not form.components}
        if form.components:
            upward = (mon for s in range(max_s + 1)
                      for mon in monomials_of_degree(n, s))
            first = next(_residuals(form, n, upward), None)
            entry["residual_monomial"] = entry["residual_coefficient"] = None
            if first is not None:
                mon, poly = first
                witness = min(poly.terms)
                entry["residual_monomial"] = list(mon)
                entry["residual_coefficient"] = str(poly.terms[witness])
        report.append(entry)
    return report


def report_failures(report):
    return [entry for entry in report if not entry["ok"]]


def poly_to_text(p: QPolynomial) -> str:
    """Render as ``(<ScalarQ>)*X0^2*X3 + ...`` with monomials lex descending."""
    if p.is_zero:
        return "0"
    parts = []
    for mon in sorted(p.terms, reverse=True):
        factors = []
        for i, e in enumerate(mon):
            if e == 1:
                factors.append("X%d" % i)
            elif e > 1:
                factors.append("X%d^%d" % (i, e))
        body = "*".join(factors) if factors else "1"
        parts.append("(%s)*%s" % (p.terms[mon], body))
    return " + ".join(parts)


_TOKEN = re.compile(r"[0-9]+(?:/[0-9]+)?|[A-Za-z_]\w*|\S", re.ASCII)

# Work on a parsed polynomial grows with its exponents, so larger powers of
# one X_i, and coefficients that run over more powers of q, are refused.
MAX_EXPONENT = 10_000


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
        ``MAX_EXPONENT`` powers of q, counting from q^0."""
        for part in (value.num, value.den):
            if part and (max(part.max_exp(), 0) - min(part.min_exp(), 0)
                         > MAX_EXPONENT):
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
