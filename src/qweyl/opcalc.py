"""The polynomial ring Q(q)[X_0..X_{r+1}] and a free operator calculus.

Operators are formal ScalarQ-linear combinations of words in generator
symbols.  A word acts on a polynomial rightmost symbol first, through a
pluggable action table mapping each symbol to a linear endomorphism given on
monomials.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, NamedTuple, Tuple

from .qscalar import ScalarQ, _run, _window_product
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


class QPolynomial:
    """Sparse polynomial: map from exponent vector to nonzero ScalarQ."""

    __slots__ = ("nvars", "terms")

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

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        if self.nvars != other.nvars:
            raise ValueError("mixing polynomial rings")
        t = dict(self.terms)
        for mon, c in other.terms.items():
            w = t.get(mon)
            w = c if w is None else w + c
            if w.is_zero:
                t.pop(mon, None)
            else:
                t[mon] = w
        out = QPolynomial.__new__(QPolynomial)
        out.nvars, out.terms = self.nvars, t
        return out

    def __neg__(self):
        out = QPolynomial.__new__(QPolynomial)
        out.nvars = self.nvars
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "QPolynomial":
        c = c if isinstance(c, ScalarQ) else ScalarQ(c)
        if c.is_zero:
            return QPolynomial.zero(self.nvars)
        out = QPolynomial.__new__(QPolynomial)
        out.nvars = self.nvars
        out.terms = {m: co * c for m, co in self.terms.items()}
        return out

    def mul_monomial(self, mon: Monomial, coeff=1) -> "QPolynomial":
        """Multiply by coeff * X^mon (adds exponent vectors)."""
        out = QPolynomial(self.nvars)
        coeff = coeff if isinstance(coeff, ScalarQ) else ScalarQ(coeff)
        if not coeff.is_zero:
            out.terms = {tuple(x + y for x, y in zip(m, mon)): c * coeff
                         for m, c in self.terms.items()}
        return out

    def __mul__(self, other: "QPolynomial") -> "QPolynomial":
        if self.nvars != other.nvars:
            raise ValueError("mixing polynomial rings")
        out = QPolynomial.zero(self.nvars)
        for mon, c in other.terms.items():
            out = out + self.mul_monomial(mon, c)
        return out

    def scale_var(self, i: int, power: int) -> "QPolynomial":
        """Substitute X_i -> q^power * X_i."""
        out = QPolynomial.__new__(QPolynomial)
        out.nvars = self.nvars
        out.terms = {m: c * ScalarQ.q_power(power * m[i])
                     for m, c in self.terms.items()}
        return out

    def __eq__(self, other):
        if not isinstance(other, QPolynomial):
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


class OperatorExpr:
    """Formal ScalarQ-linear combination of words in generator symbols."""

    __slots__ = ("terms",)

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

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _combine(self, other: "OperatorExpr", sign: int) -> "OperatorExpr":
        """self + sign * other in one pass over other's terms."""
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
        out = OperatorExpr.__new__(OperatorExpr)
        out.terms = t
        return out

    def __add__(self, other: "OperatorExpr") -> "OperatorExpr":
        return self._combine(other, 1)

    def __neg__(self):
        out = OperatorExpr.__new__(OperatorExpr)
        out.terms = {w: -c for w, c in self.terms.items()}
        return out

    def __sub__(self, other: "OperatorExpr") -> "OperatorExpr":
        return self._combine(other, -1)

    def scale(self, c) -> "OperatorExpr":
        c = c if isinstance(c, ScalarQ) else ScalarQ(c)
        if c.is_zero:
            return OperatorExpr.zero()
        out = OperatorExpr.__new__(OperatorExpr)
        out.terms = {w: co * c for w, co in self.terms.items()}
        return out

    def __mul__(self, other: "OperatorExpr") -> "OperatorExpr":
        """Word concatenation extended bilinearly."""
        out = OperatorExpr.zero()
        t = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                c = c1 * c2
                v = t.get(w)
                v = c if v is None else v + c
                if v.is_zero:
                    t.pop(w, None)
                else:
                    t[w] = v
        out.terms = t
        return out

    def __eq__(self, other):
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        return self.terms == other.terms

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


TermList = List[Tuple[Monomial, ScalarQ]]
MonomialAction = Callable[[Monomial], TermList]


class ActionTable:
    """Maps generator symbols to linear endomorphisms given on monomials."""

    def __init__(self, nvars: int, entries: Dict[GeneratorSymbol, MonomialAction]):
        self.nvars = nvars
        self.entries = dict(entries)

    def __contains__(self, sym: GeneratorSymbol) -> bool:
        return sym in self.entries

    def act(self, sym: GeneratorSymbol, mon: Monomial) -> TermList:
        return self.entry(sym)(mon)

    def entry(self, sym: GeneratorSymbol) -> MonomialAction:
        """The action of ``sym``; a KeyError naming it if the table has none."""
        try:
            return self.entries[sym]
        except KeyError:
            raise KeyError("unknown symbol %s in action table"
                           % sym.label) from None

    def merged(self, other: "ActionTable") -> "ActionTable":
        if self.nvars != other.nvars:
            raise ValueError("mixing action tables over different rings")
        entries = dict(self.entries)
        entries.update(other.entries)
        return ActionTable(self.nvars, entries)


def image_table(images: Dict[GeneratorSymbol, OperatorExpr],
                table: ActionTable) -> ActionTable:
    """The homomorphism ``images`` followed by ``table``'s action.

    Every chi, iota, phi and alias image is a sum of words with Laurent
    coefficients, one shift vector and one d-count: it sums into one
    ``ShiftWord`` from one memo of word forms per call, as in the compiler.
    """
    n, forms, entries = table.nvars, {}, {}
    for sym, image in images.items():
        shapes, total = set(), {}
        for word, c in image.terms.items():
            delta, poly, divided = _word_form(word, table, forms)
            shapes.add((delta, divided))
            _add_terms(total, poly, c.as_laurent())
        if len(shapes) > 1:
            raise ValueError("words differ in shift vector or d-count")
        delta, divided = shapes.pop() if shapes else ((0,) * n, 0)
        entries[sym] = ShiftWord.from_poly(delta, total, divided)
    return ActionTable(n, entries)


def walk_word(word: Word, mon: Monomial, table: ActionTable,
              c: ScalarQ = _ONE) -> list:
    """The paths of ``word`` from c*X^mon, rightmost letter first: each is
    (target, c, lo, v, widths), the term c*v*q^lo*X^target times (1 + q^2 +
    ... + q^(2(m-1))) for each m in widths.  A step that is such a run, as
    every q-integer and every +-q^k is, goes into lo, v and widths (if
    m >= 2); any other nonzero step multiplies c, and a zero one ends its
    path.  So ``apply`` multiplies each path's q-integers out once."""
    paths = [(mon, c, 0, 1, ())]
    for sym in reversed(word):
        nxt = []
        for mon, c, lo, v, widths in paths:
            for target, step in table.act(sym, mon):
                if step.is_zero:
                    continue
                run = step.is_polynomial and _run(dict(step.num.items()))
                if run:
                    lo2, m, v2 = run
                    nxt.append((target, c, lo + lo2, v * v2,
                                widths + (m,) if m > 1 else widths))
                else:
                    nxt.append((target, c * step, lo, v, widths))
        paths = nxt
    return paths


def expand_paths(paths, acc: Dict[Monomial, ScalarQ]
                 ) -> Dict[Monomial, ScalarQ]:
    """Add each ``walk_word`` path, its q-integers multiplied out once, to
    the term it reaches in ``acc`` (monomial to ScalarQ), dropping sums
    that cancel; returns ``acc``."""
    for target, pc, lo, v, widths in paths:
        num = (_window_product(dict(pc.num.items()), widths, lo, v)
               if widths else pc.num._term_mul(lo, v))
        value = ScalarQ(num, pc.den)
        w = acc.get(target)
        w = value if w is None else w + value
        if w.is_zero:
            acc.pop(target, None)
        else:
            acc[target] = w
    return acc


def apply(expr: OperatorExpr, p: QPolynomial, table: ActionTable) -> QPolynomial:
    """Apply an operator expression to a polynomial, rightmost symbol first,
    as the sum of the ``walk_word`` paths of every word and term."""
    acc: Dict[Monomial, ScalarQ] = {}
    for word, c in expr.terms.items():
        for mon, coeff in p.terms.items():
            expand_paths(walk_word(word, mon, table, coeff * c), acc)
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
