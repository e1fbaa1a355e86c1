"""Tokenizer for the SQL subset used by the view definitions.

The dialect covers the paper's Example 1.1 and a little more:
``CREATE VIEW``, ``SELECT [DISTINCT]``, comma joins with range
variables, ``WHERE`` with comparison predicates and ``AND``/``OR``/
``NOT``, plus the bag set operations ``UNION ALL``, ``EXCEPT [ALL]``
and ``INTERSECT [ALL]``.

The two literal rules (NUMBER, STRING) are written once, here:
:func:`tokenize` applies them at a token boundary and :data:`LITERAL`
finds the same literals anywhere in a text, which is how
:mod:`repro.sqlfront.prepared` lifts them out of a statement without
tokenizing it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any

from repro.errors import ParseError

__all__ = ["Token", "tokenize", "KEYWORDS", "LITERAL", "literal_value"]

KEYWORDS = frozenset(
    {
        "CREATE",
        "VIEW",
        "AS",
        "SELECT",
        "DISTINCT",
        "ALL",
        "FROM",
        "WHERE",
        "AND",
        "OR",
        "NOT",
        "UNION",
        "EXCEPT",
        "INTERSECT",
        "NULL",
        "TRUE",
        "FALSE",
        "INSERT",
        "INTO",
        "TABLE",
        "VALUES",
        "DELETE",
        "UPDATE",
        "SET",
        "GROUP",
        "BY",
    }
)

# ASCII digits only: ``str.isdigit`` also admits characters such as "²"
# that ``int()`` rejects.  A dot belongs to the number only when a digit
# follows it; otherwise it is the qualifier dot.
_DIGITS = r"[0-9]+(?:\.[0-9]+)?"
# '…' doubles an embedded quote; "…" is accepted as a convenience and has
# no escape.
_STRING = r"'(?:[^']|'')*'|\"[^\"]*\""

# A minus directly before a digit is lexed into the number.
_TOKEN = re.compile(
    rf"(?:(?P<NUMBER>-?{_DIGITS})|(?P<STRING>{_STRING})|(?P<WORD>\w+)"
    r"|(?P<OP>!=|<>|<=|>=|[=<>+/-])|(?P<PUNCT>[,()*.;]))\s*"
)

#: The NUMBER / STRING rules of :func:`tokenize`, findable anywhere in a
#: text (one capture group, for ``split``).  The look-behind keeps the
#: digits of a word (``x1``, ``t1.c2``) where the lexer leaves them; the
#: look-ahead only spares the engine both rules at most characters.
LITERAL = re.compile(rf"((?=[-0-9'\"])(?:-?(?<!\w){_DIGITS}|{_STRING}))")


def literal_value(text: str) -> Any:
    """The Python value of one literal's source text (as :data:`LITERAL` matches it).

    Raises :class:`ValueError` for an integer longer than the
    interpreter converts (CPython: 4 300 digits).
    """
    quote = text[0]
    if quote == "'":
        return text[1:-1].replace("''", "'")
    if quote == '"':
        return text[1:-1]
    return float(text) if "." in text else int(text)


@dataclass(frozen=True)
class Token:
    """One lexical token: a ``kind``, its ``text``, and source position."""

    kind: str  # KEYWORD | NAME | NUMBER | STRING | OP | PUNCT | EOF
    text: str
    position: int
    #: The Python value of a NUMBER / STRING token; ``None`` for the rest.
    value: Any = None


def tokenize(source: str) -> list[Token]:
    """Split ``source`` into tokens, ending with an EOF token."""
    tokens: list[Token] = []
    length = len(source)
    index = length - len(source.lstrip())
    while index < length:
        match = _TOKEN.match(source, index)
        if match is None:
            if source[index] in "'\"":
                raise ParseError("unterminated string literal", index)
            raise ParseError(f"unexpected character {source[index]!r}", index)
        kind = match.lastgroup
        text = match.group(kind)
        if kind == "NUMBER":
            try:
                tokens.append(Token(kind, text, index, literal_value(text)))
            except ValueError:
                raise ParseError(f"numeric literal of {len(text)} characters is too long", index) from None
        elif kind == "STRING":
            value = literal_value(text)
            tokens.append(Token(kind, value, index, value))
        elif kind == "WORD":
            if not (text[0].isalpha() or text[0] == "_"):
                raise ParseError(f"unexpected character {text[0]!r}", index)
            keyword = text.upper()
            tokens.append(Token("KEYWORD", keyword, index) if keyword in KEYWORDS else Token("NAME", text, index))
        elif kind == "OP":
            tokens.append(Token(kind, "!=" if text == "<>" else text, index))
        else:
            tokens.append(Token(kind, text, index))
        index = match.end()
    tokens.append(Token("EOF", "", length))
    return tokens
