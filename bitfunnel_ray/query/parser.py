"""Query parser with the reference's grammar (reference:
inc/BitFunnel/Plan/QueryParser.h:78-104, src/Plan/src/QueryParser.cpp:142-262):

    OR     := AND ('|' AND)*
    AND    := SIMPLE (['&'] SIMPLE)*          # whitespace is implicit AND
    SIMPLE := '-' SIMPLE | '(' OR ')' ['~' int] | TERM
             # '(...)~m' = minimum-should-match group (beyond the
             # reference's grammar: the Lucene/ES msm contract)
    TERM   := ('"' token+ '"'                 # phrase, >= 2 tokens
            | token ':' '[' bound 'TO' bound ']'   # doc-values range query
             # (Lucene contract, both bounds inclusive; '*' = open bound;
             #  the left token names a NUMERIC docmeta column)
            | token ':' ('"' token+ '"' | token)   # stream-qualified
            | token) ['~' int] ['^' number]
             # '~d' on a single term = Lucene-style fuzzy query
             # (vocabulary expansion at edit distance <= d, d in 1..2);
             # '^number' = query-time boost (term^2.5)
    token  := chars until whitespace or one of  & | ( ) : - " ~ ^
              with backslash escapes of  space \t \f \v & | \\ ( ) " : - ^ ~

Stream names resolve via a {name: id} map (StreamConfiguration analog,
src/Common/Configuration/src/StreamConfiguration.cpp:52-143); fixtures use
the default stream 0 ("body").
"""

from __future__ import annotations

from bitfunnel_ray.query.ast import And, AtLeast, Fuzzy, Node, Not, Or, Phrase, Range, Term

_END_OF_TOKEN = set('&|():-"^~')
_SPACE = set(" \t\f\v\r\n")


class ParseError(ValueError):
    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} (at position {pos})")
        self.msg, self.pos = msg, pos

    def __reduce__(self):
        # rebuilt from (msg, pos), not from the formatted ``args``: a shard
        # actor's parse error must unpickle at the front that called it
        return type(self), (self.msg, self.pos)


class QueryParser:
    def __init__(self, text: str, streams: dict[str, int] | None = None):
        self.text = text
        self.pos = 0
        self.streams = streams or {"body": 0}

    # --- char helpers ---------------------------------------------------
    def _peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else "\0"

    def _get(self) -> str:
        c = self._peek()
        self.pos += 1
        return c

    def _skip_white(self) -> None:
        while self._peek() in _SPACE:
            self.pos += 1

    def _expect(self, c: str) -> None:
        if self._peek() != c:
            raise ParseError(f"Expected {c!r}, got {self._peek()!r}", self.pos)
        self.pos += 1

    # --- grammar --------------------------------------------------------
    def parse(self) -> Node:
        self._skip_white()
        if self._peek() == "\0":
            raise ParseError("Empty query", self.pos)
        node = self._parse_or()
        self._skip_white()
        if self._peek() != "\0":
            raise ParseError(f"Unexpected {self._peek()!r}", self.pos)
        return node

    def _parse_or(self) -> Node:
        children = [self._parse_and()]
        while True:
            self._skip_white()
            if self._peek() == "|":
                self._get()
                children.append(self._parse_and())
            else:
                break
        return children[0] if len(children) == 1 else Or(tuple(children))

    def _parse_and(self) -> Node:
        children = [self._parse_simple()]
        while True:
            self._skip_white()
            c = self._peek()
            if c == "&":
                self._get()
                children.append(self._parse_simple())
            elif c not in ("\0", "|", ")"):
                children.append(self._parse_simple())
            else:
                break
        return children[0] if len(children) == 1 else And(tuple(children))

    def _parse_simple(self) -> Node:
        self._skip_white()
        c = self._peek()
        if c == "-":
            self._get()
            self._skip_white()
            return Not(self._parse_simple())
        if c == "(":
            self._get()
            node = self._parse_or()
            self._skip_white()
            self._expect(")")
            save = self.pos
            self._skip_white()  # '(a b c) ~2' is msm too, not a bare '~'
            if self._peek() == "~":
                return self._parse_min_should_match(node)
            self.pos = save
            return node
        return self._parse_term()

    def _parse_min_should_match(self, node: Node) -> Node:
        """``(a b c)~2`` — minimum-should-match group (the Lucene /
        Elasticsearch minimum_should_match contract as a group suffix).
        Applies to the group's direct children whatever the connective
        inside: ``m=1`` degenerates to Or, ``m=len`` to And."""
        self._expect("~")
        start = self.pos
        digits = ""
        while self._peek().isdigit():
            digits += self._get()
        if not digits:
            raise ParseError("Expected integer after '~'", start)
        m = int(digits)
        children = node.children if isinstance(node, (And, Or)) else (node,)
        if m < 1 or m > len(children):
            raise ParseError(
                f"minimum-should-match {m} out of range 1..{len(children)}", start
            )
        if any(isinstance(c, Not) for c in children):
            raise ParseError("negated clause inside a ~N group", start)
        return AtLeast(m, tuple(children))

    def _parse_term(self) -> Node:
        self._skip_white()
        if self._peek() == '"':
            return self._with_boost(self._parse_phrase(0))
        left = self._parse_token()
        if self._peek() == ":":
            self._get()
            if self._peek() == "[":
                # col:[lo TO hi] — Lucene range query over a doc-values
                # column (left is a COLUMN name here, not a stream)
                return self._parse_range(left)
            stream = self._stream_id(left)
            if self._peek() == '"':
                return self._with_boost(self._parse_phrase(stream))
            return self._with_boost(self._with_fuzzy(Term(self._parse_token(), stream)))
        return self._with_boost(self._with_fuzzy(Term(left, 0)))

    def _parse_range(self, col: str) -> Node:
        self._expect("[")

        def number() -> float:
            self._skip_white()
            start = self.pos
            while self._peek() not in _SPACE and self._peek() not in ("]", "\0"):
                self.pos += 1
            tok = self.text[start : self.pos]
            if tok == "*":  # open bound
                return None
            try:
                return float(tok)
            except ValueError:
                raise ParseError(f"Bad range bound {tok!r}", start) from None

        lo = number()
        self._skip_white()
        if self.text[self.pos : self.pos + 2] != "TO":
            raise ParseError("Expected TO in range", self.pos)
        self.pos += 2
        hi = number()
        self._skip_white()
        self._expect("]")
        return Range(
            col,
            float("-inf") if lo is None else lo,
            float("inf") if hi is None else hi,
        )

    def _with_fuzzy(self, node: Node) -> Node:
        """Optional ``~d`` suffix on a single term — the Lucene fuzzy
        query.  Distance is restricted to 1..2 (Lucene's own bound:
        larger radii make every term a match).  Phrases take no ``~``
        (phrase slop is the proximity operator's job, ops/proximity.py);
        group-level ``(...)~m`` is minimum-should-match and is handled
        at the group site in ``_parse_simple``."""
        if self._peek() != "~":
            return node
        self._get()
        start = self.pos
        digits = ""
        while self._peek().isdigit():
            digits += self._get()
        if not digits:
            raise ParseError("Expected integer after '~'", start)
        dist = int(digits)
        if dist < 1 or dist > 2:
            raise ParseError(f"fuzzy distance {dist} out of range 1..2", start)
        return Fuzzy(node.text, node.stream, node.boost, dist)

    def _with_boost(self, node: Node) -> Node:
        """Optional ``^number`` suffix — the Lucene-style query-time
        score multiplier.  Applies to terms and phrases; a boost of 1.0
        is the identity (bit-exact with the unboosted path)."""
        if self._peek() != "^":
            return node
        self._get()
        start = self.pos
        while self._peek().isdigit() or self._peek() == ".":
            self.pos += 1
        if self.pos == start:
            raise ParseError("Expected number after ^", self.pos)
        try:
            boost = float(self.text[start : self.pos])
        except ValueError:
            raise ParseError("Bad boost value", start) from None
        if isinstance(node, Fuzzy):
            return Fuzzy(node.text, node.stream, boost, node.dist)
        if isinstance(node, Term):
            return Term(node.text, node.stream, boost)
        return Phrase(node.tokens, node.stream, boost)

    def _parse_phrase(self, stream: int) -> Node:
        self._expect('"')
        tokens = []
        while True:
            self._skip_white()
            if self._peek() == '"':
                self._get()
                break
            if self._peek() == "\0":
                raise ParseError("Unterminated phrase", self.pos)
            tokens.append(self._parse_token())
        if len(tokens) < 2:
            # reference rejects 1-token phrases (QueryParser.cpp:238-247)
            raise ParseError("A phrase in double-quotes must have at least two terms", self.pos)
        return Phrase(tuple(tokens), stream)

    def _parse_token(self) -> str:
        out = []
        while True:
            c = self._peek()
            if c == "\0" or c in _SPACE or c in _END_OF_TOKEN:
                break
            if c == "\\":
                self._get()
                out.append(self._get())
            else:
                out.append(self._get())
        if not out:
            raise ParseError("Expected token", self.pos)
        return "".join(out)

    def _stream_id(self, name: str) -> int:
        if name not in self.streams:
            raise ParseError(f"Unknown stream {name!r}", self.pos)
        return self.streams[name]


def parse_query(text: str, streams: dict[str, int] | None = None) -> Node:
    return QueryParser(text, streams).parse()
