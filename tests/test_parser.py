import pytest

from bitfunnel_ray.query.ast import And, Not, Or, Phrase, Term
from bitfunnel_ray.query.parser import ParseError, parse_query


def test_unigram():
    assert parse_query("cat") == Term("cat", 0)


def test_implicit_and_and_ampersand():
    assert parse_query("cat dog") == And((Term("cat"), Term("dog")))
    assert parse_query("cat & dog") == And((Term("cat"), Term("dog")))
    assert parse_query("cat&dog") == And((Term("cat"), Term("dog")))


def test_or_and_precedence():
    # '|' binds looser than implicit AND (QueryParser.cpp ParseOr/ParseAnd)
    q = parse_query("a b | c")
    assert q == Or((And((Term("a"), Term("b"))), Term("c")))


def test_not_and_grouping():
    assert parse_query("-cat") == Not(Term("cat"))
    assert parse_query("a -b") == And((Term("a"), Not(Term("b"))))
    assert parse_query("(a | b) c") == And((Or((Term("a"), Term("b"))), Term("c")))
    assert parse_query("--a") == Not(Not(Term("a")))


def test_phrase():
    assert parse_query('"alpha beta"') == Phrase(("alpha", "beta"))
    with pytest.raises(ParseError):
        parse_query('"alpha"')  # 1-token phrase rejected (QueryParser.cpp:238-247)
    with pytest.raises(ParseError):
        parse_query('"alpha beta')  # unterminated


def test_parse_error_survives_pickling():
    """A shard actor's ParseError reaches the front pickled: it must come
    back as a ParseError with the same position and message."""
    import pickle

    with pytest.raises(ParseError) as ei:
        parse_query("spark AND (")
    back = pickle.loads(pickle.dumps(ei.value))
    assert type(back) is ParseError
    assert (back.pos, str(back)) == (ei.value.pos, str(ei.value))


def test_stream_prefix():
    assert parse_query("body:cat") == Term("cat", 0)
    assert parse_query('body:"a b"') == Phrase(("a", "b"), 0)
    with pytest.raises(ParseError):
        parse_query("nosuch:cat")


def test_escapes():
    assert parse_query(r"a\-b") == Term("a-b", 0)
    assert parse_query(r"a\ b") == Term("a b", 0)
    assert parse_query(r"a\\b") == Term("a\\b", 0)


def test_errors():
    for bad in ["", "   ", "(a", "a )", "&", "|a"]:
        with pytest.raises(ParseError):
            parse_query(bad)


def test_boost_syntax():
    assert parse_query("cat^2") == Term("cat", 0, 2.0)
    assert parse_query("cat^2.5 dog") == And((Term("cat", 0, 2.5), Term("dog")))
    assert parse_query('"a b"^3') == Phrase(("a", "b"), 0, 3.0)
    assert parse_query("body:cat^0.5") == Term("cat", 0, 0.5)
    # escaped caret is a literal token char
    assert parse_query(r"a\^b") == Term("a^b", 0)
    for bad in ["cat^", "cat^x", "cat^1.2.3"]:
        with pytest.raises(ParseError):
            parse_query(bad)


def test_min_should_match():
    from bitfunnel_ray.query.ast import AtLeast

    assert parse_query("(a b c)~2") == AtLeast(
        2, (Term("a"), Term("b"), Term("c"))
    )
    assert parse_query("(a | b | c)~1") == AtLeast(
        1, (Term("a"), Term("b"), Term("c"))
    )
    # single-child group degenerates to a 1-of-1 group
    assert parse_query("(a)~1") == AtLeast(1, (Term("a"),))
    # composes as a SIMPLE inside AND
    q = parse_query("x (a b c)~2")
    assert q == And((Term("x"), AtLeast(2, (Term("a"), Term("b"), Term("c")))))


def test_min_should_match_errors():
    with pytest.raises(ParseError):
        parse_query("(a b)~")  # missing integer
    with pytest.raises(ParseError):
        parse_query("(a b)~3")  # m > children
    with pytest.raises(ParseError):
        parse_query("(a b)~0")  # m < 1
    with pytest.raises(ParseError):
        parse_query("(a -b)~1")  # negated clause in group


def test_msm_allows_space_before_tilde():
    """'(a b c) ~2' is minimum-should-match, same as without the space
    (earlier grammars tokenized the dangling '~2')."""
    assert parse_query("(a b c) ~2") == parse_query("(a b c)~2")
    # a group followed by a NEW term still parses as plain AND
    assert parse_query("(a b) c") == And((And((Term("a"), Term("b"))), Term("c")))
