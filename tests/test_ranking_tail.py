"""The ranking tail (bitfunnel_ray/query/wand.py): every ranked answer of
the serving layer leaves through ``top_k`` / ``ranked_table``, so the
search-after filter, the sort-by-field order and the (rank, doc_id,
score) table literal are written once, in wand.py, and nowhere else
under bitfunnel_ray/query/."""

import ast
import pathlib

PKG = pathlib.Path(__file__).resolve().parent.parent / "bitfunnel_ray"
QUERY = PKG / "query"
TAIL = QUERY / "wand.py"


def _call_name(node: ast.AST) -> "str | None":
    if isinstance(node, ast.Call):
        f = node.func
        return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
    return None


def _is_compare(node: ast.AST, op: type) -> bool:
    """``x <op> c`` with a bare name ``c`` (a cursor value)."""
    return (
        isinstance(node, ast.Compare)
        and len(node.ops) == 1
        and isinstance(node.ops[0], op)
        and isinstance(node.comparators[0], ast.Name)
    )


def _violations(source: str) -> list[str]:
    """Hand-written ranking-tail code in ``source``:
    - the search-after comparison ``(s < s0) | ((s == s0) & (d > d0))``
      against a cursor ``(s0, d0)``;
    - the sort-by-field order: a function that sorts with ``np.lexsort``
      and maps null (``np.isnan``) keys last;
    - a single-query ranked-table literal: a dict with "rank", "doc_id"
      and "score" keys and no "query_id"."""
    out = []
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.BitOr)
            and _is_compare(node.left, ast.Lt)
            and isinstance(node.right, ast.BinOp)
            and isinstance(node.right.op, ast.BitAnd)
            and _is_compare(node.right.left, ast.Eq)
            and _is_compare(node.right.right, ast.Gt)
        ):
            out.append(f"{node.lineno}: search-after comparison")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            calls = {_call_name(n) for n in ast.walk(node)}
            if {"lexsort", "isnan"} <= calls:
                out.append(f"{node.lineno}: sort-by-field order in {node.name}")
        if isinstance(node, ast.Dict):
            keys = {k.value for k in node.keys if isinstance(k, ast.Constant)}
            if {"rank", "doc_id", "score"} <= keys and "query_id" not in keys:
                out.append(f"{node.lineno}: ranked-table literal")
    return out


def test_scan_flags_each_hand_written_tail():
    src = (
        "def f(scores, docs, keys, k):\n"
        "    keep = (scores < s0) | ((scores == s0) & (docs > d0))\n"
        "    keys = np.where(np.isnan(keys), np.inf, keys)\n"
        "    order = np.lexsort((docs, keys))[:k]\n"
        "    return pa.table({'rank': r, 'doc_id': d, 'score': s})\n"
        # legal: a lexsort without null handling, a multi-query table,
        # one comparison alone, the same shape between two rows
        "def g(t, d):\n"
        "    o = np.lexsort((t, -d))\n"
        "    return pa.table({'query_id': q, 'rank': r, 'doc_id': d, 'score': s})\n"
        "mask = scores < s0\n"
        "below = (u < v[i]) | ((u == v[i]) & (t > t[i]))\n"
    )
    assert sorted(v.split(":")[0] for v in _violations(src)) == ["1", "2", "5"]


def test_only_the_tail_ranks():
    found = {
        str(p.relative_to(PKG)): v
        for p in sorted(QUERY.rglob("*.py"))
        if p != TAIL and (v := _violations(p.read_text()))
    }
    assert found == {}, found
    # the tail itself holds each of the three
    assert len(_violations(TAIL.read_text())) == 3
