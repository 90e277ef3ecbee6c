"""The naive reader of a spec's braced point lists: every token the
tokenizing regex finds is parsed, in order, then every point is checked
against the universe, in order, and the mask is built point by point in
universe order, with no cache and no lookup by spelling.

It is the reference that ``specfile``'s point-list reading (one lookup per
written spelling, and the tokenizer it falls back to) is tested against:
the same masks, and the same error for the same list.
"""

import re

from abslog.errors import SpecError

# an int tuple, which may hold spaces, or a run of non-space characters
TOKEN = re.compile(r"\(\s*-?\d+\s*(?:,\s*-?\d+\s*)+\)|\S+")


def parse_point(tok: str, uni):
    """A token read by the universe's shape: an atom name, an int on a 1-D
    window, an int tuple on a window of higher dimension."""
    if uni.bounds is None:
        return tok
    try:
        if uni.dim == 1:
            return int(tok)
        if tok.startswith("("):
            return tuple(int(x) for x in tok[1:-1].split(","))
    except ValueError:
        pass
    raise SpecError(f"point {tok} is outside the universe")


def read_point_list(body: str, uni) -> int:
    """The point mask of a point list's text between its braces; the first
    unparsable token wins over an earlier point outside the universe."""
    pts = [parse_point(t, uni) for t in TOKEN.findall(body)]
    for p in pts:
        if p not in uni.point_set:
            raise SpecError(f"point {p!r} is outside the universe")
    chosen = set(pts)
    return sum(1 << j for j, p in enumerate(uni.points) if p in chosen)
