"""Every package module stays below 8192 parser-visible tokens.

CPython's parser doubles its token buffer at 8192 tokens, so a module that
crosses that line adds about 0.55 MB to the compile peak of every fresh
import.  The benchmark's ``peak_rss_mb`` is reached while the package is
compiled: a draft that kept ``PointMasks`` in ``proofengine.py``
(8433 tokens) read ``peak_rss_mb`` +2.7% on ``builtins`` and +2.4% on
``casestudies``, which runs no soundness check (ROADMAP, item 5).  The count
leaves out comments and non-logical newlines, which the parser never sees.
"""

import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "abslog"
MAX_TOKENS = 8191
UNSEEN = (tokenize.COMMENT, tokenize.NL)


def parser_tokens(path: Path) -> int:
    with path.open(encoding="utf-8") as f:
        return sum(t.type not in UNSEEN for t in tokenize.generate_tokens(f.readline))


def test_every_module_stays_below_the_token_buffer_doubling():
    sizes = {path.name: parser_tokens(path) for path in sorted(PACKAGE.glob("*.py"))}
    over = {name: n for name, n in sizes.items() if n > MAX_TOKENS}
    assert not over, f"modules over {MAX_TOKENS} parser-visible tokens: {over}"
