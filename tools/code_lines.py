"""Print the code lines of each src/tlsq module and their total.

A code line holds at least one token that is not a comment, a docstring (a
string that stands alone as a statement) or layout (newlines, indentation).
Standard library only; run as `python3 tools/code_lines.py`.
"""

import pathlib
import tokenize

LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
SKIPPED = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL}


def code_lines(path) -> int:
    with open(path, "rb") as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline) if t.type not in SKIPPED]
    types = [t.type for t in tokens]
    lines = set()
    for prev, tok, nxt in zip([tokenize.NEWLINE, *types], tokens, [*types[1:], None]):
        alone = prev in LAYOUT and nxt == tokenize.NEWLINE
        if tok.type not in LAYOUT and not (tok.type == tokenize.STRING and alone):
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


src = pathlib.Path(__file__).resolve().parent.parent / "src" / "tlsq"
counts = {path.name: code_lines(path) for path in sorted(src.glob("*.py"))}
for name, count in counts.items():
    print(f"{name:16} {count:5}")
print(f"{'total':16} {sum(counts.values()):5}")
