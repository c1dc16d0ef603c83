"""Hypothesis strategies that put one defect into a valid input file."""

from hypothesis import strategies as st

#: what one token of a file can turn into
TOKENS = ["nan", "inf", "-inf", "-0", "1e308", "-1e308", "", "depth", "1.0.0"]
#: what can stand between the tokens of a line instead of a comma
SEPARATORS = [" ", "\t", ";", ",,", ", ", "|"]


@st.composite
def mutated_lines(draw, rows, sep=","):
    """The text of the rows, one line each with its tokens joined by sep,
    with one defect: a token replaced, a row dropped or duplicated, or
    the separators of one line or of all lines swapped."""
    lines = [list(row) for row in rows]
    seps = [sep] * len(lines)
    kind = draw(st.sampled_from(["token", "drop", "duplicate", "separator"]))
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "token":
        j = draw(st.integers(0, len(lines[i]) - 1))
        lines[i][j] = draw(st.sampled_from(TOKENS))
    elif kind == "drop":
        del lines[i], seps[i]
    elif kind == "duplicate":
        lines.insert(i, list(lines[i]))
        seps.insert(i, sep)
    else:
        swapped = draw(st.sampled_from(SEPARATORS))
        seps = [swapped] * len(lines) if draw(st.booleans()) else seps[:i] + [swapped] + seps[i + 1 :]
    return "".join(sep.join(row) + "\n" for sep, row in zip(seps, lines))
