"""Exception types shared across the package, and the text-line reader
that turns undecodable input into one of them."""


class InputError(ValueError):
    """Malformed or inconsistent user input (graphs, labels, configuration)."""


class NumericalError(RuntimeError):
    """Numerical failure during propagation or weight learning."""


def is_utf8(line: str) -> bool:
    """Whether a line read with errors="surrogateescape" was valid UTF-8:
    each undecodable byte reads as a lone surrogate, which cannot encode."""
    if line.isascii():
        return True
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def numbered_lines(fh, path):
    """Yield (line number, line) from a text handle opened with
    ``encoding="utf-8", errors="surrogateescape"``, raising InputError at
    the first line that is not valid UTF-8."""
    for lineno, line in enumerate(fh, 1):
        if not is_utf8(line):
            raise InputError(f"{path}:{lineno}: not valid UTF-8")
        yield lineno, line
