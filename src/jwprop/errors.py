"""Exception types shared across the package, and the helpers that turn
undecodable input and unknown option values into one of them."""


class InputError(ValueError):
    """Malformed or inconsistent user input (graphs, labels, configuration)."""


class NumericalError(RuntimeError):
    """Numerical failure during propagation or weight learning."""


def enum_member(kind, value, what: str):
    """``kind(value)``, the member of the enum ``kind`` that ``value`` is or
    has as its value; InputError naming ``what`` when there is none."""
    try:
        return kind(value)
    except ValueError:
        raise InputError(f"unknown {what} {value!r}") from None


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
