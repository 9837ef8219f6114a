"""Exception types shared across the package, the one row reader of its
three text formats (``data_rows``), and the helpers that turn undecodable
input and unknown option values into one of them."""


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


def data_rows(fh, path, width: int, expected: str, sep: str | None = None):
    """Yield (line number, fields) for each line of a text handle opened with
    ``encoding="utf-8", errors="surrogateescape"`` that is not blank and does
    not start with '#', split on ``sep`` (any whitespace when None).
    InputError names the first line that is not UTF-8, comment lines
    included, or has not ``width`` fields ("expected {expected}, got ...")."""
    for lineno, line in enumerate(fh, 1):
        if not is_utf8(line):
            raise InputError(f"{path}:{lineno}: not valid UTF-8")
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        fields = text.split(sep)
        if len(fields) != width:
            raise InputError(f"{path}:{lineno}: expected {expected}, got {text!r}")
        yield lineno, fields
