"""Shared exception types, and the text reader and typed-field check that raise them."""

import contextlib
from collections.abc import Iterator
from typing import TextIO


class DataError(ValueError):
    """Malformed or inconsistent input data (bad file, unknown label, ...).

    The CLI maps this to exit code 2, as opposed to usage errors (exit 1).
    """


class TrainingError(Exception):
    """Training diverged: a loss, gradient or weight stopped being finite.

    Not a ValueError, since the inputs may be fine; the CLI maps it to
    exit code 3.
    """


NUMBER = (int, float)  # JSON numbers; ``require`` rejects ``true`` as one


def require(
    section: object, key: str, kinds: tuple[type, ...], where: str, items: tuple[type, ...] = ()
):
    """``section[key]`` if ``section`` is a dict and the value's type is in ``kinds``.

    With ``items``, every element's type must be in ``items`` as well.
    Types match exactly, so a JSON ``true`` is not an int.  Anything
    else raises a DataError naming ``where`` and ``key``.
    """
    value = section.get(key) if isinstance(section, dict) else None
    if type(value) not in kinds or (items and any(type(v) not in items for v in value)):
        raise DataError(f"{where}: key {key!r} is missing or of the wrong type")
    return value


@contextlib.contextmanager
def open_text(path: str) -> Iterator[TextIO]:
    """``open(path, encoding="utf-8")`` for reading, where bytes that are
    not UTF-8 raise a DataError naming ``path``."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        # ``exc.start`` counts from the start of a read buffer, not of the
        # file, so only the byte and the reason are reported.
        bad = exc.object[exc.start]
        raise DataError(f"{path}: not UTF-8 text (byte 0x{bad:02x}: {exc.reason})") from None
