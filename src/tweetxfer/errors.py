"""Shared exception types and the typed-field check that raises them."""


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
