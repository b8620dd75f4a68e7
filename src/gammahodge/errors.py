"""Shared exception types and the strict readers of JSON input: its keys and integers."""

import re
import sys
from numbers import Integral

_DECIMAL = re.compile(r"-?[0-9]+")


class InvariantError(RuntimeError):
    """An identity the library itself guarantees failed to hold.

    Reaching this is a bug (or a broken install), never a user input
    problem; the CLI maps it to exit code 1.
    """


class ResourceError(RuntimeError):
    """A request would exceed a fixed work or memory limit of the library.

    Raised before the work starts wherever the size is known in advance;
    the CLI maps it to exit code 4.
    """


def strict_int(value, field: str) -> int:
    """``value`` as an int, or a one-line ValueError naming ``field``.

    Accepts integers and decimal-integer strings (reports emit exact integers
    as strings).  Bools and every float, NaN and the infinities included, are
    rejected rather than truncated, and so is a string past Python's
    integer-string digit limit.
    """
    if type(value) is int:  # nearly every value read; bools are type bool
        return value
    if isinstance(value, Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, str) and _DECIMAL.fullmatch(value):
        try:
            return int(value)
        except ValueError:  # only raised past the limit, which exists from 3.10.7 on
            raise ValueError(
                f"{field} has {len(value.lstrip('-'))} digits, over Python's limit of "
                f"{sys.get_int_max_str_digits()} for an integer string") from None
    raise ValueError(f"{field} must be an integer, got {value!r}")


def strict_seed(value) -> int:
    """``value`` read by strict_int as a seed of the 64-bit Philox key: an int in [0, 2**64)."""
    seed = strict_int(value, "seed")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return seed


def fields(doc, where: str, required=(), optional=()) -> dict:
    """``doc`` if it is a JSON object with every ``required`` key and no key outside
    ``required`` and ``optional``, else a one-line ValueError naming ``where``: a
    misspelt key is refused, never read as its default."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, got {doc!r}")
    for key in required:
        if key not in doc:
            raise ValueError(f"{where} needs key {key!r}")
    for key in doc:
        if key not in required and key not in optional:
            raise ValueError(f"{where} takes no key {key!r}")
    return doc
