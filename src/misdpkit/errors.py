"""Exception types shared across the package."""

import functools
import json
import math
import re


class MisdpkitError(Exception):
    """Base class for all misdpkit errors."""


class NonConvergence(MisdpkitError):
    """Eigensolver exhausted its sweep budget before reaching the target."""


class NotPsd(MisdpkitError):
    """A discrete matrix failed an exact positive-semidefiniteness test."""


class ShapeMismatch(MisdpkitError):
    pass


class DimensionMismatch(MisdpkitError):
    pass


class PreconditionViolated(MisdpkitError):
    pass


class SizeLimit(MisdpkitError):
    """Input exceeds the documented desk-scale bound of an operation."""


class ParseError(MisdpkitError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UnsupportedDomain(MisdpkitError):
    pass


class IncompleteAssignment(MisdpkitError):
    pass


class NegativeCapacity(MisdpkitError):
    pass


class InfeasibleItem(MisdpkitError):
    pass


class VariantPrecondition(MisdpkitError):
    pass


class SizeMismatch(MisdpkitError):
    pass


class EvenOrder(MisdpkitError):
    pass


class Disconnected(MisdpkitError):
    pass


class AxiomViolation(MisdpkitError):
    """An association-scheme axiom failed; `axiom` names the first failure."""

    def __init__(self, axiom, message):
        super().__init__(f"axiom ({axiom}): {message}")
        self.axiom = axiom


class BudgetExceeded(MisdpkitError):
    pass


class UnsupportedContinuousPattern(MisdpkitError):
    """A continuous variable matches no supported elimination pattern."""


class NotExportable(MisdpkitError, ValueError):
    """A model that no model file can hold: one with defects, or with an
    infinite bound, rhs or objective constant."""


def json_reader(fn):
    """Make a reader of decoded JSON raise ParseError on a missing or malformed field."""

    @functools.wraps(fn)
    def read(obj):
        try:
            return fn(obj)
        except ParseError:
            raise
        except KeyError as exc:
            raise ParseError(f"missing field {exc.args[0]!r}") from None
        except (LookupError, TypeError, ValueError, ArithmeticError, AttributeError, MisdpkitError) as exc:
            raise ParseError(f"malformed data: {exc}") from None

    return read


def json_numbers(obj, field, shape, integral=False):
    """obj[field] as nested lists of finite numbers (ints if `integral`) of
    `shape` (None: any length)."""
    kinds, kind = (int, "an integer") if integral else ((int, float), "a finite number")

    def check(v, shape):
        if not shape:
            if isinstance(v, bool) or not isinstance(v, kinds) or (isinstance(v, float) and not math.isfinite(v)):
                raise ParseError(f"field {field!r} holds {v!r}, not {kind}")
            return v
        if not isinstance(v, list) or shape[0] not in (None, len(v)):
            size = "" if shape[0] is None else f" of length {shape[0]}"
            raise ParseError(f"field {field!r} must be a list{size}, got {v!r}")
        return [check(x, shape[1:]) for x in v]

    return check(obj[field], shape)


# a JSON string, or (group 1) a number or constant token as the decoder reads it
_TOKENS = re.compile(r'"(?:[^"\\]|\\.)*"|(NaN|-?Infinity|-?(?:0|[1-9]\d*)(?:\.\d+)?(?:[eE][-+]?\d+)?)')


class _BadNumber(ValueError):
    """A number token the decoder refuses; args: the token and the message."""


def _finite(text):
    v = float(text)
    if not math.isfinite(v):
        raise _BadNumber(text, f"{text} is not a finite number")
    return v


def _integer(text):
    try:
        return int(text)
    except ValueError:  # past the interpreter's limit on digits
        raise _BadNumber(text, f"integer of {len(text.lstrip('-'))} digits is too long") from None


def loads_json(text):
    """Decode JSON text; raise ParseError, with the line, on malformed text,
    on NaN, Infinity or a number too large for a float, and on an integer
    too long to convert, and without it on nesting too deep to decode."""
    try:
        return json.loads(text, parse_float=_finite, parse_int=_integer, parse_constant=_finite)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno) from None
    except RecursionError:
        raise ParseError("JSON nesting is too deep") from None
    except _BadNumber as exc:
        # the decoder reads in text order, so the first such token outside a string failed
        token, message = exc.args
        at = next(m.start() for m in _TOKENS.finditer(text) if m.group(1) == token)
        raise ParseError(message, line=text.count("\n", 0, at) + 1) from None
