"""Exact rational scalars and their "p/q" wire format."""

from fractions import Fraction


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (or a plain integer string) into an exact rational."""
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def format_rational(value) -> str:
    """Render as "p/q", keeping an explicit denominator even for integers."""
    f = value if type(value) in (int, Fraction) else Fraction(value)  # ints have the parts too
    return f"{f.numerator}/{f.denominator}"
