"""Truncated Laurent series with coefficients in Z/m.

The universal value type of the package.  A series stores the exact
residues of its coefficients for every exponent in the window
[valuation, precision); below the valuation the series is zero by
definition, at the precision and above nothing is known.  Every
operation is pure, and every coefficient it returns is exact in Z/m;
its precision is a proven one, but not always the largest provable.
"""

from __future__ import annotations

import math
import sys
from array import array
from itertools import repeat
from typing import Iterable, Sequence

#: array typecode of each slot width the machine has a C type for
_SLOT_CODES = {array(code).itemsize: code for code in "BHILQ"}
#: the C type each slot width of at most 8 bytes is packed through
_C_SIZES = {width: min(s for s in _SLOT_CODES if s >= width) for width in range(1, 9)}
#: where the low bytes of a C integer sit within it
_BIG_ENDIAN = sys.byteorder == "big"


class ModulusMismatchError(ValueError):
    """Operands live over different coefficient rings."""


class PrecisionError(ValueError):
    """A computation needs coefficients beyond the known window."""


def _slot_width(count: int, modulus: int) -> int:
    """Bytes per slot that hold every coefficient of an exact product of
    residue windows, the shorter of which has ``count`` entries."""
    return ((count * (modulus - 1) ** 2).bit_length() + 7) // 8


def _pack(coeffs: Sequence[int], width: int) -> int:
    if width > 8:
        data = b"".join(c.to_bytes(width, sys.byteorder) for c in coeffs)
    else:
        size = _C_SIZES[width]
        data = array(_SLOT_CODES[size], coeffs).tobytes()
        if size > width:
            # keep the low ``width`` bytes of each C integer: one slice per byte
            low = size - width if _BIG_ENDIAN else 0
            packed = bytearray(len(coeffs) * width)
            for j in range(width):
                packed[j::width] = data[low + j :: size]
            data = packed
    return int.from_bytes(data, sys.byteorder)


def _unpack(data: bytes, width: int, modulus: int) -> list[int]:
    if width > 8:
        return [
            int.from_bytes(data[i : i + width], sys.byteorder) % modulus
            for i in range(0, len(data), width)
        ]
    size = _C_SIZES[width]
    if size > width:
        # widen each slot to its C type, the high bytes staying zero
        low = size - width if _BIG_ENDIAN else 0
        wide = bytearray(len(data) // width * size)
        for j in range(width):
            wide[low + j :: size] = data[j::width]
        data = wide
    return [c % modulus for c in memoryview(data).cast(_SLOT_CODES[size])]


def _convolve(
    a: Sequence[int], b: Sequence[int], modulus: int, terms: int | None = None
) -> list[int]:
    """The first ``terms`` coefficients of the product of two windows, mod modulus.

    Kronecker substitution: each window becomes one integer with a
    byte-aligned slot per coefficient, exactly as many bytes wide as the
    largest coefficient of the exact product needs, and one integer
    product does the convolution.  Slots of at most 8 bytes go through
    ``array`` at the next C type, whose zero high bytes one byte slice
    per slot byte drops (and restores on the way back); wider ones go
    through ``int.to_bytes``.  Entries past ``terms`` cannot reach the
    kept coefficients and are not packed.  A square (``a is b``) is packed
    once and multiplied by itself, which CPython squares in fewer digit
    products.  The entries must be canonical residues in [0, modulus),
    since a larger one could overflow its slot.
    """
    square = a is b
    if terms is not None:
        a, b = a[:terms], b[:terms]
    if not a or not b:
        return []
    width = _slot_width(min(len(a), len(b)), modulus)
    full = len(a) + len(b) - 1
    keep = full if terms is None else min(terms, full)
    packed = _pack(a, width)
    product = packed * packed if square else packed * _pack(b, width)
    data = product.to_bytes(full * width, sys.byteorder)[: keep * width]
    return _unpack(data, width, modulus)


def _format_sum(terms: Iterable[Sequence[int]], letters: str) -> str:
    """Print the sum of the terms (e_1, ..., e_n, c), each c * x_1^e_1 * ... * x_n^e_n.

    The letters name x_1, ..., x_n.  A term with c = 0 is left out; any
    other prints as ``c*mono``, as the bare monomial when c = 1, or as
    ``c`` when the monomial is 1, and a power as nothing, ``x`` or ``x^e``.
    Terms are joined by " + ", and an empty sum prints ``0``.
    """
    shown = []
    for *powers, c in terms:
        if c:
            mono = "".join(x if e == 1 else f"{x}^{e}" for x, e in zip(letters, powers) if e)
            shown.append(str(c) if not mono else mono if c == 1 else f"{c}*{mono}")
    return " + ".join(shown) or "0"


class TruncatedSeries:
    """A Laurent q-series over Z/m, exact on [valuation, precision)."""

    __slots__ = ("modulus", "valuation", "coeffs", "precision")

    def __init__(self, modulus: int, coeffs: Iterable[int], valuation: int = 0):
        if modulus < 2:
            raise ValueError(f"modulus must be at least 2, got {modulus}")
        self._normalise(modulus, [int(c) % modulus for c in coeffs], valuation)

    @classmethod
    def _of_residues(
        cls, modulus: int, vals: Sequence[int], valuation: int = 0
    ) -> "TruncatedSeries":
        """The series of canonical residues in [0, modulus), not reduced again."""
        series = cls.__new__(cls)
        series._normalise(modulus, vals, valuation)
        return series

    def _normalise(self, modulus: int, vals: Sequence[int], valuation: int) -> None:
        precision = valuation + len(vals)
        lead = 0
        while lead < len(vals) and vals[lead] == 0:
            lead += 1
        if lead == len(vals):
            # zero on the whole window: canonical form has valuation 0
            if precision >= 0:
                valuation, vals = 0, [0] * precision
            else:
                valuation, vals = precision, []
        elif lead:
            valuation += lead
            vals = vals[lead:]
        self.modulus = modulus
        self.valuation = valuation
        self.coeffs = tuple(vals)
        self.precision = precision

    @classmethod
    def one(cls, modulus: int, terms: int) -> "TruncatedSeries":
        if terms < 1:
            raise ValueError("the constant series needs at least one known term")
        return cls(modulus, [1] + [0] * (terms - 1))

    def _require_same_ring(self, other: "TruncatedSeries") -> None:
        if self.modulus != other.modulus:
            raise ModulusMismatchError(
                f"modulus mismatch: {self.modulus} vs {other.modulus}"
            )

    def coefficient(self, n: int) -> int:
        """The exact residue of the q^n coefficient."""
        if n >= self.precision:
            raise PrecisionError(
                f"coefficient of q^{n} is beyond the known precision {self.precision}"
            )
        if n < self.valuation:
            return 0
        return self.coeffs[n - self.valuation]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def agrees_with(self, other: "TruncatedSeries") -> bool:
        """Coefficient-wise equality on the common known window."""
        self._require_same_ring(other)
        stop = min(self.precision, other.precision)
        start = min(self.valuation, other.valuation)
        return all(self.coefficient(n) == other.coefficient(n) for n in range(start, stop))

    # ------------------------------------------------------------------
    # ring operations

    def add(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._require_same_ring(other)
        m = self.modulus
        prec = min(self.precision, other.precision)
        v = min(self.valuation, other.valuation)
        out = [(self.coefficient(n) + other.coefficient(n)) % m for n in range(v, prec)]
        return TruncatedSeries._of_residues(m, out, v)

    def mul(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Cauchy product, truncated to min(N_f + v_g, N_g + v_f)."""
        self._require_same_ring(other)
        v = self.valuation + other.valuation
        keep = min(len(self.coeffs), len(other.coeffs))
        conv = _convolve(self.coeffs, other.coeffs, self.modulus, keep)
        return TruncatedSeries._of_residues(self.modulus, conv, v)

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse: a finite geometric sum, or Newton iteration.

        Write f = lead^-1 * (1 - u), with lead the inverse of the
        constant term, and let d = gcd(m, coefficients of q^1 onward);
        d divides every coefficient of u.  When d^3 = 0 mod m, every
        coefficient of u^3 is a multiple of d^3, so u^3 = 0 and
        1/f = lead * (1 + u + u^2) exactly.  With u = d*v, the square
        d^2 * v^2 mod m depends only on v^2 mod m / gcd(m, d^2): it is
        zero when that is 1 (1/E6 mod 27 and mod 49 are 2 - E6), and one
        short product over that small modulus otherwise (1/E6 mod 243).

        Every other series takes Newton's iteration (`_newton`) along the
        chain n, ceil(n/2), ceil(n/4), ..., 1 of window lengths, so that
        each step exactly doubles the known length of the inverse.  Both
        paths give the unique inverse on the window.  Requires valuation
        0 and a unit constant term (in this package the constant term is
        always 1).
        """
        return _divide(None, self)

    def pow(self, exponent: int) -> "TruncatedSeries":
        """Binary powering from the lowest power the exponent needs, with
        no product by one; negative exponents go through invert().  It can
        keep more terms than repeated products when the lead is a zero divisor."""
        if exponent < 0:
            return self.invert().pow(-exponent)
        window = len(self.coeffs)
        if window == 0:
            # zero below exponent * valuation, where every product term starts
            return TruncatedSeries(self.modulus, (), exponent * self.valuation)
        if exponent == 0:
            return TruncatedSeries.one(self.modulus, window)
        result = None
        base = self
        while True:
            if exponent & 1:
                result = base if result is None else result.mul(base)
            exponent >>= 1
            if not exponent:
                return result
            base = base.mul(base)

    def theta(self) -> "TruncatedSeries":
        """The operator q d/dq: multiplies the q^n coefficient by n."""
        m = self.modulus
        vals = [(n * c) % m for n, c in enumerate(self.coeffs, start=self.valuation)]
        return TruncatedSeries._of_residues(m, vals, self.valuation)

    def extract_progression(self, residue: int, step: int) -> "TruncatedSeries":
        """The series of coefficients along exponents congruent to residue mod step."""
        if step < 1:
            raise ValueError("step must be positive")
        if not 0 <= residue < step:
            raise ValueError(f"residue must lie in [0, {step}), got {residue}")
        first = -((residue - self.valuation) // step)
        # from step*first + residue on, every exponent lies in the known window
        vals = self.coeffs[step * first + residue - self.valuation :: step]
        return TruncatedSeries._of_residues(self.modulus, vals, first)

    def change_modulus(self, new_modulus: int) -> "TruncatedSeries":
        if self.modulus % new_modulus:
            raise ValueError(
                f"new modulus {new_modulus} does not divide {self.modulus}"
            )
        return TruncatedSeries(new_modulus, self.coeffs, self.valuation)

    # ------------------------------------------------------------------
    # operators and display

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.add(other)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.mul(other)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.modulus == other.modulus
            and self.valuation == other.valuation
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.modulus, self.valuation, self.coeffs))

    def __str__(self):
        return _format_sum(enumerate(self.coeffs, start=self.valuation), "q")

    def __repr__(self):
        shown = str(self)
        if len(shown) > 60:
            shown = shown[:57] + "..."
        return f"TruncatedSeries({shown} + O(q^{self.precision}), mod {self.modulus})"


def _newton(
    f: Sequence[int], lead: int, modulus: int, n: int, h: Sequence[int] | None = None
) -> list[int]:
    """The first n coefficients of h/f mod modulus, or of 1/f without h.

    ``lead`` is the inverse of f's constant term, and f and h hold at
    least n canonical residues.  With g = 1/f to k = ceil(n/2), found the
    same way, and q = h*g to k, f*q agrees with h below q^k, so
    q + g*(h - f*q) is h/f to n.  Without h, q = g and this is Newton's
    step: a product of n by k terms and one of k by n - k.  With h, the
    product by the inverse is folded into the last step (Karp and
    Markstein) as one more of k by k, where h times the whole inverse
    would be n by n.
    """
    if n < 2:
        return [lead][:n] if h is None else [lead * c % modulus for c in h[:n]]
    k = (n + 1) // 2
    g = _newton(f, lead, modulus, k)
    q = g if h is None else _convolve(h, g, modulus, k)
    high = repeat(0) if h is None else h[k:n]
    err = [(c - x) % modulus for c, x in zip(high, _convolve(f, q, modulus, n)[k:])]
    return q + _convolve(g, err, modulus, n - k)


def _divide(num: TruncatedSeries | None, den: TruncatedSeries) -> TruncatedSeries:
    """``num.mul(den.invert())``, and ``den.invert()`` itself when num is None.

    The package's one division; `TruncatedSeries.invert` states both of
    its paths.  Where den takes Newton's path, the product by the inverse
    is folded into the last step (`_newton`); where its inverse is the
    geometric sum, the quotient is the product by that sum.
    """
    if den.valuation != 0:
        raise ValueError(f"inversion requires valuation 0, got {den.valuation}")
    if not den.coeffs:
        raise ValueError("cannot invert a series with no known coefficients")
    m = den.modulus
    try:
        lead = pow(den.coeffs[0], -1, m)
    except ValueError as exc:
        raise ValueError(
            f"constant term {den.coeffs[0]} is not a unit modulo {m}"
        ) from exc
    if num is not None:
        num._require_same_ring(den)
    n = len(den.coeffs)
    d = math.gcd(m, *den.coeffs[1:])
    if d**3 % m == 0:
        u = [0] + [(-lead * c) % m for c in den.coeffs[1:]]
        square = m // math.gcd(m, d * d)
        if square > 1:
            # v = u / d, reduced: _convolve needs residues below its modulus
            v = [c // d % square for c in u]
            for i, c in enumerate(_convolve(v, v, square, n)):
                u[i] += d * d * c
        u[0] = 1
        inverse = TruncatedSeries._of_residues(m, [lead * c % m for c in u])
        return inverse if num is None else num.mul(inverse)
    if num is None:
        return TruncatedSeries._of_residues(m, _newton(den.coeffs, lead, m, n))
    n = min(n, len(num.coeffs))
    return TruncatedSeries._of_residues(
        m, _newton(den.coeffs, lead, m, n, num.coeffs), num.valuation
    )
