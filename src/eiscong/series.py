"""Truncated Laurent series with coefficients in Z/m.

The universal value type of the package.  A series stores the exact
residues of its coefficients for every exponent in the window
[valuation, precision); below the valuation the series is zero by
definition, at the precision and above nothing is known.  Every
operation is pure, and every coefficient it returns is exact in Z/m;
its precision is a proven one, but not always the largest provable.
"""

from __future__ import annotations

import sys
from array import array
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
    kept coefficients and are not packed.  The entries must be canonical
    residues in [0, modulus), since a larger one could overflow its slot.
    """
    if terms is not None:
        a, b = a[:terms], b[:terms]
    if not a or not b:
        return []
    width = _slot_width(min(len(a), len(b)), modulus)
    full = len(a) + len(b) - 1
    keep = full if terms is None else min(terms, full)
    product = _pack(a, width) * _pack(b, width)
    data = product.to_bytes(full * width, sys.byteorder)[: keep * width]
    return _unpack(data, width, modulus)


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
    def zero(cls, modulus: int, terms: int) -> "TruncatedSeries":
        return cls(modulus, [0] * terms)

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

    def agrees_with(self, other: "TruncatedSeries", through: int | None = None) -> bool:
        """Coefficient-wise equality on the common known window.

        When ``through`` is given, only exponents up to and including it
        are compared (they must all be known on both sides).
        """
        self._require_same_ring(other)
        stop = min(self.precision, other.precision)
        if through is not None:
            if through + 1 > stop:
                raise PrecisionError(
                    f"cannot compare through q^{through}: precision is {stop}"
                )
            stop = through + 1
        start = min(self.valuation, other.valuation)
        return all(self.coefficient(n) == other.coefficient(n) for n in range(start, stop))

    # ------------------------------------------------------------------
    # ring operations

    def add(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._require_same_ring(other)
        m = self.modulus
        prec = min(self.precision, other.precision)
        v = min(self.valuation, other.valuation)
        out = [0] * (prec - v)
        for src in (self, other):
            stop = min(src.precision, prec)
            for n in range(src.valuation, stop):
                out[n - v] = (out[n - v] + src.coeffs[n - src.valuation]) % m
        return TruncatedSeries._of_residues(m, out, v)

    def neg(self) -> "TruncatedSeries":
        return self.scale(-1)

    def sub(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self.add(other.neg())

    def scale(self, scalar: int) -> "TruncatedSeries":
        m = self.modulus
        k = scalar % m
        return TruncatedSeries._of_residues(
            m, [(k * c) % m for c in self.coeffs], self.valuation
        )

    def mul(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Cauchy product, truncated to min(N_f + v_g, N_g + v_f)."""
        self._require_same_ring(other)
        v = self.valuation + other.valuation
        keep = min(len(self.coeffs), len(other.coeffs))
        conv = _convolve(self.coeffs, other.coeffs, self.modulus, keep)
        return TruncatedSeries._of_residues(self.modulus, conv, v)

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse, by Newton iteration on the window.

        Each step doubles the known length h of the inverse g to k.  As
        f*g = 1 + O(q^h), the product's terms h..k-1 are the whole error
        e, and g - q^h*g*e is the inverse mod q^k: the step appends
        -(g*e) mod q^(k-h) to g, a half-length product.  Requires
        valuation 0 and a unit constant term (in this package the
        constant term is always 1).
        """
        if self.valuation != 0:
            raise ValueError(
                f"inversion requires valuation 0, got {self.valuation}; shift first"
            )
        if not self.coeffs:
            raise ValueError("cannot invert a series with no known coefficients")
        m = self.modulus
        try:
            lead = pow(self.coeffs[0], -1, m)
        except ValueError as exc:
            raise ValueError(
                f"constant term {self.coeffs[0]} is not a unit modulo {m}"
            ) from exc
        n = len(self.coeffs)
        g = [lead]
        while len(g) < n:
            h = len(g)
            k = min(2 * h, n)
            err = _convolve(self.coeffs, g, m, k)[h:]
            g += [(-c) % m for c in _convolve(g, err, m, k - h)]
        return TruncatedSeries._of_residues(m, g)

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
        e = exponent
        while True:
            if e & 1:
                result = base if result is None else result.mul(base)
            e >>= 1
            if not e:
                return result
            base = base.mul(base)

    def theta(self) -> "TruncatedSeries":
        """The operator q d/dq: multiplies the q^n coefficient by n."""
        m = self.modulus
        vals = [(n * c) % m for n, c in enumerate(self.coeffs, start=self.valuation)]
        return TruncatedSeries._of_residues(m, vals, self.valuation)

    def shift(self, exponent: int) -> "TruncatedSeries":
        """Multiply by q**exponent (exact, changes valuation and precision)."""
        return TruncatedSeries._of_residues(
            self.modulus, self.coeffs, self.valuation + exponent
        )

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

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.sub(other)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.mul(other)

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        return self.pow(exponent)

    def __neg__(self):
        return self.neg()

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
        terms = []
        for n, c in enumerate(self.coeffs, start=self.valuation):
            if c == 0:
                continue
            if n == 0:
                terms.append(str(c))
            else:
                mono = "q" if n == 1 else f"q^{n}"
                terms.append(mono if c == 1 else f"{c}*{mono}")
        return " + ".join(terms) if terms else "0"

    def __repr__(self):
        shown = str(self)
        if len(shown) > 60:
            shown = shown[:57] + "..."
        return f"TruncatedSeries({shown} + O(q^{self.precision}), mod {self.modulus})"
