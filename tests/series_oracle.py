"""Takeuchi's geometric series: the reference the colored recursion is checked against.

After pre-composing with the degree-0 inverse, the series for a key of
filtration degree r truncates after r+1 terms, because every (r+1)-fold
reduced product hits the base.  It needs only an exhaustive filtration, not
the flank structure the recursion walks, so it is an independent oracle for
``sweedler.inversion.convolution_inverse``.  Its values are built lazily
and are not meant to be shared across threads.
"""

from sweedler.errors import FiltrationNotExhaustive
from sweedler.inversion import _gate_grouplikes, _grouplike_inverse
from sweedler.specs import ConvMap, convolution_unit, convolve
from sweedler.structure import FiltrationTable, is_grouplike


def base_inverse(f: ConvMap) -> ConvMap:
    """Extend the degree-0 inverse of f by zero on all other basis keys."""
    C, T = f.source, f.target

    def fn(key):
        if is_grouplike(C, key):
            return _grouplike_inverse(f, key)
        return T.zero()

    return ConvMap(C, T, fn, name="f0inv")


def takeuchi_inverse(f: ConvMap, filt: FiltrationTable) -> ConvMap:
    """Two-sided convolution inverse via the truncated geometric series."""
    _gate_grouplikes(f)
    C, T = f.source, f.target
    g0 = base_inverse(f)
    fp = convolve(f, g0, name="fnorm")

    def u_fn(key):
        acc = T.accumulate(T.zero(), C.counit(key), T.one())
        return T.accumulate(acc, -1, fp(key))

    u = ConvMap(C, T, u_fn, name="unit-minus-f")
    powers = [convolution_unit(C, T)]

    def h_fn(key):
        d = filt.degree(key)
        if d is None:
            raise FiltrationNotExhaustive(key)
        while len(powers) <= d:
            powers.append(convolve(powers[-1], u, name=f"u^{len(powers)}"))
        acc = T.zero()
        for i in range(d + 1):
            acc = T.accumulate(acc, 1, powers[i](key))
        return acc

    h = ConvMap(C, T, h_fn, name="series")
    return convolve(g0, h, name=f"{f.name}^-1")
