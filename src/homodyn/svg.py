"""SVG scatter of reduced points in the standard fundamental domain."""

from __future__ import annotations

import numpy as np

_SVG_VIEW = (-0.6, 0.8, 0.6, 4.0)  # x_min, y_min, x_max, y_max (math coords)
_X_SLACK = 1e-9  # reduced points have |x| <= 1/2 up to float slack
# One marker line.  Each %.6f field is 9 bytes, [-]d.dddddd, at _FIELDS; a
# NUL stands in the sign byte of a non-negative value and is dropped on write.
_MARK = np.frombuffer(b'<circle cx="-0.000000" cy="-0.000000" r="0.006"/>\n', np.uint8)
_FIELDS = (12, 27)
_BLOCK = 1 << 14  # points per array pass


def _field_codes(v):
    """2k + sign of each value's %.6f text, for |v| < 10: k = |v| in
    millionths, correctly rounded, and sign = 1 where the text has a '-'
    (signbit, so -0.0 and -1e-9 print -0.000000)."""
    f = np.abs(v) * 1e6
    k = np.rint(f)
    # within 1e-6 of a half-integer the float product can round the wrong
    # way: take those digits from Python's correctly rounded text
    ties = np.flatnonzero(np.abs(f - k) > 0.5 - 1e-6).tolist()
    k = k.astype(np.int64)
    for i in ties:
        k[i] = int(f"{float(v[i]):.6f}".lstrip("-").replace(".", ""))
    return 2 * k + np.signbit(v)


def _marker_lines(keys) -> bytes:
    """The marker lines of the keys (cx code << 24 | cy code)."""
    buf = np.empty((keys.size, _MARK.size), np.uint8)
    buf[:] = _MARK
    for col, code in zip(_FIELDS, (keys >> 24, keys & 0xFFFFFF)):
        buf[:, col] = np.where(code & 1, ord("-"), 0)
        k = (code >> 1).astype(np.uint32)
        for j in (8, 7, 6, 5, 4, 3, 1):  # the digits of d.dddddd, last first
            q = k // 10
            buf[:, col + j] = k - 10 * q + ord("0")
            k = q
    return buf.tobytes().replace(b"\0", b"")


def _first_occurrences(keys):
    """Indices of the first occurrence of each distinct key, ascending.  The
    (unstable) argsort leaves each run of equal keys in any order, so the
    run's smallest index is its first occurrence."""
    if not keys.size:
        return np.empty(0, np.intp)
    order = np.argsort(keys)
    ordered = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    return np.sort(np.minimum.reduceat(order, starts))


def emit_svg(xs, ys, path: str) -> None:
    """Scatter of fundamental-domain points; y > 4 is drawn on the top border.

    The viewBox is fixed to [-0.6, 0.6] x [0.8, 4].  Each marker prints its
    point as correctly rounded %.6f (the bytes of Python's f"{v:.6f}");
    points whose markers print identically collapse to one marker, in
    first-occurrence order.  The points must be reduced: |x| <= 1/2 up to
    float slack and finite y > 0, else ValueError names the first that is
    not, before the file is opened.
    """
    x0, y0, x1, y1 = _SVG_VIEW
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape:
        raise ValueError(f"SVG coordinates of shapes {xs.shape} and {ys.shape}")
    # one int64 key per point from its printed marker; SVG y points down,
    # so the marker plots (x, -min(y, 4)).  Codes stay below 2^24: k <= 4e6.
    keys = np.empty(xs.size, np.int64)
    for lo in range(0, xs.size, _BLOCK):
        x, y = xs[lo:lo + _BLOCK], ys[lo:lo + _BLOCK]
        bad = np.flatnonzero(~((np.abs(x) <= 0.5 + _X_SLACK) & (y > 0.0) & (y < np.inf)))
        if bad.size:
            i = lo + int(bad[0])
            raise ValueError(f"SVG point {i} ({float(xs[i])!r}, {float(ys[i])!r}) is not "
                             "a reduced point: need |x| <= 1/2 and finite y > 0")
        keys[lo:lo + x.size] = _field_codes(x) << 24 | _field_codes(-np.minimum(y, y1))
    keys = keys[_first_occurrences(keys)]
    width = x1 - x0
    height = y1 - y0
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{x0} {-y1} {width} {height}">\n'
        f'<rect x="{x0}" y="{-y1}" width="{width}" height="{height}" '
        f'fill="white" stroke="black" stroke-width="0.004"/>\n'
        f'<g fill="black">\n'
    )
    with open(path, "wb") as fh:
        fh.write(head.encode("ascii"))
        for lo in range(0, keys.size, _BLOCK):
            fh.write(_marker_lines(keys[lo:lo + _BLOCK]))
        # with no markers the group holds one empty line
        fh.write(b"</g>\n</svg>\n" if keys.size else b"\n</g>\n</svg>\n")
