"""Planar contour grids for external plotting.

Grids are corner-anchored (linspace over [-1, 1] includes both endpoints),
row-major with x as the outer loop, and serialized at 17 significant digits,
so two runs produce byte-identical files.
"""

import numpy as np

from ..errors import ConfigError, DomainError


def emit_contour_grid(fn, resolution=201):
    """Rows (x, y, value) of fn on a resolution x resolution grid. fn maps an
    (n, 2) array of points to n values and is called once per x value, so its
    working memory does not grow with the grid."""
    if not resolution >= 2:
        raise ConfigError(f"resolution must be at least 2, got {resolution}")
    axis = np.linspace(-1.0, 1.0, int(resolution))
    values = [np.asarray(fn(np.column_stack([np.full_like(axis, x), axis])), dtype=float) for x in axis]
    return [(float(x), float(y), float(v)) for x, column in zip(axis, values) for y, v in zip(axis, column)]


def write_contour_csv(rows, path):
    """Write (x, y, value) rows as CSV; a grid holding a non-finite number is a
    DomainError, raised before the file is opened."""
    if not np.all(np.isfinite(np.asarray(rows, dtype=float))):
        raise DomainError("contour grid holds non-finite values; nothing written")
    with open(path, "w") as fh:
        fh.write("x,y,value\n")
        fh.writelines("%.17g,%.17g,%.17g\n" % tuple(row) for row in rows)
