"""Image and grid export and import: plain-text CSV matrix, 16-bit binary
image, float64 binary grid, each binary with a text sidecar, and the grid's
one-row-per-node CSV.

CSV stores full-precision floats (``repr`` round-trip, so import is exact).
The image binary quantises to uint16 with a scale recorded in the sidecar;
an imported image remembers that scale, so export -> import -> export
reproduces both files byte for byte. The grid binary holds the float64
values themselves, so it reloads bit for bit.

Both image formats carry the same ``key=value`` metadata lines; images are
always projected along z, so the ``axis_labels`` line is fixed and ignored
on import.
"""

from __future__ import annotations

import itertools
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .constants import MICROKELVIN
from .grids import ScalarGrid, node_blocks

if TYPE_CHECKING:  # imported where an image is built, so that grid I/O needs no imaging
    from .imaging import SyntheticImage

_HDR_VERSION = "1"


def _meta_lines(image: SyntheticImage, units: str) -> list[str]:
    """The metadata lines both formats share, without comment markers."""
    n0, n1 = image.dims
    return [
        f"dims={n0},{n1}",
        f"pixel_size_m={image.pixel_size!r}",
        f"origin_m={image.origin[0]!r},{image.origin[1]!r}",
        "axis_labels=x,y",
        f"units={units}",
        f"od_scale={image.od_scale!r}",
    ]


def _parse_meta(line: str, meta: dict) -> None:
    """Record a ``key=value`` line in ``meta``; other lines are ignored."""
    key, sep, val = line.partition("=")
    if sep:
        meta[key.strip()] = val.strip()


def _write_header(header_path, kind: str, dtype: str, lines: list[str]) -> None:
    """Write a binary's text sidecar: the ``format=ringtrap-<kind>`` line,
    the exporter's own ``lines``, then the dtype and the fixed layout."""
    header = [f"format=ringtrap-{kind} v{_HDR_VERSION}", *lines,
              f"dtype={dtype}", "byteorder=little", "order=row-major"]
    Path(header_path).write_text("\n".join(header) + "\n")


def _read_header(header_path) -> dict:
    meta = {}
    for line in Path(header_path).read_text().splitlines():
        _parse_meta(line, meta)
    return meta


def _image_from_meta(meta: dict, values: np.ndarray, quant_scale=None) -> SyntheticImage:
    from .imaging import SyntheticImage

    return SyntheticImage(
        pixel_size=float(meta["pixel_size_m"]),
        values=values,
        origin=tuple(float(v) for v in meta.get("origin_m", "0,0").split(",")),
        od_scale=float(meta.get("od_scale", "1.0")),
        quant_scale=quant_scale,
    )


def export_image_csv(image: SyntheticImage, path) -> None:
    """Write the image as a comment-headed CSV matrix of repr floats."""
    with open(path, "w") as fh:
        fh.write(f"# ringtrap image csv v{_HDR_VERSION}\n")
        fh.writelines(f"# {line}\n" for line in _meta_lines(image, "atoms/m^2 * od_scale"))
        for row in image.values:
            fh.write(",".join(map(repr, row.tolist())) + "\n")


def import_image_csv(path) -> SyntheticImage:
    meta = {}
    rows = []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            _parse_meta(line[1:], meta)
        elif line:
            rows.append([float(v) for v in line.split(",")])
    return _image_from_meta(meta, np.array(rows, dtype=float))


def export_image_binary(image: SyntheticImage, data_path, header_path) -> None:
    """Write little-endian uint16 pixels plus a text sidecar header.

    The quantisation scale is max/65535 unless the image carries the scale
    it was previously imported with, which keeps round trips bit-exact.
    Either scale is written only if it is positive and the largest value
    quantises to at most 65535 with it, so values that have grown since are
    never wrapped; an image of zeros gets the scale 1.
    """
    vmax = float(image.values.max())

    def fits(scale):
        return scale is not None and scale > 0 and np.rint(vmax / scale) <= 65535

    scale = image.quant_scale
    if not fits(scale):
        scale = vmax / 65535.0 if vmax > 0 else 1.0
        if not fits(scale):
            # a subnormal max/65535 rounds to the nearest multiple of the least
            # subnormal, possibly 0; the next multiple up is above the quotient
            scale = float(np.nextafter(scale, np.inf))
    quant = np.rint(image.values / scale).astype("<u2")
    _write_header(header_path, "u16", "uint16", [
        *_meta_lines(image, "atoms/m^2 * od_scale (for value = u16 * scale)"),
        f"scale={scale!r}",
    ])
    Path(data_path).write_bytes(quant.tobytes())


def import_image_binary(data_path, header_path) -> SyntheticImage:
    meta = _read_header(header_path)
    n0, n1 = (int(v) for v in meta["dims"].split(","))
    scale = float(meta["scale"])
    raw = np.frombuffer(Path(data_path).read_bytes(), dtype="<u2").reshape(n0, n1)
    return _image_from_meta(meta, raw.astype(float) * scale, quant_scale=scale)


def export_grid_binary(grid: ScalarGrid, data_path, header_path) -> None:
    """Write the grid's values in joules as little-endian float64 in C order
    (z innermost), plus a text sidecar header.

    The values are written straight from ``grid.values``, with no copy on a
    little-endian machine. ``origin_m`` and ``spacing_m`` are ``repr``s, so
    ``origin + spacing * arange(n)`` rebuilds :meth:`ScalarGrid.axes`
    exactly.
    """
    _write_header(header_path, "f64", "float64", [
        "dims=" + ",".join(str(n) for n in grid.dims),
        "origin_m=" + ",".join(repr(c) for c in grid.origin),
        "spacing_m=" + ",".join(repr(s) for s in grid.spacing),
        "units=J",
    ])
    grid.values.astype("<f8", copy=False).tofile(data_path)


def export_grid_csv(grid: ScalarGrid, path) -> None:
    """Write one ``x_m,y_m,z_m,V_J,V_uK`` row of ``repr``s per node, in C
    order, one block of nodes at a time."""
    # each axis value is formatted once; only V is formatted per node
    coords = [[repr(c) for c in ax.tolist()] for ax in grid.axes()]
    with open(path, "w") as fh:
        fh.write("x_m,y_m,z_m,V_J,V_uK\n")
        for box in node_blocks(grid.dims):
            v = grid.values[box].reshape(-1)
            heads = itertools.product(*(c[s] for c, s in zip(coords, box)))
            fh.writelines(
                f"{x},{y},{z},{a!r},{b!r}\n"
                for (x, y, z), a, b in zip(heads, v.tolist(), (v / MICROKELVIN).tolist())
            )


def import_grid_binary(data_path, header_path) -> ScalarGrid:
    """Read a grid written by :func:`export_grid_binary`, bit for bit."""
    meta = _read_header(header_path)
    dims = tuple(int(v) for v in meta["dims"].split(","))
    values = np.fromfile(data_path, dtype="<f8").reshape(dims)
    return ScalarGrid(
        origin=tuple(float(v) for v in meta["origin_m"].split(",")),
        spacing=tuple(float(v) for v in meta["spacing_m"].split(",")),
        dims=dims,
        values=values,
    )
