"""
Deterministic report and field serialization.

Numbers are written with 17 significant digits (CSV) or shortest
round-trip repr (JSON and field files); no timestamps or machine state
enter these files, so identical runs produce identical bytes.  Timing
information goes to a separate sidecar that is excluded from any
byte-comparison contract.
"""

import hashlib
import json
import os
import tempfile

import numpy as np

from .fem_core import ScalarField


class FieldFormatError(ValueError):
    pass


def atomic_write_text(path, data):
    """Write via a temp file in the target directory, then rename."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def mesh_hash(mesh):
    """16-hex-digit digest of the mesh geometry and connectivity."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(mesh.nodes).tobytes())
    h.update(np.ascontiguousarray(mesh.triangles).tobytes())
    h.update(np.ascontiguousarray(mesh.boundary_edges).tobytes())
    return h.hexdigest()[:16]


# ----------------------------------------------------------------- field files

def save_field(path, field):
    """Write a ``shapegrad-field v1`` file for a scalar field or a time
    series; the header records the space order and a mesh digest so a
    loader can reject mismatched mesh/field pairs."""
    space = field.space
    lines = ["shapegrad-field v1",
             f"order {space.order}",
             f"mesh {mesh_hash(space.mesh)}"]
    if isinstance(field, ScalarField):
        values = np.asarray(field.coefficients)
        lines.append(f"coefficients {values.size}")
        lines += [repr(float(v)) for v in values]
    else:
        values = np.asarray(field.values)
        lines.append(f"series {values.shape[0]} {values.shape[1]} {field.t0!r}")
        lines += [repr(float(v)) for v in values.ravel()]
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_field(path, space):
    """Read a field file back onto ``space``, validating order and mesh."""
    with open(path, "r") as fh:
        lines = fh.read().splitlines()
    if len(lines) < 4 or lines[0] != "shapegrad-field v1":
        raise FieldFormatError(f"{path}: not a shapegrad-field v1 file")
    try:
        order = int(lines[1].split()[1])
        digest = lines[2].split()[1]
    except (IndexError, ValueError) as exc:
        raise FieldFormatError(f"{path}: malformed header") from exc
    if order != space.order:
        raise FieldFormatError(
            f"{path}: field written for order {order}, space has order {space.order}")
    if digest != mesh_hash(space.mesh):
        raise FieldFormatError(f"{path}: field was written for a different mesh")
    head = lines[3].split()
    kind = head[0] if head else ""
    if (kind, len(head)) not in (("coefficients", 2), ("series", 4)):
        raise FieldFormatError(f"{path}: malformed section header {lines[3]!r}")
    try:
        shape = tuple(int(v) for v in head[1:3])  # (n,) or, for a series, (k, n)
        t0 = float(head[3]) if kind == "series" else 0.0
        vals = np.array([float(v) for v in lines[4:]], dtype=float)
    except ValueError as exc:
        raise FieldFormatError(f"{path}: malformed section header or coefficient line") from exc
    if not (np.all(np.isfinite(vals)) and np.isfinite(t0)):
        raise FieldFormatError(f"{path}: non-finite coefficient or start time")
    if min(shape) < 1 or shape[-1] != space.dof_count or vals.size != np.prod(shape):
        raise FieldFormatError(f"{path}: {kind} shape {shape} does not fit "
                               f"{vals.size} values on {space.dof_count} dofs")
    if kind == "coefficients":
        return ScalarField(space, vals)
    from .parabolic_problem import TimeSeriesField
    return TimeSeriesField(space, vals.reshape(shape), t0)


# ------------------------------------------------------------------ CSV / JSON

def _csv_cell(v):
    if isinstance(v, float):
        text = f"{v:.17g}"
    elif isinstance(v, bool):
        text = "true" if v else "false"
    else:
        text = str(v)
    if any(c in text for c in ',"\n\r'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path, header, rows):
    """RFC-4180 CSV with CRLF line ends and 17-significant-digit floats."""
    out = []
    for row in [list(header)] + [list(r) for r in rows]:
        out.append(",".join(_csv_cell(v) for v in row))
    atomic_write_text(path, "\r\n".join(out) + "\r\n")


FD_CSV_HEADER = ("s", "j_plus", "j_minus", "central_quotient", "error",
                 "observed_order", "forward_quotient", "forward_error",
                 "status", "note")


def fd_csv_rows(table, rel_max):
    """CSV rows of an FdTable; ``status`` is 'degenerate' for flagged
    transports, else 'ok' or 'fail' for the row's relative error against
    ``rel_max``."""
    rows = []
    scale = table.scale
    for r in table.rows:
        status = "degenerate" if r.flagged else "ok" if r.error / scale <= rel_max else "fail"
        rows.append((r.s, r.j_plus, r.j_minus, r.central, r.error, r.order,
                     r.forward, r.forward_error, status, r.note))
    return rows


TAYLOR_CSV_HEADER = ("s", "remainder", "observed_order", "status", "note")


def taylor_csv_rows(table):
    return [(r.s, r.remainder, r.order,
             "degenerate" if r.flagged else "ok", r.note) for r in table.rows]


def fd_table_json(table):
    return {
        "metadata": table.metadata,
        "dJ": table.dJ,
        "extrapolated": json_float(table.extrapolated),
        "extrapolated_error": json_float(table.extrapolated_error),
        "rows": [{
            "s": r.s, "j_plus": json_float(r.j_plus),
            "j_minus": json_float(r.j_minus),
            "central_quotient": json_float(r.central),
            "error": json_float(r.error),
            "observed_order": json_float(r.order),
            "forward_quotient": json_float(r.forward),
            "forward_error": json_float(r.forward_error),
            "flagged": r.flagged, "note": r.note,
        } for r in table.rows],
    }


def taylor_table_json(table):
    return {"metadata": table.metadata,
            "rows": [{"s": r.s, "remainder": json_float(r.remainder),
                      "observed_order": json_float(r.order),
                      "flagged": r.flagged}
                     for r in table.rows]}


def json_float(v):
    # JSON has no NaN: degenerate rows and non-finite check values carry null
    return None if not np.isfinite(v) else float(v)


def write_json(path, obj):
    atomic_write_text(path, json.dumps(obj, indent=2, allow_nan=False) + "\n")
