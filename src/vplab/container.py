"""Self-describing binary container plus CSV/JSON emitters.

Layout: magic ``VPLB``, format version, header length, UTF-8 JSON header,
then the raw float64 payload in row-major order.  The header carries grid
metadata and provenance tags as strings/numbers, so files are readable
without this package.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .errors import ValidationError

MAGIC = b"VPLB"
VERSION = 1


def _write_blob(path, header, payloads):
    head = dict(header)
    head["payloads"] = [{"name": k, "shape": list(v.shape)} for k, v in payloads]
    raw = json.dumps(head, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(raw)))
        fh.write(raw)
        for _, arr in payloads:
            fh.write(np.ascontiguousarray(arr, dtype=np.float64).tobytes())


def _read_blob(path):
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise ValidationError(f"{path}: not a container file")
        version, hlen = struct.unpack("<II", fh.read(8))
        if version != VERSION:
            raise ValidationError(f"{path}: unsupported container version {version}")
        header = json.loads(fh.read(hlen).decode("utf-8"))
        payloads = {}
        for spec in header["payloads"]:
            count = int(np.prod(spec["shape"])) if spec["shape"] else 1
            buf = fh.read(8 * count)
            payloads[spec["name"]] = np.frombuffer(buf, dtype=np.float64).reshape(
                spec["shape"]
            ).copy()
    return header, payloads


def save_profile(path, grid, values, meta):
    """Velocity-space samples ``values`` on ``grid``, with the ``meta`` tags."""
    header = {"kind": "profile", "dim": grid.dim, "n": grid.n, "vmax": grid.vmax, "meta": meta}
    _write_blob(path, header, [("values", values)])


def save_wave(path, wave):
    header = {
        "kind": "bgk_wave",
        "T1": wave.T1,
        "c": wave.c,
        "amplitude": wave.amplitude,
        "case": wave.case,
        "provenance": wave.provenance,
        "meta": {"dim": wave.dim},
    }
    _write_blob(path, header, [("beta", wave.beta), ("E", wave.efield)])


def load_wave_header(path):
    header, payloads = _read_blob(path)
    if header.get("kind") != "bgk_wave":
        raise ValidationError(f"{path}: container does not hold a wave")
    return header, payloads


def wave_to_csv(path, wave):
    write_csv(path, ["x1", "beta", "E"], [wave.x1, wave.beta, wave.efield])


def write_csv(path, names, columns):
    arr = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for row in arr:
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"not JSON serialisable: {type(obj)}")
