"""Self-describing binary container plus CSV/JSON emitters.

Layout: magic ``VPLB``, format version, header length, UTF-8 JSON header,
then the raw float64 payload in row-major order.  The header carries grid
metadata and provenance tags as strings/numbers, so files are readable
without this package.
"""

from __future__ import annotations

import json
import math
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


def _read_exact(fh, path, count):
    buf = fh.read(count)
    if len(buf) != count:
        raise ValidationError(f"{path}: truncated container: expected {count} bytes "
                              f"at offset {fh.tell() - len(buf)}, read {len(buf)}")
    return buf


def _read_blob(path):
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise ValidationError(f"{path}: not a container file")
        version, hlen = struct.unpack("<II", _read_exact(fh, path, 8))
        if version != VERSION:
            raise ValidationError(f"{path}: unsupported container version {version}")
        try:
            header = json.loads(_read_exact(fh, path, hlen).decode("utf-8"))
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise ValidationError(f"{path}: corrupt container header: {exc}") from exc
        specs = header.get("payloads") if isinstance(header, dict) else None
        if not (isinstance(specs, list) and all(map(_is_payload_spec, specs))):
            raise ValidationError(f"{path}: container header needs a list 'payloads' of entries "
                                  "with a string name and a shape of non-negative ints")
        payloads = {}
        for spec in specs:
            if spec["name"] in payloads:
                raise ValidationError(f"{path}: payload name {spec['name']!r} listed twice")
            buf = _read_exact(fh, path, 8 * math.prod(spec["shape"]))
            payloads[spec["name"]] = np.frombuffer(buf, np.float64).reshape(spec["shape"]).copy()
        if fh.read(1):
            raise ValidationError(f"{path}: bytes follow the declared payloads "
                                  f"at offset {fh.tell() - 1}")
    return header, payloads


def _is_payload_spec(spec):
    return (isinstance(spec, dict) and isinstance(spec.get("name"), str)
            and isinstance(spec.get("shape"), list)
            and all(type(n) is int and n >= 0 for n in spec["shape"]))


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
