import json
import re
import struct

import numpy as np
import pytest

from vplab import container
from vplab.errors import ValidationError
from vplab.profiles import VelocityGrid, make_builtin


def test_profile_roundtrip(tmp_path, maxwellian2):
    path = tmp_path / "m.vplb"
    grid = maxwellian2.grid
    container.save_profile(path, grid, maxwellian2.values, maxwellian2.meta)
    header, payloads = container._read_blob(path)
    assert np.array_equal(payloads["values"], maxwellian2.values)
    assert header["kind"] == "profile"
    assert (header["dim"], header["n"], header["vmax"]) == (grid.dim, grid.n, grid.vmax)
    assert header["meta"] == maxwellian2.meta
    assert set(header) == {"kind", "dim", "n", "vmax", "meta", "payloads"}


def test_wave_roundtrip(tmp_path, maxwellian2):
    from vplab.bgk import match_period

    _, wave = match_period(maxwellian2, 2 * np.pi, gamma=0.1, r=1e-3)
    path = tmp_path / "w.vplb"
    container.save_wave(path, wave)
    header, payloads = container.load_wave_header(path)
    assert header["T1"] == wave.T1
    assert header["provenance"]["case"] == 1
    assert np.array_equal(payloads["beta"], wave.beta)
    assert np.array_equal(payloads["E"], wave.efield)

    csv_path = tmp_path / "w.csv"
    container.wave_to_csv(csv_path, wave)
    rows = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    assert rows.shape == (len(wave.beta), 3)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.vplb"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValidationError):
        container.load_wave_header(path)


@pytest.mark.parametrize("cut", [6, 30, -100, -8])
def test_truncated_container_rejected(tmp_path, cut):
    # the four cuts once raised struct.error, JSONDecodeError and two
    # numpy ValueErrors
    path = tmp_path / "v.vplb"
    container.save_profile(path, VelocityGrid(1, 8.0, 64), np.arange(64.0), {})
    raw = path.read_bytes()
    path.write_bytes(raw[:cut])
    with pytest.raises(ValidationError, match=r"truncated container: expected \d+ bytes "
                                              r"at offset \d+, read \d+"):
        container.load_wave_header(path)


def test_corrupt_header_rejected(tmp_path):
    path = tmp_path / "v.vplb"
    container.save_profile(path, VelocityGrid(1, 8.0, 64), np.arange(64.0), {})
    raw = bytearray(path.read_bytes())
    raw[12] = ord("]")  # the header's opening brace
    path.write_bytes(bytes(raw))
    with pytest.raises(ValidationError, match="corrupt container header"):
        container.load_wave_header(path)


@pytest.mark.parametrize("header, tail, match", [
    ({"kind": "bgk_wave"}, b"", "needs a list 'payloads' of entries"),
    ({"kind": "bgk_wave", "payloads": [{"name": "beta", "shape": [-3]}]}, b"",
     "shape of non-negative ints"),
    ({"kind": "bgk_wave", "payloads": [{"name": "beta", "shape": [4]}]}, bytes(16),
     r"bytes follow the declared payloads at offset \d+"),
    ({"kind": "bgk_wave", "payloads": [{"name": "beta", "shape": [2]}] * 2}, b"",
     "payload name 'beta' listed twice"),
], ids=["no_payloads", "negative_shape", "trailing_bytes", "duplicate_name"])
def test_header_structure_checked(tmp_path, header, tail, match):
    # these once raised KeyError, a bare ValueError, and nothing at all;
    # a duplicate name kept the last payload and dropped the first
    raw = json.dumps(header).encode("utf-8")
    path = tmp_path / "v.vplb"
    path.write_bytes(container.MAGIC + struct.pack("<II", container.VERSION, len(raw)) + raw
                     + np.arange(4.0).tobytes() + tail)
    with pytest.raises(ValidationError, match=f"{re.escape(str(path))}: .*{match}"):
        container.load_wave_header(path)


def test_json_writer_handles_numpy(tmp_path):
    path = tmp_path / "r.json"
    container.write_json(path, {"a": np.float64(1.5), "b": np.arange(3),
                                "c": 1 + 2j})
    back = json.loads(path.read_text())
    assert back["a"] == 1.5
    assert back["b"] == [0, 1, 2]
    assert back["c"] == {"re": 1.0, "im": 2.0}
