"""A reader for WLSR result files, written from the format spec in
docs/results.md and independent of the program's own reader.

It decodes headers and scalar columns exactly (bit for bit); distribution
columns are skipped, since the benchmark checks histograms through the
served HIST answers.
"""

import struct
import zlib

EXTENT_ROWS = 4096


class FormatError(Exception):
    pass


class _Reader:
    def __init__(self, data, pos=0, end=None):
        self.data = data
        self.pos = pos
        self.end = len(data) if end is None else end

    def need(self, n):
        if self.pos + n > self.end:
            raise FormatError("truncated at byte %d" % self.pos)
        start = self.pos
        self.pos += n
        return start

    def u8(self):
        return self.data[self.need(1)]

    def u16(self):
        return struct.unpack_from("<H", self.data, self.need(2))[0]

    def u32(self):
        return struct.unpack_from("<I", self.data, self.need(4))[0]

    def u64(self):
        return struct.unpack_from("<Q", self.data, self.need(8))[0]

    def f64(self):
        return struct.unpack_from("<d", self.data, self.need(8))[0]

    def varint(self):
        shift = 0
        value = 0
        while True:
            b = self.u8()
            value |= (b & 0x7F) << shift
            if b < 0x80:
                return value
            shift += 7
            if shift > 63:
                raise FormatError("varint too long")

    def string(self):
        n = self.varint()
        start = self.need(n)
        return self.data[start:start + n].decode("utf-8")


def _scalar_chunk(r, n):
    tag = r.u8()
    length = r.varint()
    start = r.need(length)
    if tag == 0:
        if length != 8:
            raise FormatError("constant chunk of %d bytes" % length)
        return [struct.unpack_from("<d", r.data, start)[0]] * n
    if tag == 1:
        data = r.data
        pos, end = start, start + length
        out = []
        prev = 0
        for _ in range(n):
            b = data[pos]
            pos += 1
            if b < 0x80:
                v = b
            else:
                v = b & 0x7F
                shift = 7
                while True:
                    b = data[pos]
                    pos += 1
                    v |= (b & 0x7F) << shift
                    if b < 0x80:
                        break
                    shift += 7
            prev += (v >> 1) ^ -(v & 1)
            out.append(float(prev))
        if pos != end:
            raise FormatError("int-delta chunk length mismatch")
        return out
    if tag == 2:
        if length != 8 * n:
            raise FormatError("raw64 chunk of %d bytes for %d rows" % (length, n))
        return list(struct.unpack_from("<%dd" % n, r.data, start))
    raise FormatError("unknown chunk tag %d" % tag)


def _skip_chunk(r):
    r.u8()
    r.need(r.varint())


def _group(data, pos, end):
    r = _Reader(data, pos, end)
    g = {"point_index": r.u64(), "point_seed": r.u64()}
    g["params"] = [r.string() for _ in range(r.varint())]
    g["n_rows"] = r.u64()
    g["scalars"] = [r.string() for _ in range(r.varint())]
    g["dists"] = [r.string() for _ in range(r.varint())]
    g["geometry"] = [(r.f64(), r.f64(), r.u64()) for _ in g["dists"]]
    columns = {name: [] for name in g["scalars"]}
    left = g["n_rows"]
    while left > 0:
        n = min(EXTENT_ROWS, left)
        for name in g["scalars"]:
            columns[name].extend(_scalar_chunk(r, n))
        for _ in g["dists"]:
            for _ in range(6):
                _skip_chunk(r)
            r.need(r.varint())
        left -= n
    if r.pos != end:
        raise FormatError("%d trailing bytes in a group" % (end - r.pos))
    g["columns"] = columns
    return g


def read(path):
    """Returns the file's header fields and its groups with decoded columns."""
    with open(path, "rb") as f:
        data = f.read()
    r = _Reader(data)
    if r.u32() != struct.unpack("<I", b"WLSR")[0]:
        raise FormatError("%s: bad magic" % path)
    out = {"version": r.u16(), "kind": r.u8(), "streamed": r.u8()}
    out["n_groups"] = r.u64()
    out["base_seed"] = r.u64()
    out["replications"] = r.u64()
    out["scenario"] = r.string()
    out["param_keys"] = [r.string() for _ in range(r.varint())]
    out["groups"] = []
    for _ in range(out["n_groups"]):
        if r.u32() != struct.unpack("<I", b"GRP0")[0]:
            raise FormatError("%s: bad group magic" % path)
        body_len = r.u64()
        start = r.need(body_len)
        crc = r.u32()
        if zlib.crc32(data[start:start + body_len]) != crc:
            raise FormatError("%s: group CRC mismatch" % path)
        out["groups"].append(_group(data, start, start + body_len))
    if r.pos != len(data):
        raise FormatError("%s: trailing bytes" % path)
    out["bytes"] = len(data)
    return out


def rows(wlsr):
    """Yields (params dict, row dict) for every row of every group."""
    keys = wlsr["param_keys"]
    for g in wlsr["groups"]:
        params = dict(zip(keys, g["params"]))
        cols = g["columns"]
        for i in range(g["n_rows"]):
            yield params, {name: cols[name][i] for name in g["scalars"]}
