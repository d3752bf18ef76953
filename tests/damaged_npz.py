"""Damaged copies of a valid ``.npz`` archive, each made in place, each
damaging one member while the rest of the archive stays readable."""

import io
import struct
import zipfile

import numpy as np


def npy_bytes(array):
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


def archive_members(path):
    with np.load(path) as archive:
        return {name: archive[name] for name in archive.files}


def rewrite_member(path, name, data):
    """Rewrite the archive at ``path`` as a stored zip of its members' .npy
    files, with the member ``name`` holding the bytes ``data``."""
    members = archive_members(path)
    with zipfile.ZipFile(path, "w") as archive:
        for member, array in members.items():
            archive.writestr(f"{member}.npy", data if member == name else npy_bytes(array))


def member_data_offset(data, info):
    """Offset in the archive bytes ``data`` of the first byte of the member
    ``info``'s data, after its local header."""
    name_length, extra_length = struct.unpack("<HH", data[info.header_offset + 26 : info.header_offset + 30])
    return info.header_offset + 30 + name_length + extra_length


def flip_data_byte(path, name):
    """Flip the last data byte of the stored member ``name``: its CRC fails."""
    data = bytearray(path.read_bytes())
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(f"{name}.npy")
    assert info.compress_type == zipfile.ZIP_STORED
    data[member_data_offset(data, info) + info.compress_size - 1] ^= 0xFF
    path.write_bytes(bytes(data))


def claim_huge_shape(path, name):
    """Make the member ``name`` an .npy header claiming shape (2**40,) float64
    (8 TiB) over 8 data bytes."""
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(header, {"descr": "<f8", "fortran_order": False, "shape": (2**40,)})
    rewrite_member(path, name, header.getvalue() + bytes(8))


def truncate_data(path, name):
    """Drop the last 8 data bytes of the member ``name``, in a valid zip."""
    rewrite_member(path, name, npy_bytes(archive_members(path)[name])[:-8])


def damage_compressed(path, name):
    """Rewrite the archive with np.savez_compressed, then garble the deflate
    stream of the member ``name``."""
    np.savez_compressed(path, **archive_members(path))
    data = bytearray(path.read_bytes())
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(f"{name}.npy")
    start = member_data_offset(data, info)
    for i in range(start + 4, start + info.compress_size - 4):
        data[i] ^= 0x5A
    path.write_bytes(bytes(data))


# case -> what damages the member ``name`` of the archive at ``path``, in place
DAMAGED_MEMBERS = {
    "flipped data byte": flip_data_byte,
    "huge claimed shape": claim_huge_shape,
    "truncated data": truncate_data,
    "damaged compressed member": damage_compressed,
}
