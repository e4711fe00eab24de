"""Binary serialization: single tensors (UIUT) and named collections (UIUC).

UIUT layout, all integers little-endian:

    4 bytes magic "UIUT"
    u8    format version (1)
    u8    dtype code (0 = float32; the only defined code)
    u8    rank
    rank * u64 dims
    row-major float32 payload

UIUC wraps many named UIUT blobs:

    4 bytes magic "UIUC"
    u8    format version (1)
    u32   entry count
    per entry: u16 name byte length, UTF-8 name, UIUT blob

Entries are written in the order given and returned in file order, so writing
the same mapping twice produces byte-identical files. A container is written
under a temporary name in the target's directory and then renamed over it, so
a write that fails or is killed never leaves a partial file at the target.
"""

import os
import struct

import numpy as np

__all__ = [
    "tensor_to_bytes", "tensor_from_bytes", "save_tensor", "load_tensor",
    "save_entries", "load_entries",
]

TENSOR_MAGIC = b"UIUT"
CHECKPOINT_MAGIC = b"UIUC"
FORMAT_VERSION = 1
DTYPE_F32 = 0


def tensor_to_bytes(arr: np.ndarray) -> bytes:
    if arr.dtype != np.float32:
        raise ValueError(f"only float32 tensors are serializable, got {arr.dtype}")
    header = TENSOR_MAGIC + struct.pack("<BBB", FORMAT_VERSION, DTYPE_F32, arr.ndim)
    dims = struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b""
    return header + dims + np.ascontiguousarray(arr, dtype="<f4").tobytes()


def tensor_from_bytes(buf: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """Decode one tensor starting at `offset`; returns (array, next offset)."""
    if len(buf) - offset < 7:
        raise ValueError("truncated tensor: header incomplete")
    if buf[offset: offset + 4] != TENSOR_MAGIC:
        raise ValueError(f"bad tensor magic {buf[offset: offset + 4]!r}")
    version, dtype_code, rank = struct.unpack_from("<BBB", buf, offset + 4)
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported tensor format version {version}")
    if dtype_code != DTYPE_F32:
        raise ValueError(f"unsupported dtype code {dtype_code}")
    pos = offset + 7
    if len(buf) - pos < 8 * rank:
        raise ValueError("truncated tensor: dims incomplete")
    dims = struct.unpack_from(f"<{rank}Q", buf, pos) if rank else ()
    pos += 8 * rank
    count = 1
    for d in dims:
        count *= d
    nbytes = 4 * count
    if len(buf) - pos < nbytes:
        raise ValueError(f"truncated tensor: payload needs {nbytes} bytes")
    arr = np.frombuffer(buf, dtype="<f4", count=count, offset=pos).reshape(dims)
    return arr.astype(np.float32, copy=True), pos + nbytes


def _check_output_paths(**paths) -> None:
    """Refuse a named output path that is a directory or whose directory is
    missing, before any work is done. A None path is skipped."""
    for name, path in paths.items():
        if path is None:
            continue
        if os.path.isdir(path):
            raise ValueError(f"{name} {os.fspath(path)!r} is a directory")
        folder = os.path.dirname(path)
        if folder and not os.path.isdir(folder):
            raise ValueError(f"output directory {folder!r} does not exist")


def _write_lines(path, lines) -> None:
    """Write text lines to `path`, each ending in a newline."""
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def save_tensor(path, arr: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(tensor_to_bytes(arr))


def load_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        buf = fh.read()
    arr, end = tensor_from_bytes(buf)
    if end != len(buf):
        raise ValueError(f"trailing bytes after tensor payload: {len(buf) - end}")
    return arr


def save_entries(path, entries: dict) -> None:
    """Write a name -> float32 array mapping as a UIUC container, atomically:
    on any error the file at `path`, if one exists, keeps its old bytes."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC + struct.pack("<BI", FORMAT_VERSION, len(entries)))
            for name, arr in entries.items():
                encoded = name.encode("utf-8")
                if len(encoded) > 0xFFFF:
                    raise ValueError(f"entry name too long: {name!r}")
                fh.write(struct.pack("<H", len(encoded)) + encoded)
                fh.write(tensor_to_bytes(arr))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_entries(path) -> dict:
    """Read a UIUC container back into a name -> array dict, in file order."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < 9:
        raise ValueError("truncated container: header incomplete")
    if buf[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"bad container magic {buf[:4]!r}")
    version, count = struct.unpack_from("<BI", buf, 4)
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported container format version {version}")
    pos = 9
    entries = {}
    for index in range(count):
        if len(buf) - pos < 2:
            raise ValueError("truncated container: entry name length missing")
        (name_len,) = struct.unpack_from("<H", buf, pos)
        pos += 2
        if len(buf) - pos < name_len:
            raise ValueError("truncated container: entry name incomplete")
        try:
            name = buf[pos: pos + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"container entry {index}: name is not UTF-8") from None
        pos += name_len
        arr, pos = tensor_from_bytes(buf, pos)
        if name in entries:
            raise ValueError(f"duplicate entry name {name!r}")
        entries[name] = arr
    if pos != len(buf):
        raise ValueError(f"trailing bytes after last entry: {len(buf) - pos}")
    return entries
