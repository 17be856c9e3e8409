"""Dense tensor helpers shared by every other module.

Tensors are plain C-contiguous numpy arrays (row-major, last axis fastest;
feature tensors keep time on the last axis).  Two precisions are supported:
float32 for training speed and float64 for the verification suites, selected
per call or per run -- never mixed silently.

The module also owns the binary tensor container used by feature files,
normalization stats, and checkpoints:

    magic "TNSR" | format version u32 | dtype tag u32 (4=f32, 8=f64)
    | rank u32 | extents u64 each | raw scalars, little-endian, row-major
"""

import contextlib
import math
import os
import struct

import numpy as np

FORMAT_VERSION = 1
MAX_RANK = 8
_MAGIC = b"TNSR"

DTYPES = {"f32": np.float32, "f64": np.float64}
_DTYPE_TAGS = {4: np.dtype("<f4"), 8: np.dtype("<f8")}


class ShapeError(ValueError):
    """Raised when operand shapes violate an operation's contract."""


def logsumexp(xs):
    """log(sum(exp(xs))) of a vector of log-domain scalars, max-shifted.

    Entries may be -inf (zero probability).  All -inf yields exactly -inf,
    never NaN.  An empty vector is rejected: the empty sum has no log.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 1 or xs.size == 0:
        raise ValueError(f"logsumexp needs a non-empty vector, got shape {xs.shape}")
    m = np.max(xs)
    if m == -np.inf:
        return -np.inf
    return float(m + np.log(np.sum(np.exp(xs - m))))


def write_tensor(fh, arr):
    """Append one tensor record to an open binary stream."""
    arr = np.asarray(arr)
    if arr.dtype == np.float32:
        tag = 4
    elif arr.dtype == np.float64:
        tag = 8
    else:
        raise ValueError(f"tensor container stores f32/f64 only, got {arr.dtype}")
    fh.write(_MAGIC)
    fh.write(struct.pack("<III", FORMAT_VERSION, tag, arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
    fh.write(np.ascontiguousarray(arr).astype(f"<f{tag}", copy=False).tobytes())


def read_tensor(fh, where=None):
    """Read the next tensor record from an open, seekable binary stream.

    A cut or corrupt record raises ValueError, naming `where`, the file, when
    given.  Every size is checked against the bytes left in the stream before
    it is read, so a corrupt extent cannot ask for a huge allocation.
    """
    at = "" if where is None else f"{where}: "
    pos = fh.tell()
    left = fh.seek(0, os.SEEK_END) - pos
    fh.seek(pos)
    head = fh.read(16)
    if len(head) < 16 and _MAGIC.startswith(head[:4]):
        raise ValueError(f"{at}truncated tensor record: {len(head)}-byte header, expected 16")
    if head[:4] != _MAGIC:
        raise ValueError(f"{at}bad tensor magic {head[:4]!r}, expected {_MAGIC!r}")
    version, tag, rank = struct.unpack("<III", head[4:])
    if version != FORMAT_VERSION:
        raise ValueError(f"{at}unsupported tensor format version {version}")
    if tag not in _DTYPE_TAGS:
        raise ValueError(f"{at}unknown dtype tag {tag}")
    if rank > MAX_RANK:
        raise ValueError(f"{at}tensor rank {rank} exceeds {MAX_RANK}")
    if 16 + 8 * rank > left:
        raise ValueError(f"{at}truncated tensor record: {left - 16} bytes left for "
                         f"{rank} extents")
    shape = struct.unpack(f"<{rank}Q", fh.read(8 * rank))
    dtype = _DTYPE_TAGS[tag]
    nbytes = math.prod(shape) * dtype.itemsize
    if 16 + 8 * rank + nbytes > left:
        raise ValueError(f"{at}truncated tensor record: {left - 16 - 8 * rank} bytes left "
                         f"for a {shape} {dtype} payload of {nbytes}")
    return np.frombuffer(fh.read(nbytes), dtype=dtype).reshape(shape).copy()


@contextlib.contextmanager
def atomic_write(path):
    """Open a binary stream whose bytes replace `path` only once all are on disk.

    The stream writes `path`.tmp; when the block ends, the file is flushed,
    fsynced and renamed onto `path`, and the directory is fsynced so the
    rename survives a crash too.  If the block raises, the temporary file is
    removed and `path` keeps its previous bytes.
    """
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    dir_fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def save_tensor(path, arr):
    with open(path, "wb") as fh:
        write_tensor(fh, arr)


def load_tensor(path):
    with open(path, "rb") as fh:
        return read_tensor(fh, path)
