"""The package's one file writer: no partial file is left behind on error."""

import os
import tempfile


def atomic_write(path: str, text: str):
    """Write text to a temporary file beside path, then rename it into place.

    The file holds text.encode(), written to the descriptor with os.write
    until every byte is out; every text the package writes is ASCII, so
    these are the bytes a text-mode file writes on Linux.  The file keeps
    mkstemp's mode, 0600, and on any exception the temporary file is removed
    and path is left as it was.
    """
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        data = memoryview(text.encode())
        try:
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
