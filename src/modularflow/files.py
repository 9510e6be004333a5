"""The package's one file writer: no partial file is left behind on error."""

import os
import tempfile


def atomic_write(path: str, text: str):
    """Write text to a temporary file beside path, then rename it into place."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
