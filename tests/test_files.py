"""The package's file writer: the text's bytes, all of them, or the old file."""

import os
import stat

import pytest

from modularflow import files
from modularflow.files import atomic_write

TEXT = "line_id,param,x0\n" + "".join(f"{i},{i / 7!r},-0\n" for i in range(2000))


def test_file_holds_the_encoded_text(tmp_path):
    path = tmp_path / "f.csv"
    path.write_bytes(b"previous contents, longer than the new ones" * 2000)
    atomic_write(str(path), TEXT)
    assert path.read_bytes() == TEXT.encode()
    assert os.listdir(tmp_path) == ["f.csv"]


def test_short_writes_write_everything(tmp_path, monkeypatch):
    # os.write may write fewer bytes than it is given
    write, sizes = os.write, []

    def one_byte(fd, data):
        sizes.append(len(data))
        return write(fd, bytes(data[:1]))

    monkeypatch.setattr(files.os, "write", one_byte)
    path = tmp_path / "f.txt"
    atomic_write(str(path), TEXT[:300])
    monkeypatch.undo()
    assert path.read_bytes() == TEXT[:300].encode()
    assert sizes == list(range(300, 0, -1))


@pytest.mark.parametrize("error", [OSError(28, "No space left on device"), KeyboardInterrupt()])
def test_failed_write_leaves_the_previous_file(tmp_path, monkeypatch, error):
    path = tmp_path / "f.txt"
    path.write_bytes(b"old\n")
    write, fds = os.write, []

    def fail_after_one_byte(fd, data):
        fds.append(fd)
        if len(fds) > 1:
            raise error
        return write(fd, bytes(data[:1]))

    monkeypatch.setattr(files.os, "write", fail_after_one_byte)
    with pytest.raises(type(error)):
        atomic_write(str(path), "new\n")
    monkeypatch.undo()
    assert path.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["f.txt"]  # no *.tmp left behind
    with pytest.raises(OSError):  # the descriptor is closed
        os.fstat(fds[0])


def test_file_keeps_the_temporary_files_mode(tmp_path):
    # mkstemp creates the file 0600 and the rename keeps it
    path = tmp_path / "f.txt"
    path.write_bytes(b"old\n")
    os.chmod(path, 0o644)
    atomic_write(str(path), "new\n")
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o600
