"""Every command's files at its defaults, pinned byte for byte.

Each command runs in process with --format both into the relative directory
out, so every manifest's out_dir reads "out".
"""

import pytest

from caslab import harness


@pytest.mark.parametrize("command", list(harness._COMMANDS))
def test_command_outputs_are_pinned(command, tmp_path, monkeypatch, golden):
    monkeypatch.chdir(tmp_path)
    code = harness.main([command, "--out", "out", "--format", "both"])
    assert code == (1 if command == "verify-all" else 0)  # criterion 3 stays red
    files = {f"commands/{p.name}": p.read_text() for p in (tmp_path / "out").iterdir()}
    golden.compare(f"commands/{command}[._]*", files)
