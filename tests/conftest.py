"""Pinned outputs under tests/golden, and the --repin option that rewrites them."""

import difflib
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"


def pytest_addoption(parser):
    parser.addoption(
        "--repin", action="store_true",
        help="rewrite the files under tests/golden from this run instead of comparing",
    )


class Golden:
    def __init__(self, repin: bool):
        self.repin = repin

    def compare(self, pattern: str, files: dict[str, str]) -> None:
        """Compare files, {path under tests/golden: text}, with the pinned files
        that match the glob pattern: the same names, each byte for byte.  A
        mismatch fails with a unified diff."""
        pinned = {p.relative_to(GOLDEN).as_posix(): p for p in GOLDEN.glob(pattern)}
        if self.repin:
            for path in pinned.values():
                path.unlink()
            for name, text in files.items():
                (GOLDEN / name).parent.mkdir(parents=True, exist_ok=True)
                (GOLDEN / name).write_text(text)
            return
        assert sorted(files) == sorted(pinned)
        diffs = [
            "".join(difflib.unified_diff(
                pinned[name].read_text().splitlines(keepends=True),
                text.splitlines(keepends=True),
                f"golden/{name}", f"run/{name}",
            ))
            for name, text in sorted(files.items())
            if text != pinned[name].read_text()
        ]
        if diffs:
            pytest.fail("".join(diffs), pytrace=False)


@pytest.fixture
def golden(request) -> Golden:
    return Golden(request.config.getoption("--repin"))
