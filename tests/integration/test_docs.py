"""The docs stay honest: CLI.md covers every subcommand and env var,
and documents no flag the parser does not have.

The same invariants run in CI's ``docs-check`` step, so a new
subcommand (or a renamed one) fails fast until its documentation
lands.
"""

from __future__ import annotations

import argparse
import pathlib
import re

import pytest

from repro.cli import build_parser

REPO = pathlib.Path(__file__).resolve().parents[2]

#: Environment variables the runtime reads; each must be documented.
ENV_VARS = [
    "REPRO_WORKERS",
    "REPRO_CACHE_DIR",
    "REPRO_HOSTS",
    "REPRO_DIST_SECRET",
    "REPRO_CHAOS",
    "REPRO_STREAM_VERIFY",
]


def subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    raise AssertionError("no subparsers found on the CLI parser")


def subcommands() -> list[str]:
    return sorted(subparsers())


def command_sections(cli_md: str) -> dict[str, str]:
    """The body of each ``## `cmd` `` section, keyed by subcommand."""
    parts = re.split(r"^## ", cli_md, flags=re.M)
    sections = {}
    for part in parts:
        match = re.match(r"`([a-z0-9-]+)`", part)
        if match:
            sections[match.group(1)] = part
    return sections


@pytest.fixture(scope="module")
def cli_md() -> str:
    return (REPO / "docs" / "CLI.md").read_text(encoding="utf-8")


class TestCliDoc:
    def test_every_subcommand_has_a_section(self, cli_md):
        headings = set(re.findall(r"^## `([a-z0-9-]+)`", cli_md, re.M))
        missing = [name for name in subcommands() if name not in headings]
        assert not missing, (
            f"subcommand(s) {missing} have no '## `name`' section in "
            "docs/CLI.md"
        )

    def test_no_section_documents_a_ghost_subcommand(self, cli_md):
        headings = re.findall(r"^## `([a-z0-9-]+)`", cli_md, re.M)
        ghosts = [name for name in headings if name not in subcommands()]
        assert not ghosts, (
            f"docs/CLI.md documents nonexistent subcommand(s) {ghosts}"
        )

    def test_no_section_documents_a_ghost_flag(self, cli_md):
        top_level = set(build_parser()._option_string_actions)
        parsers = subparsers()
        ghosts = []
        for name, section in command_sections(cli_md).items():
            known = top_level | set(parsers[name]._option_string_actions)
            for span in re.findall(r"`([^`\n]+)`", section):
                for flag in re.findall(r"(?<![\w-])--[a-z0-9-]+", span):
                    if flag not in known:
                        ghosts.append(f"{name}: {flag}")
        assert not ghosts, (
            f"docs/CLI.md documents nonexistent flag(s) {ghosts}"
        )

    def test_env_vars_are_documented(self, cli_md):
        missing = [var for var in ENV_VARS if var not in cli_md]
        assert not missing, f"env var(s) {missing} missing from docs/CLI.md"

    def test_exit_codes_are_documented(self, cli_md):
        assert "Exit codes" in cli_md


class TestDocSurface:
    def test_readme_links_the_doc_set(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        for target in ("docs/CLI.md", "docs/OPERATIONS.md",
                       "docs/ARCHITECTURE.md"):
            assert target in readme, f"README.md does not link {target}"

    def test_operations_doc_covers_fleet_and_service(self):
        operations = (REPO / "docs" / "OPERATIONS.md").read_text(
            encoding="utf-8"
        )
        for anchor in ("worker", "serve", "--journal", "REPRO_CHAOS"):
            assert anchor in operations

    def test_architecture_doc_covers_the_predict_layer(self):
        architecture = (REPO / "docs" / "ARCHITECTURE.md").read_text(
            encoding="utf-8"
        )
        for anchor in ("Predict layer", "DemandMatrix", "/whatif"):
            assert anchor in architecture
