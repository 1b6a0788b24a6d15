"""Docs-consistency checks, wired into the tier-1 run.

Guards against documentation drift:

* every CLI subcommand (including nested ones, e.g. ``repro scenario
  run``) and long flag that ``repro.__main__.build_parser`` defines
  must be mentioned in README.md, and every ``python -m repro …``
  command README shows must still parse;
* the machine-constants table in docs/cost_model.md must list every
  :class:`MachineConfig` field with its actual default;
* every registered degradation scenario (and each of its knobs) must be
  documented in docs/scenarios.md;
* module paths referenced in the docs must import.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import io
import re
import shlex
from pathlib import Path

import pytest

from repro.__main__ import build_parser
from repro.config import MachineConfig
from repro.scenarios import SCENARIO_NAMES, get_scenario

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
COST_MODEL = (ROOT / "docs" / "cost_model.md").read_text()
SCENARIOS_DOC = (ROOT / "docs" / "scenarios.md").read_text()


def _walk_parser(
    parser: argparse.ArgumentParser, prefix: str, commands: set[str], flags: set[str]
) -> None:
    for action in parser._actions:
        flags.update(opt for opt in action.option_strings if opt.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                path = f"{prefix} {name}".strip()
                commands.add(path)
                _walk_parser(sub, path, commands, flags)


def cli_surface() -> tuple[set[str], set[str]]:
    """(full subcommand paths, long option strings) of the real parser."""
    commands: set[str] = set()
    flags: set[str] = set()
    _walk_parser(build_parser(), "", commands, flags)
    flags.discard("--help")
    return commands, flags


def test_every_cli_subcommand_documented_in_readme():
    subcommands, _ = cli_surface()
    assert subcommands  # the parser really has subcommands
    assert "scenario run" in subcommands  # the walk really recurses
    missing = {cmd for cmd in subcommands if not re.search(rf"\brepro {cmd}\b", README)}
    assert not missing, f"README.md never shows these subcommands: {sorted(missing)}"


def test_every_cli_flag_documented_in_readme():
    _, flags = cli_surface()
    assert flags
    missing = {flag for flag in flags if flag not in README}
    assert not missing, f"README.md never mentions these flags: {sorted(missing)}"


def readme_cli_lines() -> list[str]:
    """The arguments of every ``python -m repro …`` line in README's fenced
    blocks, ``\\`` continuations joined and shell comments/redirects cut."""
    lines = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", README, re.MULTILINE | re.DOTALL):
        for line in re.sub(r"\\\n\s*", " ", block).splitlines():
            match = re.search(r"python -m repro\b(.*)", line)
            if match:
                lines.append(re.split(r"\s[|>]|\s&&|;", match.group(1))[0])
    return lines


def test_every_readme_cli_line_parses():
    lines = readme_cli_lines()
    assert len(lines) > 50  # the extraction really finds README's examples
    parser = build_parser()
    stale = []
    for line in lines:
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                parser.parse_args(shlex.split(line, comments=True))
        except SystemExit:
            stale.append(line.strip())
    assert not stale, f"README.md shows commands the CLI rejects: {stale}"


def machine_constant_rows() -> dict[str, str]:
    """constant name -> default cell from the cost-model table."""
    rows = {}
    for match in re.finditer(r"^\| `(\w+)` \| ([^|]+) \|", COST_MODEL, re.MULTILINE):
        rows[match.group(1)] = match.group(2).strip()
    return rows


def test_cost_model_table_covers_every_config_field():
    documented = set(machine_constant_rows())
    actual = {f.name for f in dataclasses.fields(MachineConfig)}
    assert actual <= documented, (
        f"docs/cost_model.md table is missing MachineConfig fields: "
        f"{sorted(actual - documented)}"
    )


@pytest.mark.parametrize("field", dataclasses.fields(MachineConfig), ids=lambda f: f.name)
def test_cost_model_defaults_match_config(field):
    rows = machine_constant_rows()
    if field.name not in rows:
        pytest.skip("coverage asserted separately")
    cell = rows[field.name]
    default = field.default
    if default is None:
        assert "infinite" in cell or "None" in cell, (
            f"{field.name}: doc says {cell!r}, default is None (infinite)"
        )
    elif isinstance(default, str):
        assert default in cell, f"{field.name}: doc says {cell!r}, default is {default!r}"
    else:
        number = re.search(r"[\d.]+", cell)
        assert number, f"{field.name}: no numeric default in doc cell {cell!r}"
        assert float(number.group()) == float(default), (
            f"{field.name}: doc says {cell!r}, default is {default!r}"
        )


def test_every_registered_scenario_documented():
    """docs/scenarios.md is the handbook: every scenario has a section."""
    missing = {
        name
        for name in SCENARIO_NAMES
        if not re.search(rf"\b{re.escape(name)}\b", SCENARIOS_DOC)
    }
    assert not missing, f"docs/scenarios.md never mentions scenarios: {sorted(missing)}"


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_every_scenario_knob_documented(name):
    scenario = get_scenario(name)
    missing = {
        knob.name
        for knob in scenario.knobs
        if not re.search(rf"\b{re.escape(knob.name)}\b", SCENARIOS_DOC)
    }
    assert not missing, (
        f"docs/scenarios.md never mentions {name!r} knob(s): {sorted(missing)}"
    )


#: module paths the prose docs rely on (drift guard for renames).
DOCUMENTED_MODULES = [
    "repro.analysis.fuzz",
    "repro.analysis.naming",
    "repro.analysis.static",
    "repro.apps.costs",
    "repro.core.bench",
    "repro.core.parallel",
    "repro.core.perf",
    "repro.mem.cache",
    "repro.obs.attrib",
    "repro.obs.profile",
    "repro.obs.telemetry",
    "repro.scenarios.inject",
    "repro.scenarios.registry",
    "repro.scenarios.report",
    "repro.sim.engine",
    "repro.sim.reference",
]


@pytest.mark.parametrize("module", DOCUMENTED_MODULES)
def test_documented_module_paths_import(module):
    importlib.import_module(module)
