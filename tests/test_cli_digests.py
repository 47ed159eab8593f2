"""Command line bytes: stdout, stderr and exit code of every corpus program
under ``check``, ``analyze``, ``mop`` and ``verify`` match the recorded
digests in ``golden/cli_digests.json``."""

import json

from helpers import CLI_DIGESTS, cli_digest_table


def test_cli_output_matches_recorded_digests():
    recorded = json.loads(CLI_DIGESTS.read_text(encoding="utf-8"))
    table = cli_digest_table()
    assert sorted(table) == sorted(recorded)
    assert [cmd for cmd in table if table[cmd] != recorded[cmd]] == []
