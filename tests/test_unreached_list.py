"""The allowlist of the statement-reach gate (tests/statement_reach.py) names
real statements: each entry, with its reason, matches exactly one counted
statement of src/toric_dmod, so a refactor that moves or rewrites a listed
statement updates the list in the same change. Whether the listed statements
are still unreached is the gate's own run, outside tier-1."""

import textwrap

from statement_reach import (listed_statements, module_statements, package_statements,
                             read_allowlist)


def test_every_listed_statement_occurs_exactly_once():
    entries = read_allowlist()
    assert entries
    named, problems = listed_statements(package_statements(), entries)
    assert problems == []
    assert len(named) == len(entries)


def test_counted_statements_and_the_lines_they_own(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(textwrap.dedent('''\
        """Docstring."""
        import os
        LIMIT = (1 +
                 2)


        class Box:
            """Docstring."""
            size = 3

            def grow(self, k):
                try:
                    if (k >
                            LIMIT):
                        raise ValueError("too big")
                except ValueError:
                    return None
                return k
        '''))
    found = [(s.where, s.text, sorted(s.lines)) for s in module_statements(path)]
    assert found == [
        ("sample", "LIMIT = (1 +", [3, 4]),
        ("sample.Box", "size = 3", [9]),
        ("sample.Box.grow", "if (k >", [13, 14]),
        ("sample.Box.grow", 'raise ValueError("too big")', [15]),
        ("sample.Box.grow", "return None", [17]),
        ("sample.Box.grow", "return k", [18]),
    ]
