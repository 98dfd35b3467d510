"""The package's public names."""

import qslkit


def test_every_exported_name_resolves():
    assert [name for name in qslkit.__all__ if not hasattr(qslkit, name)] == []
    assert len(set(qslkit.__all__)) == len(qslkit.__all__)
