"""The generator's whole output in memory, for the tests."""

from collections import namedtuple

from fedtrace.synth import generate_stream

Generated = namedtuple("Generated", "scripts placements ranking split manifest")


def generate_scripts(config, catalog) -> Generated:
    """Every script synth.generate_stream yields, with its trace, plus the metadata."""
    stream, *rest = generate_stream(config, catalog)
    return Generated([script for script, _, _ in stream], *rest)
