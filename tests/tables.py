"""Read the CSV tables that experiment.write_csv writes, for the tests."""

import json

from fedtrace.experiment import CONFIG_COMMENT_PREFIX


def read_metrics(path) -> tuple[dict | None, list[dict]]:
    """Read a metrics-style CSV back as (config snapshot, row dicts).

    Cell values come back as strings; the snapshot is the parsed JSON
    from the leading config comment, or None when absent.
    """
    config = None
    header = None
    rows: list[dict] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                if config is None and line.startswith(CONFIG_COMMENT_PREFIX):
                    config = json.loads(line[len(CONFIG_COMMENT_PREFIX):])
                continue
            if header is None:
                header = line.split(",")
                continue
            rows.append(dict(zip(header, line.split(","))))
    return config, rows
