"""CSV text of a float array, independent of tvkuramoto.

`csv_bytes` is the file every experiment CSV must be: two header lines, then
one line per row, each value as Python's own `"%.12g" % x` writes it and ","
between them. It formats value by value and shares no code with the package.
"""


def csv_bytes(header_cols, values, config_hash, units) -> bytes:
    """The CSV file of a 2-d float array under its config-hash and column header lines."""
    lines = [f"# config_hash={config_hash} units: {units}", ",".join(header_cols)]
    lines += [",".join("%.12g" % x for x in row) for row in values.tolist()]
    return ("\n".join(lines) + "\n").encode()
