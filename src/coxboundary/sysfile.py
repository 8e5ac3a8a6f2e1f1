"""Text format for Coxeter systems and named rays.

A system file has a ``generators:`` line, a ``matrix:`` section with one row
per generator (entries are positive integers or the token ``inf``), and an
optional ``rays:`` section of ``name = head | period`` lines whose words are
whitespace-separated generator labels.  ``#`` starts a comment; blank lines
are ignored.  Parse failures carry a 1-based line (and where sensible,
column) so they can be reported against the source file.
"""

from math import inf

from . import core
from .boundary import Ray, validate_ray
from .errors import (
    InvalidMatrix,
    SystemFileError,
    UnknownGenerator,
)


def _entry(token, line_no, column):
    if token == "inf":
        return inf
    if token.isdigit() and int(token) >= 1:
        return int(token)
    raise SystemFileError(
        f"bad matrix entry {token!r} (expected a positive integer or 'inf')",
        line_no,
        column,
    )


def _strip(line):
    if "#" in line:
        line = line[: line.index("#")]
    return line.strip()


def parse_word(system, text):
    """Word from a whitespace-separated string of generator labels."""
    return tuple(system.index_of(tok) for tok in text.split())


def format_word(system, word):
    return " ".join(system.labels[s] for s in word)


def parse_system_file(text):
    """Parse a system file into (CoxeterSystem, {name: Ray})."""
    lines = text.splitlines()
    labels = None
    matrix_rows = []
    matrix_line = None
    ray_lines = []
    section = None
    for no, raw in enumerate(lines, start=1):
        line = _strip(raw)
        if not line:
            continue
        if line.startswith("generators:"):
            labels = line[len("generators:") :].split()
            if not labels:
                raise SystemFileError("no generator labels given", no)
            section = "generators"
        elif line.startswith("matrix:"):
            if labels is None:
                raise SystemFileError("matrix: section before generators:", no)
            section = "matrix"
            matrix_line = no
        elif line.startswith("rays:"):
            section = "rays"
        elif section == "matrix" and len(matrix_rows) < len(labels):
            tokens = line.split()
            if len(tokens) != len(labels):
                raise SystemFileError(
                    f"matrix row has {len(tokens)} entries, expected {len(labels)}",
                    no,
                )
            row = []
            for tok in tokens:
                col = raw.index(tok) + 1
                row.append(_entry(tok, no, col))
            matrix_rows.append(row)
        elif section == "rays":
            ray_lines.append((no, line))
        else:
            raise SystemFileError(f"unexpected line {line!r}", no)
    if labels is None:
        raise SystemFileError("missing generators: line", max(len(lines), 1))
    if matrix_line is None:
        raise SystemFileError("missing matrix: section", max(len(lines), 1))
    if len(matrix_rows) != len(labels):
        raise SystemFileError(
            f"matrix has {len(matrix_rows)} rows, expected {len(labels)}",
            matrix_line,
        )
    try:
        system = core.validate(matrix_rows, labels)
    except InvalidMatrix as exc:
        raise SystemFileError(str(exc), matrix_line) from exc

    rays = {}
    for no, line in ray_lines:
        if "=" not in line:
            raise SystemFileError("ray line needs 'name = head | period'", no)
        name, _, rest = line.partition("=")
        name = name.strip()
        if not name:
            raise SystemFileError("ray has no name", no)
        if name in rays:
            raise SystemFileError(f"duplicate ray name {name!r}", no)
        if "|" not in rest:
            raise SystemFileError("ray needs a '|' between head and period", no)
        head_text, _, period_text = rest.partition("|")
        try:
            head = parse_word(system, head_text)
            period = parse_word(system, period_text)
        except UnknownGenerator as exc:
            raise SystemFileError(str(exc), no) from exc
        if not period:
            raise SystemFileError("ray period must be nonempty", no)
        ray = Ray(head, period)
        if not system.right_angled:
            raise SystemFileError("rays require a right-angled system", no)
        if not validate_ray(system, ray, len(head) + 2 * len(period)):
            raise SystemFileError(f"ray {name!r} is not reduced", no)
        rays[name] = ray
    return system, rays


def format_system_file(system, rays=None):
    """Render a system (and rays) back to the text format."""
    out = ["generators: " + " ".join(system.labels), "matrix:"]
    for row in system.matrix.entries:
        out.append(" ".join("inf" if m == inf else str(m) for m in row))
    if rays:
        out.append("rays:")
        for name, ray in rays.items():
            out.append(
                f"{name} = {format_word(system, ray.head)}"
                f" | {format_word(system, ray.period)}"
            )
    return "\n".join(out) + "\n"
