"""Output checks for benchmark jobs.

Each check reads only what the CLI printed (and the CSV it wrote) and
decides it with code that shares nothing with the package under test: the
Z[sqrt 2] matrix oracle and the deletion-based right-angled reducer from
tests/oracles.py, a floating-point geometric representation for orders the
matrix oracle cannot hold, and the closed form of the simulator's distances
evaluated with this module's own right-angled normal form.  A check returns
None when the output is right and a reason when it is not.
"""

import math
import re
from fractions import Fraction
from math import inf
from types import SimpleNamespace

import oracles

HALF_ULP = Fraction(1, 2 * 10**12)  # distances print with 12 decimals
WITNESS_LINE = re.compile(r"w=(.*)  v=(.*)  x=(.*)$")
SCAN_LINE = re.compile(r"(min|max) over the radius-(\d+) ball: (\S+)$")
DERIVED_LINE = re.compile(r"derived: s0=(\S+) t0=(\S+) x=(.*)$")


class CheckSystem:
    """A system file read without the package: enough for the oracles."""

    def __init__(self, text):
        self.labels = []
        rows = []
        ray_lines = []
        in_matrix = False
        for line in text.splitlines():
            line = line.split("#")[0].strip()
            if line.startswith("generators:"):
                self.labels = line[len("generators:"):].split()
            elif line.startswith("matrix:"):
                in_matrix = True
            elif line.startswith("rays:"):
                in_matrix = False
            elif in_matrix and line:
                rows.append(tuple(inf if x == "inf" else int(x) for x in line.split()))
            elif "=" in line:
                ray_lines.append(line)
        self.rank = len(self.labels)
        self.generators = range(self.rank)
        self.matrix = SimpleNamespace(entries=tuple(rows))
        self.exact = all(m in (1, 2, 3, 4, inf) for row in rows for m in row)
        self.geometry = Geometry(rows)
        self._mats = oracles.generator_matrices(self) if self.exact else None
        self._balls = {}
        self.rays = {}
        for line in ray_lines:
            name, _, rest = line.partition("=")
            head, _, period = rest.partition("|")
            self.rays[name.strip()] = (self.word(head), self.word(period))

    def order(self, i, j):
        return self.matrix.entries[i][j]

    def word(self, text):
        """Letter indices of a printed word; '1' and '' are the identity."""
        tokens = text.split()
        if tokens == ["1"]:
            return ()
        return tuple(self.labels.index(t) for t in tokens)

    def same_element(self, u, v):
        if self.exact:
            return oracles.word_matrix(self, u, self._mats) == oracles.word_matrix(
                self, v, self._mats
            )
        return self.geometry.same_element(u, v)

    def right_descents(self, word):
        if not self.exact:
            return self.geometry.right_descents(word)
        # e_s . M(w^-1) is w(alpha_s): a root, negative exactly for descents
        mat = oracles.word_matrix(self, tuple(reversed(word)), self._mats)
        return frozenset(s for s in self.generators if _negative_root(mat[s]))

    def normal_form(self, word):
        """Lex-least reduced word of a right-angled element.

        Each letter cancels the last occurrence it commutes past, or is
        inserted into the trailing block it commutes with, before the first
        larger letter there.
        """
        entries = self.matrix.entries
        out = []
        for s in word:
            j = len(out) - 1
            while j >= 0 and out[j] != s and entries[out[j]][s] == 2:
                j -= 1
            if j >= 0 and out[j] == s:
                del out[j]
                continue
            i = j + 1
            while i < len(out) and out[i] < s:
                i += 1
            out.insert(i, s)
        return tuple(out)

    def proxy(self, g, ray_a, ray_b, depth):
        """2^-k - 2^-depth, k the common prefix of the translated rays.

        A ray is translated by the normal form of g times a prefix that
        reaches depth + 2|g| + one period, as the simulator does.
        """
        glen = len(self.normal_form(g))
        translated = []
        for head, period in (ray_a, ray_b):
            margin = depth + 2 * glen + len(period)
            letters = (head + period * (margin // len(period) + 1))[:margin]
            translated.append(self.normal_form(tuple(g) + letters)[:depth])
        u, v = translated
        k = next((i for i in range(depth) if u[i] != v[i]), depth)
        return Fraction(1, 2**k) - Fraction(1, 2**depth)

    def ball_layers(self, radius):
        """Normal forms of the elements of each length up to radius."""
        layers = [[()]]
        seen = {()}
        for _ in range(radius):
            layer = []
            for w in layers[-1]:
                for s in self.generators:
                    u = self.normal_form(w + (s,))
                    if len(u) > len(w) and u not in seen:
                        seen.add(u)
                        layer.append(u)
            layers.append(layer)
        return layers

    def ball_size(self, radius):
        if radius not in self._balls:
            self._balls[radius] = len(oracles.bfs_distances(self, radius))
        return self._balls[radius]


def _positive(x):
    """Sign test for a + b*sqrt(2) given as the pair (a, b)."""
    a, b = x
    if a >= 0 and b >= 0:
        return a > 0 or b > 0
    if a <= 0 and b <= 0:
        return False
    return a * a > 2 * b * b if a > 0 else 2 * b * b > a * a


def _negative_root(row):
    first = next(x for x in row if x != (0, 0))
    return not _positive(first)


class Geometry:
    """Tits' geometric representation in floating point.

    A root has coefficients of one sign and bilinear norm 1, so the sign of
    its largest coefficient decides positivity with a wide margin for the
    short words the benchmark checks.
    """

    def __init__(self, rows):
        n = len(rows)
        self.rank = n
        self.form = [
            [1.0 if i == j else -math.cos(math.pi / rows[i][j]) if rows[i][j] != inf
             else -1.0 for j in range(n)]
            for i in range(n)
        ]

    def _basis(self, s):
        return [1.0 if t == s else 0.0 for t in range(self.rank)]

    def act(self, word, v):
        """Image of v under the element s_1 ... s_n named by word."""
        v = list(v)
        for s in reversed(word):
            b = sum(f * x for f, x in zip(self.form[s], v))
            v[s] -= 2 * b
        return v

    @staticmethod
    def negative(v):
        return max(v, key=abs) < 0

    def right_descents(self, word):
        return frozenset(
            s for s in range(self.rank) if self.negative(self.act(word, self._basis(s)))
        )

    def is_reduced(self, word):
        # s_1 .. s_k is reduced iff s_1 .. s_(k-1) sends alpha_(s_k) positive
        return not any(
            self.negative(self.act(word[:k], self._basis(word[k])))
            for k in range(len(word))
        )

    def is_lex_least(self, word):
        """A reduced word is lex-least iff each letter is the smallest left
        descent of the suffix it starts."""
        for k in range(len(word)):
            inverse = tuple(reversed(word[k:]))
            for s in range(word[k]):
                if self.negative(self.act(inverse, self._basis(s))):
                    return False
        return True

    def same_element(self, u, v):
        for t in range(self.rank):
            a = self.act(u, self._basis(t))
            b = self.act(v, self._basis(t))
            if any(abs(x - y) > 1e-6 * (1 + abs(x)) for x, y in zip(a, b)):
                return False
        return True


def check_simulate(job, out, csv_text, system):
    """Recompute every printed distance from the closed form.

    With k the length of the common prefix of the two translated normal
    forms (at most depth), the proxy distance is exactly 2^-k - 2^-depth.
    Every printed value must have that form, and each is recomputed here
    from the rays, the orbit data or the ball, with the benchmark's own
    normal form.
    """
    argv, check = job["argv"], job["check"]
    depth = check["depth"]
    lines = out.splitlines()
    if not lines or not lines[-1].startswith("note: distances are word-metric proxy"):
        return "missing proxy disclaimer"
    printed = {}
    for line in lines:
        key, _, value = line.partition(": ")
        if key in ("min", "max"):
            printed[key] = Fraction(value)
        match = SCAN_LINE.match(line)
        if match:
            printed["scan"] = Fraction(match.group(3))
    if "min" not in printed or "max" not in printed:
        return "min/max lines missing"
    mode = argv[argv.index("--mode") + 1]
    if mode == "liminf":
        rows = csv_text.splitlines()
        kmax = int(argv[argv.index("--kmax") + 1])
        if rows[:1] != ["k,distance"] or len(rows) != kmax + 1:
            return f"CSV missing or not {kmax} rows of k,distance"
        got = []
        for i, row in enumerate(rows[1:], start=1):
            k, _, value = row.partition(",")
            if int(k) != i:
                return f"CSV row {i} is numbered {k}"
            got.append(Fraction(value))
    elif "scan" not in printed:
        return "scan result line missing"
    else:
        got = [printed["scan"]]
    for value in got + [printed["min"], printed["max"]]:
        if not any(abs(value - closed) <= HALF_ULP for closed in _closed_forms(depth)):
            return f"distance {value} is not 2^-k - 2^-{depth}"
    if check.get("known_defect"):
        return None  # a fix may canonicalise the ray: only the form is fixed

    ray_a, ray_b = system.rays[argv[2]], system.rays[argv[3]]
    if mode == "liminf":
        match = next(filter(None, map(DERIVED_LINE.match, lines)), None)
        if match is None:
            return "no derived orbit data"
        s0, t0 = system.labels.index(match.group(1)), system.labels.index(match.group(2))
        x = () if match.group(3) == "(empty)" else system.word(match.group(3))
        want = series = [system.proxy((s0, t0) * k + x[::-1], ray_a, ray_b, depth)
                         for k in range(1, kmax + 1)]
        below = next((k for k, d in enumerate(want, start=1) if d < Fraction(1, 256)), None)
        threshold = f"yes (first k: {below})" if below else "no"
        if f"threshold below 2^-8 reached: {threshold}" not in lines:
            return f"threshold line should say {threshold!r}"
    else:
        pick = max if mode == "limsup" else min
        series = []  # extreme over the ball of each radius, as the scan reports it
        for layer in system.ball_layers(int(argv[argv.index("--L") + 1])):
            best = pick(system.proxy(g, ray_a, ray_b, depth) for g in layer)
            series.append(best if not series else pick(series[-1], best))
        positive = "yes" if series[-1] > 0 else "no"
        if f"strictly positive: {positive}" not in lines:
            return "positivity line disagrees with the value"
        if mode == "obstruction":
            # rays in different factors: the minimum is 2^-L - 2^-depth
            radius = len(series) - 1
            if series[-1] != Fraction(1, 2**radius) - Fraction(1, 2**depth):
                return "obstruction minimum is not 2^-L - 2^-depth"
        got, want = [printed["scan"]], [series[-1]]
    for i, (value, exact) in enumerate(zip(got, want)):
        if abs(value - exact) > HALF_ULP:
            return f"value {i} prints {value}, recomputed {exact}"
    for key, exact in (("min", min(series)), ("max", max(series))):
        if abs(printed[key] - exact) > HALF_ULP:
            return f"{key} prints {printed[key]}, recomputed {exact}"
    return None


def _closed_forms(depth):
    return [Fraction(1, 2**k) - Fraction(1, 2**depth) for k in range(depth + 1)]


def check_canary(out, label, fraction):
    want = Fraction(*fraction)
    for line in out.splitlines():
        if line.startswith(label + ": "):
            got = Fraction(line[len(label) + 2:])
            if abs(got - want) <= HALF_ULP:
                return None
            return f"{label}: {got} != {want}"
    return f"no {label!r} line"


def check_check71(job, out, system, rng, sample=8):
    check = job["check"]
    lines = out.splitlines()
    verdict = "yes" if check["holds"] else "no"
    if lines[:1] != [f"condition holds up to length {check['L']}: {verdict}"]:
        return f"expected verdict {verdict!r}"
    count_line = next((x for x in lines if x.startswith("pairs checked: ")), None)
    if count_line is None:
        return "no pairs-checked line"
    pairs = int(count_line.split(": ")[1])
    rows = [WITNESS_LINE.match(x) for x in lines[lines.index(count_line) + 1:]]
    if len(rows) != pairs or not all(rows):
        return f"{len(rows)} witness rows for {pairs} pairs"
    n = system.ball_size(check["L"])
    total = n * (n + 1) // 2
    if check["holds"] != (pairs == total) or pairs > total:
        return f"{pairs} witnessed pairs out of {total}"
    seen = set()
    for row in rows:
        key = (row.group(1), row.group(2))
        if key in seen:
            return f"pair {key} listed twice"
        seen.add(key)
        if len(system.word(row.group(3))) > check["K"]:
            return f"witness {row.group(3)!r} longer than K"
    target = frozenset([system.labels.index(check["s0"])])
    for row in rng.sample(rows, min(sample, len(rows))):
        w, v, x = (system.word(row.group(i)) for i in (1, 2, 3))
        for u in (w, v):
            if len(u) > check["L"] or oracles.slow_ra_length(system, u) != len(u):
                return f"{row.group(0)!r}: element not reduced or too long"
            if oracles.slow_ra_descents(system, u + x) != target:
                return f"{row.group(0)!r}: descents of the product are not {{s0}}"
    return None


def check_coxeter(job, out, system):
    command = job["argv"][0]
    lines = out.splitlines()
    word = system.word(" ".join(job["check"].get("word", ())))
    if command == "reduce":
        if len(lines) != 2 or lines[1] != f"length: {len(lines[0].split())}":
            return "expected a word and its length"
        got = system.word(lines[0])
        if not system.same_element(word, got):
            return "reduced word names another element"
        if not system.geometry.is_reduced(got):
            return "output is not reduced"
        if not system.geometry.is_lex_least(got):
            return "output is not the lex-least reduced word"
        return None
    if command == "descent":
        want = "{" + " ".join(system.labels[s] for s in sorted(system.right_descents(word))) + "}"
        return None if lines == [want] else f"descent set should be {want}"
    boundary, verdict, _ = job["check"]["expect"]
    want = [f"rank: {system.rank}", "right-angled: no", f"boundary: {boundary}", *verdict]
    missing = [x for x in want if x not in lines]
    return f"analyze output lacks {missing}" if missing else None
