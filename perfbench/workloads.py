"""The four workloads: the operations each runs and the checks on
their outputs.

ops() lists one round's operations, which do not depend on each
other; the run shuffles them.  check(ops, results) takes the results
in the order of ops() and returns the indices of the operations whose
outputs fail a check and messages saying why.  Operations that raised
or exited non-zero carry an "error" and fail in the run without a
check; an operation that succeeds but prints no record fails its
check.  Expected values come from reference.py, from
the paper's stated coefficients, or from properties the paper proves;
none is a stored copy of the program's output.
"""

from __future__ import annotations

from functools import lru_cache

import reference as ref

CLASSIFY_CELLS = 7
CLASSIFY_VARS = 4
RIBBON_SEARCH_CELLS = 7
RIBBON_OP_CELLS = 10
TWO_ENTRY_CELLS = 7
TWO_ENTRY_COEFF_CELLS = 6

# The paper's worked pairs: g-equal but G-different, G-equal (in the
# window) but g-different, and Schur-equal but g-different.
GVG = ("8,6,4,2/4,1", "8,6,4,2/3,2")
GEQ = ("8,6,4,2/3,3,1", "8,6,4,2/5,1,1")
RSW = ("6,5,5,3,2,2/4,2,1,1", "6,5,5,4,4,2/4,3,3,1")
PAPER_MONOMIAL = "x1^6 x2^6 x3^3 x4"
# The paper compares g of GVG in 5 variables; that one call takes 15 s
# here, longer than a run, so the rounds compare it in 4.
GVG_VARS = 4
PAPER_G_COEFFS = {GVG[0]: -353, GVG[1]: -354}


def _cli(*argv: str) -> dict:
    return {"cli": ["--format", "json", *argv]}


def shape_text(cells) -> str:
    """The 'outer/inner' text of a compressed cell set."""
    lam, mu = ref.partition_pair(cells)
    inner = [str(p) for p in mu if p]
    return ",".join(map(str, lam)) + ("/" + ",".join(inner) if inner else "")


@lru_cache(maxsize=None)
def shapes_of(n: int) -> tuple:
    """The reference shapes of n cells, in a fixed order."""
    return tuple(sorted(ref.all_skew_shapes(n), key=shape_text))


@lru_cache(maxsize=None)
def schur_at_ones(cells, k: int) -> int:
    return ref.schur_at_ones(cells, k)


def _record(result: dict):
    return result["out"][0] if result.get("out") else None


NO_OUTPUT = "printed no record"


class ClassifySkew:
    """One `search` over all skew shapes of CLASSIFY_CELLS cells in
    CLASSIFY_VARS variables."""

    def ops(self) -> list[dict]:
        return [_cli("search", "--cells", str(CLASSIFY_CELLS),
                     "--vars", str(CLASSIFY_VARS))]

    def check(self, ops, results):
        if results[0]["error"] is not None:
            return set(), []
        classes = results[0]["out"]
        budget = min(CLASSIFY_VARS, CLASSIFY_CELLS)
        evidence = ("partial_vars", budget) if budget < CLASSIFY_CELLS else ("exact", None)
        msgs = []
        members = [ref.parse_shape_text(m) for c in classes for m in c["members"]]
        if len(members) != len(set(members)):
            msgs.append("a shape is in more than one class")
        expected = set(shapes_of(CLASSIFY_CELLS))
        if set(members) != expected:
            msgs.append(f"classes hold {len(set(members))} shapes,"
                        f" the reference has {len(expected)}")
        for c in classes:
            group = {ref.parse_shape_text(m) for m in c["members"]}
            if {ref.rotate180(s) for s in group} != group:
                msgs.append(f"class of {c['representative']} is not closed under rotation")
            for k in range(1, budget + 1):
                if len({schur_at_ones(s, k) for s in group}) > 1:
                    msgs.append(f"class of {c['representative']}: s(1^{k}) differs")
            if (c["evidence"], c["budget"]) != evidence:
                msgs.append(f"class of {c['representative']}: evidence"
                            f" {c['evidence']}/{c['budget']}, expected {evidence}")
        return ({0} if msgs else set()), msgs


class PaperPairs:
    """The paper's worked pairs through `coeff` and `equal`."""

    def ops(self) -> list[dict]:
        ops = [
            _cli("coeff", GVG[0], "--monomial", PAPER_MONOMIAL, "--kind", "G"),
            _cli("coeff", GVG[1], "--monomial", PAPER_MONOMIAL, "--kind", "G"),
            _cli("equal", "--kind", "g", *GVG, "--vars", str(GVG_VARS)),
            _cli("equal", "--kind", "G", *GEQ, "--vars", "4", "--degree",
                 str(len(ref.parse_shape_text(GEQ[0])) + 1)),
            _cli("equal", "--kind", "g", *GEQ),
            _cli("equal", "--kind", "s", *RSW, "--vars", "5"),
            _cli("equal", "--kind", "g", *RSW),
        ]
        return ops

    def check(self, ops, results):
        bad, msgs = set(), []
        for i, (op, res) in enumerate(zip(ops, results)):
            rec = _record(res)
            argv = op["cli"]
            if res["error"] is not None:
                continue
            problem = None
            if rec is None:
                problem = f"{' '.join(argv[2:])}: {NO_OUTPUT}"
            elif argv[2] == "coeff":
                want = PAPER_G_COEFFS[argv[3]]
                if rec["value"] != want:
                    problem = f"G coefficient of {argv[3]} is {rec['value']}, not {want}"
            else:
                problem = self._check_equal(argv[4], tuple(argv[5:7]), rec["verdict"])
            if problem:
                bad.add(i)
                msgs.append(problem)
        return bad, msgs

    @staticmethod
    def _check_equal(kind, pair, verdict):
        a, b = (ref.parse_shape_text(s) for s in pair)
        if pair == GVG and kind == "g":
            # g agrees in GVG_VARS >= 2 variables, so g(1,1), the
            # two-entry count, agrees too.
            if not (verdict["equal"] and verdict["evidence"] == "partial_vars"
                    and verdict["budget"] == GVG_VARS):
                return f"g of {pair} should agree in {GVG_VARS} variables: {verdict}"
            if ref.two_entry_count(a) != ref.two_entry_count(b):
                return f"g of {pair} cannot agree: two-entry counts differ"
        elif pair == GEQ and kind == "G":
            if not (verdict["equal"] and verdict["evidence"] == "partial_degree"):
                return f"G of {pair} should agree in its window: {verdict}"
        elif pair == RSW and kind == "s":
            if not verdict["equal"]:
                return f"s of {pair} should agree: {verdict}"
            if any(schur_at_ones(a, k) != schur_at_ones(b, k) for k in range(1, 7)):
                return f"s of {pair}: s(1^k) differs"
        elif kind == "g":
            # Different two-entry counts certify that g differs.
            if verdict["equal"] or ref.two_entry_count(a) == ref.two_entry_count(b):
                return f"g of {pair} should differ: {verdict}"
        return None


class RibbonLaw:
    """`search --class ribbon` at a size where it is exact, then one
    `factor` and one `expand` per ribbon of a larger size."""

    def ops(self) -> list[dict]:
        ops = [_cli("search", "--class", "ribbon", "--cells", str(RIBBON_SEARCH_CELLS))]
        for rows in ref.compositions(RIBBON_OP_CELLS):
            text = "(" + ",".join(map(str, rows)) + ")"
            ops += [_cli("factor", text), _cli("expand", text)]
        return ops

    def check(self, ops, results):
        bad, msgs = set(), []
        for i, (op, res) in enumerate(zip(ops, results)):
            if res["error"] is not None:
                continue
            verb, rec = op["cli"][2], _record(res)
            problem = (self._check_search(res["out"]) if verb == "search"
                       else f"{verb} {op['cli'][3]}: {NO_OUTPUT}" if rec is None
                       else self._check_factor(op["cli"][3], rec) if verb == "factor"
                       else self._check_expand(op["cli"][3], rec))
            if problem:
                bad.add(i)
                msgs.append(problem)
        return bad, msgs

    @staticmethod
    def _check_search(classes):
        n = RIBBON_SEARCH_CELLS
        by_cells = {ref.ribbon_cells(rows): rows for rows in ref.compositions(n)}
        if len(classes) != ref.ribbon_class_count(n):
            return f"{len(classes)} ribbon classes, expected {ref.ribbon_class_count(n)}"
        seen = []
        for c in classes:
            rows = [by_cells.get(ref.parse_shape_text(m)) for m in c["members"]]
            if None in rows:
                return f"class of {c['representative']} holds a non-ribbon"
            if set(rows) != {rows[0], ref.reverse(rows[0])}:
                return f"class of {c['representative']} is not {{a, reverse a}}"
            if c["evidence"] != "exact":
                return f"class of {c['representative']} is not exact"
            seen += rows
        if sorted(seen) != sorted(by_cells.values()):
            return "the classes do not hold every ribbon once"
        return None

    @staticmethod
    def _parse_rows(text: str) -> tuple[int, ...]:
        return tuple(int(p) for p in text.strip("()").split(","))

    def _check_factor(self, text, rec):
        rows = self._parse_rows(text)
        factors = [self._parse_rows(f) for f in rec["factors"]]
        out = factors[0]
        for f in factors[1:]:
            out = ref.compose(out, f)
        if out != rows or self._parse_rows(rec["ribbon"]) != rows:
            return f"factors {rec['factors']} do not recompose to {text}"
        return None

    def _check_expand(self, text, rec):
        rows = self._parse_rows(text)
        for k in (1, 2, 3):
            total = sum(t["coeff"] * schur_at_ones(ref.ribbon_cells(tuple(t["rows"])), k)
                        for t in rec["terms"])
            if total != ref.ribbon_rpp_count(rows, k):
                return f"expansion of {text} gives g(1^{k}) = {total}"
        return None


class TwoEntry:
    """Every skew shape up to TWO_ENTRY_CELLS cells through the two-entry
    library calls; shapes up to TWO_ENTRY_COEFF_CELLS cells also get a
    `coeff --kind g` call per two-variable monomial x1^a x2^b, a >= b."""

    def ops(self) -> list[dict]:
        ops = []
        for n in range(1, TWO_ENTRY_CELLS + 1):
            for cells in shapes_of(n):
                text = shape_text(cells)
                ops.append({"rpp2": text})
                if n <= TWO_ENTRY_COEFF_CELLS:
                    ops += [_cli("coeff", text, "--monomial", mono, "--kind", "g")
                            for mono in self._monomials(cells)]
        return ops

    @staticmethod
    def _monomials(cells) -> list[str]:
        """x1^a x2^b with a >= b over every degree a two-entry filling
        can have: one per column, plus one per column of two or more
        cells."""
        cols = {c for _, c in cells}
        tall = sum(1 for c in cols if sum(1 for _, c2 in cells if c2 == c) > 1)
        out = []
        for d in range(len(cols), len(cols) + tall + 1):
            for b in range(d // 2 + 1):
                out.append(" ".join([f"x1^{d - b}"] + ([f"x2^{b}"] if b else [])))
        return out

    def check(self, ops, results):
        bad, msgs = set(), []
        sums: dict[str, int] = {}
        coeff_ops: dict[str, list[int]] = {}
        # Shapes with a coefficient missing have no sum to check.
        incomplete = set()
        for i, (op, res) in enumerate(zip(ops, results)):
            if res["error"] is not None:
                if "cli" in op:
                    incomplete.add(op["cli"][3])
                continue
            if "rpp2" in op:
                text = op["rpp2"]
                want = ref.two_entry_count(ref.parse_shape_text(text))
                problem = None
                if res["fillings"] != want:
                    problem = f"{text}: {res['fillings']} fillings, reference {want}"
                elif res["bad_roundtrips"] or res["bad_mixed"]:
                    problem = (f"{text}: {res['bad_roundtrips']} paths fail to"
                               f" round-trip, {res['bad_mixed']} mixed-column counts"
                               " differ from interior edges")
                if problem:
                    bad.add(i)
                    msgs.append(problem)
            else:
                text, mono = op["cli"][3], op["cli"][5]
                if _record(res) is None:
                    incomplete.add(text)
                    bad.add(i)
                    msgs.append(f"coeff {text} {mono}: {NO_OUTPUT}")
                    continue
                exps = [int(t.split("^")[1]) for t in mono.split()]
                # g is symmetric, so x1^b x2^a has the coefficient of x1^a x2^b.
                weight = 1 if len(exps) == 2 and exps[0] == exps[1] else 2
                sums[text] = sums.get(text, 0) + weight * _record(res)["value"]
                coeff_ops.setdefault(text, []).append(i)
        for text, total in sums.items():
            if text in incomplete:
                continue
            want = ref.two_entry_count(ref.parse_shape_text(text))
            if total != want:
                bad.update(coeff_ops[text])
                msgs.append(f"{text}: two-variable coefficients sum to {total},"
                            f" reference {want}")
        return bad, msgs


WORKLOADS = {
    "classify-skew": ClassifySkew(),
    "paper-pairs": PaperPairs(),
    "ribbon-law": RibbonLaw(),
    "two-entry": TwoEntry(),
}
