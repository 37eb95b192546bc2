"""SPARQL text front-end for the in-engine pattern algebra.

`ops/bgp.py` exposes the evaluator as a Python API; this module lets a
user hand the engine an actual SPARQL string — the surface a reference
user already writes against a remote endpoint
(`/root/reference/pyrdf2vec/connectors.py:99-116` builds exactly these
query strings) — for the supported subset:

    SELECT [DISTINCT] ?v ... | * WHERE {
        ?s pred ?o .                 # triple patterns ('.' separated)
        ?s (p1|p2)+ ?o .             # property paths (closure)
        ?s p* ?o .                   # zero-or-more: closure ∪ node
                                     #   identity (set-semantics
                                     #   guarded); (p1|p2)* too
        ?s p1/p2 ?o .                # sequence path: expanded at parse
                                     #   time into chained patterns
                                     #   through fresh join variables
        ?s ^p ?o .                   # inverse path: endpoints swap;
                                     #   steps compose (^a/b+/c works);
                                     #   bare tokens only — <iri> and
                                     #   quoted predicates opt out
        FILTER(?a != ?b)             # =, !=, <, <=, >, >=
        FILTER EXISTS { ... }        # sub-BGP SEMI-join on shared vars
                                     #   (may carry inner FILTERs —
                                     #   applied to the sub-solutions
                                     #   before the key set)
        FILTER NOT EXISTS { ... }    # sub-BGP ANTI-join (for null-free
                                     #   solution sets ≡ MINUS when a
                                     #   variable is shared; the SPARQL
                                     #   divergence cases raise)
        OPTIONAL { ... }             # nested pattern group; may carry
                                     #   FILTERs — applied to the
                                     #   group's OWN solutions BEFORE
                                     #   the left join
        MINUS { ... }                #   like OPTIONAL: plain patterns
                                     #   + group-local FILTERs
        VALUES ?v { "x" "y" }        # inline per-var value list
        VALUES (?a ?b) { ("x" "y") } # correlated rows: an inline
                                     #   solution table inner-joined
                                     #   on the variable tuple
                                     #   (broadcast once)
        BIND(?x AS ?y)               # column copy / constant fill,
                                     #   applied after the pattern
                                     #   join (plain SELECT only)
        { ?s p ?o . FILTER(...) }    # nested PLAIN group: spliced
                                     #   into the parent (conjunction
                                     #   is associative; FILTER over a
                                     #   pure join is placement-
                                     #   invariant) — nested OPTIONAL/
                                     #   MINUS/UNION members raise
    } [LIMIT n]

    SELECT ?v ... WHERE { { ... } UNION { ... } }   # alternation:
        each branch (own filters/OPTIONAL/MINUS/VALUES) is evaluated
        independently, projected to the SELECT vars, concatenated, and
        deduped with one bucket shuffle — SELECT-DISTINCT set
        semantics (bag-UNION multiplicities are a documented
        deviation; the SQL-oracle parity form is UNION, which dedups)

    SELECT ?g (COUNT(?v) AS ?n) (SUM(?x) AS ?s) (AVG(?x) AS ?a)
           (MIN(?x) AS ?lo) (MAX(?x) AS ?hi)
    WHERE { ... } GROUP BY ?g        # aggregates compile to ONE
        bucket_agg shuffle (partials combine per batch); SUM/AVG cast
        their input to float64 (numeric literals are stored as
        strings), MIN/MAX compare the raw string form (SQL VARCHAR
        min/max parity), AVG divides sum/size after the shuffle;
        WITHOUT a GROUP BY the implicit single group applies (a
        constant key tags every solution, dropped after the reduce)

    (GROUP_CONCAT(?v) AS ?s)         # DISTINCT values sorted and
        space-joined (deterministic; SPARQL leaves order unspecified —
        oracle form ``string_agg(DISTINCT v, ' ' ORDER BY v)``); same
        ONE (group, value)-distinct shuffle as COUNT DISTINCT + a
        group-bucket fold

    (COUNT(DISTINCT ?v) AS ?n)       # exact distinct count: ONE
        (group, value)-distinct bucket shuffle (per-batch distinct
        combiner cuts the exchanged volume) + a group-scale count;
        joined back to any plain aggregates with a group-scale
        hash_join — approximate counting at extreme cardinality is
        ops/sketch.hll_count, deliberately not silently substituted

    ... GROUP BY ?g HAVING(?n > 5) [(?s <= 100) ...]
        # post-aggregate filters over the ALIASED outputs, applied as
        # a vectorized block-local mask (group-scale, no exchange);
        # numeric compare when the literal parses as a number, else
        # raw-string compare (matching the MIN/MAX VARCHAR semantics)

    ... ORDER BY ?v [LIMIT n] [OFFSET m]   # OFFSET is an ordered
        block-boundary split (`split_at_indices`) over the
        RESULT-sized set — no driver materialization; LIMIT counts
        rows after the OFFSET skip (either keyword order accepted)

Terms: ``?var``, ``"quoted literal"``, ``<iri>`` (angle brackets
stripped), or a bare token (taken as a constant symbol — this engine's
triple stores hold plain strings like ``customer:17``).  CONSTRUCT
templates are reached through :func:`sparql_query` with a
``CONSTRUCT { s p o } WHERE { ... }`` head.

The parser is a ~100-line recursive-descent over a regex token stream
— deliberately small: everything after parsing is the distributed
plan of `bgp_match`/`bgp_construct`, so the text layer adds zero
execution machinery.  Unsupported syntax raises ``SparqlSyntaxError``
naming the offending token (no silent partial parses).
"""
from __future__ import annotations

import re

import ray.data

from pyrdf2vec_ray.ops.bgp import bgp_construct, bgp_match

_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<string>"(?:[^"\\]|\\.)*")
      | (?P<iri><[^>\s]*>)
      | (?P<punct>[{}(),.]|!=|<=|>=|=|<|>)
      | (?P<word>[^\s{}(),."<>=!]+)
    )""", re.VERBOSE)

_FILTER_OPS = {"=": "==", "!=": "!=", "<": "<", "<=": "<=",
               ">": ">", ">=": ">="}


class SparqlSyntaxError(ValueError):
    pass


def _tokenize(text: str) -> list[str]:
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise SparqlSyntaxError(
                    f"cannot tokenize at ...{text[pos:pos + 20]!r}")
            break
        tok = next(v for v in m.groupdict().values() if v is not None)
        out.append(tok)
        pos = m.end()
    return out


def _term(tok: str) -> str:
    """Token → engine term: ?var stays, "lit" unquotes, <iri> strips,
    bare token passes through (incl. property paths like (p|q)+)."""
    if tok.startswith('"') and tok.endswith('"'):
        return tok[1:-1].replace('\\"', '"').replace("\\\\", "\\")
    if tok.startswith("<") and tok.endswith(">"):
        return tok[1:-1]
    return tok


class _Parser:
    def __init__(self, tokens: list[str]):
        self.toks = tokens
        self.i = 0
        self._gen = 0  # fresh join vars for sequence-path expansion

    def peek(self) -> str | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise SparqlSyntaxError("unexpected end of query")
        self.i += 1
        return tok

    def expect(self, want: str) -> None:
        tok = self.next()
        if tok.upper() != want.upper():
            raise SparqlSyntaxError(f"expected {want!r}, got {tok!r}")

    def keyword(self, tok: str | None, *names: str) -> bool:
        return tok is not None and tok.upper() in names

    def parse_group(self) -> dict:
        """{ ... } → patterns / filters / optional / minus / values /
        union (a group is EITHER a `{A} UNION {B} [...]` alternation or
        a plain pattern group — mixing the two raises)."""
        self.expect("{")
        out = {"patterns": [], "filters": [], "optional": [],
               "minus": [], "values": {}, "union": [], "binds": [],
               "exists": [], "not_exists": [], "values_rows": []}
        while True:
            tok = self.peek()
            if tok is None:
                raise SparqlSyntaxError("unterminated group (missing })")
            if tok == "}":
                self.next()
                if out["union"] and (
                    out["patterns"] or out["filters"] or out["optional"]
                    or out["minus"] or out["values"] or out["exists"]
                    or out["not_exists"] or out["values_rows"]
                ):
                    raise SparqlSyntaxError(
                        "UNION must be the only member of its group")
                return out
            if tok == "{":
                branches = [self.parse_group()]
                while self.keyword(self.peek(), "UNION"):
                    self.next()
                    branches.append(self.parse_group())
                if len(branches) == 1:
                    # single nested PLAIN group: conjunction is
                    # associative and (with no OPTIONAL/MINUS/UNION
                    # inside) FILTER placement over a pure join is
                    # semantics-preserving, so splice it into the
                    # parent — accepts the scoping braces real
                    # queries carry without any execution change
                    (sub,) = branches
                    if sub["optional"] or sub["minus"] or sub["union"]:
                        raise SparqlSyntaxError(
                            "a nested group may contain only plain "
                            "patterns / FILTER / VALUES / BIND (or be "
                            "a {A} UNION {B} alternation)")
                    out["patterns"].extend(sub["patterns"])
                    out["filters"].extend(sub["filters"])
                    out["binds"].extend(sub["binds"])
                    # semi/anti-join members commute with the join —
                    # splicing preserves semantics exactly like FILTER
                    out["exists"].extend(sub["exists"])
                    out["not_exists"].extend(sub["not_exists"])
                    out["values_rows"].extend(sub["values_rows"])
                    for v, vals in sub["values"].items():
                        if v in out["values"]:
                            raise SparqlSyntaxError(
                                f"VALUES ?{v} bound in both a nested "
                                "group and its parent")
                        out["values"][v] = vals
                    continue
                # UNION is associative: splice union-only branches flat
                flat = []
                for b in branches:
                    if b["union"]:
                        flat.extend(b["union"])
                    else:
                        flat.append(b)
                out["union"].extend(flat)
                continue
            if tok == ".":
                self.next()
                continue
            if self.keyword(tok, "FILTER"):
                self.next()
                if self.keyword(self.peek(), "EXISTS", "NOT"):
                    # FILTER [NOT] EXISTS { patterns } — a sub-BGP
                    # semi/anti-join (ops/bgp.bgp_match exists= /
                    # not_exists=); plain patterns only, like
                    # OPTIONAL / MINUS groups
                    neg = self.keyword(self.peek(), "NOT")
                    self.next()
                    if neg:
                        self.expect("EXISTS")
                    sub = self.parse_group()
                    if (sub["optional"] or sub["minus"]
                            or sub["values"] or sub["union"]
                            or sub["binds"] or sub["exists"]
                            or sub["not_exists"] or sub["values_rows"]):
                        raise SparqlSyntaxError(
                            "FILTER [NOT] EXISTS groups support plain "
                            "patterns and FILTER only")
                    grp = ({"patterns": sub["patterns"],
                            "filters": sub["filters"]}
                           if sub["filters"] else sub["patterns"])
                    out["not_exists" if neg else "exists"].append(grp)
                    continue
                self.expect("(")
                lhs = self.next()
                if (self.keyword(lhs, "REGEX", "CONTAINS", "STRSTARTS",
                                 "STRENDS") and self.peek() == "("):
                    # string-function form: FILTER(regex(?v, "pat"))
                    self.next()
                    var = self.next()
                    if not var.startswith("?"):
                        raise SparqlSyntaxError(
                            f"{lhs} needs a variable first argument, "
                            f"got {var!r}")
                    if self.peek() == ",":
                        self.next()
                    pat = self.next()
                    if pat.startswith("?"):
                        raise SparqlSyntaxError(
                            f"{lhs} needs a constant pattern, got "
                            f"variable {pat!r}")
                    self.expect(")")
                    self.expect(")")
                    out["filters"].append(
                        (var[1:], lhs.lower(), _term(pat)))
                    continue
                op = self.next()
                rhs = self.next()
                self.expect(")")
                if not lhs.startswith("?"):
                    raise SparqlSyntaxError(
                        f"FILTER lhs must be a variable, got {lhs!r}")
                if op not in _FILTER_OPS:
                    raise SparqlSyntaxError(f"unsupported FILTER op {op!r}")
                out["filters"].append(
                    (lhs[1:], _FILTER_OPS[op], _term(rhs)))
                continue
            if self.keyword(tok, "OPTIONAL", "MINUS"):
                self.next()
                sub = self.parse_group()
                if (sub["optional"] or sub["minus"] or sub["values"]
                        or sub["exists"] or sub["not_exists"]
                        or sub["binds"] or sub["values_rows"]):
                    raise SparqlSyntaxError(
                        f"{tok.upper()} groups support plain patterns "
                        "and FILTER only")
                if sub["filters"]:
                    # group-local filters: applied to the group's own
                    # solutions before its join (left join for
                    # OPTIONAL, anti-join keys for MINUS)
                    out[tok.lower()].append(
                        {"patterns": sub["patterns"],
                         "filters": sub["filters"]})
                else:
                    out[tok.lower()].append(sub["patterns"])
                continue
            if self.keyword(tok, "BIND"):
                self.next()
                self.expect("(")
                src = self.next()
                self.expect("AS")
                new = self.next()
                self.expect(")")
                if not new.startswith("?") or len(new) < 2:
                    raise SparqlSyntaxError(
                        f"BIND ... AS expects a variable, got {new!r}")
                out["binds"].append((_term(src) if not src.startswith("?")
                                     else src, new[1:]))
                continue
            if self.keyword(tok, "VALUES"):
                self.next()
                if self.peek() == "(":
                    # correlated multi-variable form:
                    # VALUES (?a ?b) { ("x" "y") ("z" "w") ... }
                    self.next()
                    vs = []
                    while self.peek() != ")":
                        v = self.next()
                        if not v.startswith("?"):
                            raise SparqlSyntaxError(
                                f"VALUES (...) needs variables, got "
                                f"{v!r}")
                        vs.append(v[1:])
                    self.next()
                    if not vs:
                        raise SparqlSyntaxError(
                            "VALUES () needs at least one variable")
                    self.expect("{")
                    rows = []
                    while self.peek() != "}":
                        self.expect("(")
                        row = []
                        while self.peek() != ")":
                            row.append(_term(self.next()))
                        self.next()
                        if len(row) != len(vs):
                            raise SparqlSyntaxError(
                                f"VALUES row {tuple(row)} arity != "
                                f"{len(vs)} variables")
                        rows.append(tuple(row))
                    self.next()
                    out["values_rows"].append((vs, rows))
                    continue
                var = self.next()
                if not var.startswith("?"):
                    raise SparqlSyntaxError(
                        f"VALUES needs a variable, got {var!r}")
                self.expect("{")
                vals = []
                while self.peek() != "}":
                    vals.append(_term(self.next()))
                self.next()
                out["values"][var[1:]] = vals
                continue
            s = self.next()
            p = self._pred()
            o = self.next()
            if isinstance(p, list):
                # sequence / inverse path: chain the steps through
                # fresh join variables (projection drops them); an
                # inverse step swaps its pattern's endpoints — the
                # evaluator sees only plain patterns, so every
                # bgp_match plan property (multiplexed scan, greedy
                # join order, adaptive broadcast) applies unchanged
                cur = _term(s)
                last_term = _term(o)
                for idx, (step, inv) in enumerate(p):
                    if idx + 1 == len(p):
                        nxt = last_term
                    else:
                        nxt = f"?__seq{self._gen}"
                        self._gen += 1
                    out["patterns"].append(
                        (nxt, step, cur) if inv else (cur, step, nxt))
                    cur = nxt
            else:
                out["patterns"].append((_term(s), p, _term(o)))

    def _pred(self) -> str | list[tuple[str, bool]]:
        """Predicate position: a plain term, a parenthesized
        property-path alternation ``(p1|p2)+`` reassembled from the
        token stream, or (for BARE tokens only — quoted / <iri>
        predicates opt out, their bodies may legitimately contain the
        path characters) a sequence / inverse path:

            p1/p2[/...]    each step one hop (steps may be ^-inverted
                           or closures like p2+); returned as a step
                           list the caller expands into chained
                           patterns through fresh join variables
            ^p             inverse: the pattern's endpoints swap
        """
        tok = self.next()
        if tok != "(":
            if tok.startswith("<") or tok.startswith('"'):
                return _term(tok)
            if "/" in tok or tok.startswith("^"):
                steps: list[tuple[str, bool]] = []
                for part in tok.split("/"):
                    inv = part.startswith("^")
                    body = part[1:] if inv else part
                    if not body:
                        raise SparqlSyntaxError(
                            f"malformed property path {tok!r}")
                    steps.append((_term(body), inv))
                return steps
            return _term(tok)
        body = []
        while self.peek() != ")":
            if self.peek() is None:
                raise SparqlSyntaxError("unterminated ( in predicate")
            body.append(self.next())
        self.next()  # ')'
        suffix = self.peek()
        if suffix not in ("+", "*"):
            raise SparqlSyntaxError(
                "parenthesized predicate must be a (p1|p2)+ or "
                "(p1|p2)* path")
        self.next()
        return "(" + "".join(body) + ")" + suffix

    def parse(self) -> dict:
        head = self.next().upper()
        q: dict = {"form": head}
        if head == "SELECT":
            tok = self.peek()
            if self.keyword(tok, "DISTINCT"):
                self.next()
            sel: list[str] | None = []
            # (fn, input var|'*', alias): COUNT/SUM/AVG/MIN/MAX
            aggs: list[tuple[str, str, str]] = []
            while not self.keyword(self.peek(), "WHERE"):
                tok = self.next()
                if tok == "*":
                    sel = None
                    continue
                if tok == "(":
                    # (FN(?v|*) AS ?alias), FN ∈ COUNT SUM AVG MIN MAX
                    fn = self.next().upper()
                    if fn not in ("COUNT", "SUM", "AVG", "MIN", "MAX",
                                  "GROUP_CONCAT"):
                        raise SparqlSyntaxError(
                            "only COUNT/SUM/AVG/MIN/MAX/GROUP_CONCAT "
                            f"aggregates supported, got {fn!r}")
                    self.expect("(")
                    if self.keyword(self.peek(), "DISTINCT"):
                        if fn != "COUNT":
                            raise SparqlSyntaxError(
                                f"DISTINCT is supported inside COUNT "
                                f"only, got {fn}(DISTINCT ...)")
                        self.next()
                        fn = "COUNT_DISTINCT"
                    counted = self.next()
                    self.expect(")")
                    self.expect("AS")
                    alias = self.next()
                    self.expect(")")
                    if not alias.startswith("?"):
                        raise SparqlSyntaxError(
                            f"AS expects a variable, got {alias!r}")
                    if fn != "COUNT" and not counted.startswith("?"):
                        raise SparqlSyntaxError(
                            f"{fn} needs a ?variable, got {counted!r}")
                    aggs.append((fn, counted, alias[1:]))
                    continue
                if not tok.startswith("?"):
                    raise SparqlSyntaxError(
                        f"SELECT expects variables, got {tok!r}")
                if sel is not None:
                    sel.append(tok[1:])
            q["select"] = sel or None
            if aggs:
                q["aggs"] = aggs
        elif head == "CONSTRUCT":
            self.expect("{")
            s, p, o = self.next(), self.next(), self.next()
            if self.peek() == ".":
                self.next()
            self.expect("}")
            q["template"] = (_term(s), _term(p), _term(o))
        elif head == "ASK":
            pass
        elif head == "DESCRIBE":
            var = self.next()
            if not var.startswith("?"):
                raise SparqlSyntaxError(
                    f"DESCRIBE expects a variable, got {var!r}")
            q["describe"] = var[1:]
        else:
            raise SparqlSyntaxError(
                f"only SELECT / CONSTRUCT / ASK / DESCRIBE supported, "
                f"got {head!r}")
        if self.keyword(self.peek(), "WHERE"):
            self.next()
        elif head != "ASK":
            self.expect("WHERE")
        q["group"] = self.parse_group()
        if self.keyword(self.peek(), "GROUP"):
            self.next()
            self.expect("BY")
            gvars = []
            while (self.peek() or "").startswith("?"):
                gvars.append(self.next()[1:])
            if not gvars:
                raise SparqlSyntaxError("GROUP BY needs ?variables")
            q["groupby"] = gvars
        if self.keyword(self.peek(), "HAVING"):
            self.next()
            having: list[tuple[str, str, str]] = []
            while self.peek() == "(":
                self.expect("(")
                lhs = self.next()
                op = self.next()
                rhs = self.next()
                self.expect(")")
                if not lhs.startswith("?"):
                    raise SparqlSyntaxError(
                        f"HAVING lhs must be a variable, got {lhs!r}")
                if op not in _FILTER_OPS:
                    raise SparqlSyntaxError(
                        f"unsupported HAVING op {op!r}")
                if rhs.startswith("?"):
                    raise SparqlSyntaxError(
                        "HAVING compares an aggregate alias to a "
                        f"constant, got variable rhs {rhs!r}")
                having.append((lhs[1:], _FILTER_OPS[op], _term(rhs)))
            if not having:
                raise SparqlSyntaxError(
                    "HAVING needs (?alias op constant) conditions")
            q["having"] = having
        if self.keyword(self.peek(), "ORDER"):
            self.next()
            self.expect("BY")
            order: list[tuple[str, bool]] = []
            while True:
                tok = self.peek()
                if tok is not None and tok.startswith("?"):
                    self.next()
                    desc = False
                    if self.keyword(self.peek(), "ASC", "DESC"):
                        desc = self.next().upper() == "DESC"
                    order.append((tok[1:], desc))
                else:
                    break
            if not order:
                raise SparqlSyntaxError("ORDER BY needs ?variables")
            q["order"] = order
        while self.keyword(self.peek(), "LIMIT", "OFFSET"):
            kw = self.next().upper()
            n = self.next()
            if not n.isdigit():
                raise SparqlSyntaxError(f"{kw} expects an int, got {n!r}")
            if kw.lower() in q:
                raise SparqlSyntaxError(f"duplicate {kw}")
            q[kw.lower()] = int(n)
        if self.peek() is not None:
            raise SparqlSyntaxError(
                f"trailing tokens from {self.peek()!r}")
        return q


def parse_sparql(text: str) -> dict:
    """Parse the supported SPARQL subset to a plan dict (exposed for
    tests and inspection)."""
    return _Parser(_tokenize(text)).parse()


def sparql_query(
    triples: ray.data.Dataset,
    text: str,
    closure_rounds: int = 6,
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """Run a SPARQL string (see module docstring for the subset)
    against a ``(subj, pred, obj)`` Dataset — parse, then hand the
    groups to :func:`bgp_match` / :func:`bgp_construct`; all
    distributed-plan properties are theirs."""
    q = parse_sparql(text)
    g = q["group"]
    binds = g["binds"]
    if g["union"] and any(b["binds"] for b in g["union"]):
        raise SparqlSyntaxError(
            "BIND inside UNION branches is not supported")
    if binds and ("aggs" in q or q["form"] != "SELECT"):
        raise SparqlSyntaxError(
            "BIND is supported in plain SELECT queries only")
    kwargs = dict(
        optional=g["optional"] or None,
        filters=g["filters"] or None,
        minus=g["minus"] or None,
        values=g["values"] or None,
        exists=g["exists"] or None,
        not_exists=g["not_exists"] or None,
        values_rows=g["values_rows"] or None,
        closure_rounds=closure_rounds,
        num_buckets=num_buckets,
    )

    def branch_solutions(b: dict, select):
        bkw = dict(
            optional=b["optional"] or None, filters=b["filters"] or None,
            minus=b["minus"] or None, values=b["values"] or None,
            exists=b["exists"] or None,
            not_exists=b["not_exists"] or None,
            values_rows=b["values_rows"] or None,
            closure_rounds=closure_rounds, num_buckets=num_buckets,
        )
        return bgp_match(triples, b["patterns"], select=select, **bkw)

    def solutions(select):
        """Solution set for the WHERE group: plain BGP, or `{A} UNION
        {B}` — each branch evaluated independently (own filters /
        OPTIONAL / MINUS / VALUES), projected to the SELECT vars (every
        branch must bind them), concatenated, then deduped with ONE
        bucket shuffle — SELECT-DISTINCT set semantics, matching a SQL
        UNION oracle (bag-UNION multiplicities are a documented
        deviation)."""
        if g["union"]:
            if not select:
                raise SparqlSyntaxError(
                    "UNION needs explicit SELECT / aggregate variables "
                    "(each branch is projected to them)")
            from pyrdf2vec_ray.shuffle import distinct

            parts = [branch_solutions(b, list(select)) for b in g["union"]]
            return distinct(parts[0].union(*parts[1:]), list(select),
                            num_buckets=num_buckets)
        return bgp_match(triples, g["patterns"], select=select, **kwargs)

    if g["union"] and q["form"] in ("CONSTRUCT", "DESCRIBE"):
        raise SparqlSyntaxError(
            f"UNION is supported for SELECT/ASK, not {q['form']}")
    if q["form"] == "CONSTRUCT":
        out = bgp_construct(triples, g["patterns"], q["template"],
                            **{k: v for k, v in kwargs.items()
                               if k != "num_buckets"},
                            num_buckets=num_buckets)
    elif q["form"] == "DESCRIBE":
        from pyrdf2vec_ray.ops.bgp import bgp_describe

        out = bgp_describe(triples, g["patterns"], q["describe"],
                           **{k: v for k, v in kwargs.items()
                              if k != "num_buckets"},
                           num_buckets=num_buckets)
    elif q["form"] == "ASK":
        if g["union"]:
            hit = any(
                len(branch_solutions(b, None).limit(1).take(1)) > 0
                for b in g["union"]
            )
        else:
            sols = bgp_match(triples, g["patterns"], **kwargs)
            hit = len(sols.limit(1).take(1)) > 0
        return ray.data.from_items([{"ask": hit}])
    elif "aggs" in q:
        import pandas as pd

        from pyrdf2vec_ray.shuffle import bucket_agg, bucket_count

        gvars = q.get("groupby") or q.get("select") or []
        global_agg = not gvars
        if global_agg:
            # SPARQL's implicit single group: tag every solution with
            # one constant key, aggregate, drop the key after — the
            # whole-result reduce stays the same ONE bucket exchange
            gvars = ["__g"]
        in_vars = [v[1:] for _, v, _ in q["aggs"] if v.startswith("?")]
        need = list(dict.fromkeys(
            ([] if global_agg else list(gvars)) + in_vars))
        if not need:
            raise SparqlSyntaxError(
                "global COUNT(*) needs at least one aggregated "
                "?variable (solution sets are projected by variable)")
        sols = solutions(need)
        if global_agg:
            def tag_g(batch: pd.DataFrame) -> pd.DataFrame:
                batch = batch.copy()
                batch["__g"] = 0
                return batch

            sols = sols.map_batches(tag_g, batch_format="pandas")
        plain = [a for a in q["aggs"]
                 if a[0] not in ("COUNT_DISTINCT", "GROUP_CONCAT")]
        cdist = [a for a in q["aggs"] if a[0] == "COUNT_DISTINCT"]
        gcat = [a for a in q["aggs"] if a[0] == "GROUP_CONCAT"]
        # one aggregated Dataset per part (plain aggs, each COUNT
        # DISTINCT, each GROUP_CONCAT), joined on the group key below
        parts = []
        out = None
        if not plain:
            pass
        elif len(plain) == 1 and plain[0][0] == "COUNT":
            # over a null-free solution set COUNT(?v) == COUNT(*)
            out = bucket_count(sols.select_columns(list(gvars)), list(gvars),
                               count_col=plain[0][2],
                               num_buckets=num_buckets)
        else:
            # SUM/AVG cast their input to float64 (numeric literals are
            # stored as strings); MIN/MAX compare the raw string form
            # (SQL VARCHAR min/max parity); AVG = mergeable sum + size
            # partials divided after the ONE bucket shuffle.
            num_vars = sorted({v[1:] for fn, v, _ in plain
                               if fn in ("SUM", "AVG")})

            def cast_numeric(batch: pd.DataFrame) -> pd.DataFrame:
                # derived __num columns: a var can feed SUM (numeric)
                # and MIN/MAX (raw string) in the same query
                batch = batch.copy()
                for v in num_vars:
                    batch[v + "__num"] = pd.to_numeric(batch[v]) \
                        .astype("float64")
                return batch

            work = sols if not num_vars else sols.map_batches(
                cast_numeric, batch_format="pandas")
            spec: dict = {}
            avg_aliases: list[str] = []
            for fn, v, alias in plain:
                col = v[1:] if v.startswith("?") else gvars[0]
                if fn == "COUNT":
                    spec[alias] = (col, "size")
                elif fn == "AVG":
                    spec[alias + "__sum"] = (col + "__num", "sum")
                    spec[alias + "__n"] = (col, "size")
                    avg_aliases.append(alias)
                elif fn == "SUM":
                    spec[alias] = (col + "__num", "sum")
                else:
                    spec[alias] = (col, fn.lower())
            out = bucket_agg(work, list(gvars), spec,
                             num_buckets=num_buckets)
            if avg_aliases:
                def finish_avg(batch: pd.DataFrame) -> pd.DataFrame:
                    batch = batch.copy()
                    for a in avg_aliases:
                        batch[a] = batch[a + "__sum"] / batch[a + "__n"]
                        batch = batch.drop(
                            columns=[a + "__sum", a + "__n"])
                    return batch

                out = out.map_batches(finish_avg, batch_format="pandas")
        if out is not None:
            parts.append(out)
        for _, v, alias in cdist:
            # exact distinct count: ONE (group, value)-distinct bucket
            # shuffle (shuffle.distinct runs a per-batch distinct
            # combiner, so the exchange moves distinct pairs, not
            # solution rows), then a group-scale count.  Joined back to
            # the plain aggregates with a GROUP-CARDINALITY-sized
            # hash_join — never a corpus-scale exchange.
            from pyrdf2vec_ray.shuffle import distinct as _distinct

            cols = list(dict.fromkeys(list(gvars) + [v[1:]]))
            cd = bucket_count(
                _distinct(sols.select_columns(cols), cols,
                          num_buckets=num_buckets),
                list(gvars), count_col=alias, num_buckets=num_buckets)
            parts.append(cd)
        for _, v, alias in gcat:
            # GROUP_CONCAT = the DISTINCT values sorted and
            # space-joined (deterministic — SPARQL leaves the order
            # unspecified; the oracle parity form is
            # ``string_agg(DISTINCT v, ' ' ORDER BY v)``).  Same
            # exchange shape as COUNT DISTINCT: ONE (group, value)-
            # distinct bucket shuffle, then a group-bucket fold; the
            # per-group value list is group-cardinality-bounded by the
            # distinct (a group with unbounded distinct values has an
            # unbounded concat on ANY engine).
            from pyrdf2vec_ray.shuffle import bucket_apply
            from pyrdf2vec_ray.shuffle import distinct as _distinct

            val = v[1:]
            cols = list(dict.fromkeys(list(gvars) + [val]))
            d = _distinct(sols.select_columns(cols), cols,
                          num_buckets=num_buckets)

            def concat_bucket(g: pd.DataFrame, _g=tuple(gvars),
                              _v=val, _a=alias) -> pd.DataFrame:
                g = g.sort_values(list(_g) + [_v])
                return g.groupby(list(_g), as_index=False).agg(
                    **{_a: (_v, " ".join)})

            gc = bucket_apply(d, list(gvars), concat_bucket,
                              num_buckets=num_buckets,
                              batch_format="pandas")
            parts.append(gc)
        if global_agg:
            # the implicit group exists even over NO solutions: one
            # row with COUNT = 0 and every other aggregate unbound
            # (SQL NULL), in the column order the joins below emit.
            # Every part reduces the same solutions, so one empty part
            # means all are.
            parts[0] = parts[0].materialize()
            if parts[0].count() == 0:
                avg = [a for fn, _, a in plain if fn == "AVG"]
                aliases = ([a for fn, _, a in plain if fn != "AVG"] + avg
                           + [a for _, _, a in cdist + gcat])
                zero = {a for fn, _, a in plain + cdist
                        if fn in ("COUNT", "COUNT_DISTINCT")}
                parts = [ray.data.from_pandas(pd.DataFrame(
                    {"__g": [0], **{a: [0 if a in zero else None]
                                    for a in aliases}}))]
        from pyrdf2vec_ray.ops.join import hash_join

        out = parts[0]
        for part in parts[1:]:
            out = hash_join(out, part, on=list(gvars),
                            num_buckets=num_buckets)
        if "having" in q:
            conds = q["having"]

            def apply_having(batch: pd.DataFrame,
                             _conds=conds) -> pd.DataFrame:
                import operator as _op
                ops = {"==": _op.eq, "!=": _op.ne, "<": _op.lt,
                       "<=": _op.le, ">": _op.gt, ">=": _op.ge}
                mask = pd.Series(True, index=batch.index)
                for col, op, rhs in _conds:
                    if col not in batch.columns:
                        raise SparqlSyntaxError(
                            f"HAVING references unknown alias ?{col}")
                    try:
                        rv: object = float(rhs)
                        lv = pd.to_numeric(batch[col])
                    except (ValueError, TypeError):
                        rv, lv = rhs, batch[col]
                    mask &= ops[op](lv, rv)
                return batch[mask]

            out = out.map_batches(apply_having, batch_format="pandas")
        if global_agg:
            out = out.drop_columns(["__g"])
    else:
        if "having" in q:
            raise SparqlSyntaxError("HAVING needs aggregates")
        if binds:
            # BIND = a stateless per-batch column copy (variable
            # source) or constant fill, applied AFTER the pattern
            # join; the projection asks bgp_match for the underlying
            # source vars so the distinct-projection semantics are
            # unchanged (the bind map is bijective per row)
            sel = q.get("select")
            targets = {n for _, n in binds}
            base = None
            if sel is not None:
                base = []
                for v in sel:
                    if v in targets:
                        src = next(s for s, n in binds if n == v)
                        if src.startswith("?") and src[1:] not in base:
                            base.append(src[1:])
                    elif v not in base:
                        base.append(v)
                if not base:
                    raise SparqlSyntaxError(
                        "projection needs at least one pattern "
                        "variable alongside BIND targets")
            sols = solutions(base)

            def add_binds(batch, _binds=binds):
                batch = batch.copy()
                for src, new in _binds:
                    if src.startswith("?"):
                        name = src[1:]
                        if name not in batch.columns:
                            raise SparqlSyntaxError(
                                f"BIND source ?{name} is not bound")
                        batch[new] = batch[name]
                    else:
                        batch[new] = src
                return batch

            out = sols.map_batches(add_binds, batch_format="pandas")
            if sel is not None:
                out = out.select_columns(list(sel))
        else:
            out = solutions(q.get("select"))
    if "order" in q:
        # a global sort of the RESULT set (result-sized, not
        # corpus-sized) — the one deliberate all-to-all here
        out = out.sort([c for c, _ in q["order"]],
                       descending=[d for _, d in q["order"]])
    if q.get("offset"):
        # ordered block-boundary split over the RESULT-sized set (the
        # rows never land on the driver); LIMIT counts rows AFTER the
        # skip, per the SPARQL slice semantics
        out = out.split_at_indices([q["offset"]])[1]
    if "limit" in q:
        out = out.limit(q["limit"])
    return out
