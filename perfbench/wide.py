"""The analysis-wide workload: generated programs with thousands of rules.

Each program is a seeded random DAG of binary relations over a six-value
domain, so inputs stay tiny and compile-side work (parsing, analysis,
translation, tree generation) dominates.  Rules mix joins, negation,
arithmetic filters, unions with the input relations (which keep the chains
from running empty), a count aggregate and one recursive closure.  The checker is a
naive bottom-up evaluator over exactly these rule shapes, written apart from
stird.
"""

import os
import random

# Relations per generated program: one round compiles and runs each once.
SIZES = [500, 1000, 2000, 4000, 8000]
DOMAIN = 6
OUTPUTS = 4  # the last relations of a program are written as CSV files


def generate(rng, size):
    """Returns (source, facts, rules) for a program with `size` relations.

    `rules` is the evaluator's view: a list of (head, shape, args) in
    definition order, every body relation defined earlier (a DAG, hence
    stratified).
    """
    edb = {name: sorted({(rng.randrange(DOMAIN), rng.randrange(DOMAIN))
                         for _ in range(20)}) for name in ("e0", "e1")}
    decls = [".decl e0(x:number, y:number)", ".input e0",
             ".decl e1(x:number, y:number)", ".input e1",
             ".decl tc(x:number, y:number)"]
    text = ["tc(x, y) :- e0(x, y).", "tc(x, z) :- tc(x, y), e0(y, z)."]
    rules = [("tc", "closure", ("e0",))]
    binary = ["e0", "e1", "tc"]
    counts = []

    def pick():
        # Mostly recent relations, so chains run deep as well as wide.
        if rng.random() < 0.7:
            return binary[max(0, len(binary) - 40) + rng.randrange(
                min(40, len(binary)))]
        return rng.choice(binary)

    for i in range(size):
        head = f"r{i}"
        kind = rng.randrange(10)
        if i % 200 == 199:
            # Aggregate over an earlier relation, used as a bound below.
            src = pick()
            c = f"c{i}"
            decls.append(f".decl {c}(n:number)")
            text.append(f"{c}(n) :- n = count : {{ {src}(_, _) }}.")
            rules.append((c, "count", (src,)))
            counts.append(c)
        if kind < 3:
            a, b = pick(), pick()
            text.append(f"{head}(x, z) :- {a}(x, y), {b}(y, z).")
            rules.append((head, "join", (a, b)))
        elif kind < 5:
            a, b = pick(), pick()
            text.append(f"{head}(x, y) :- {a}(x, y), !{b}(y, x).")
            rules.append((head, "antijoin", (a, b)))
        elif kind < 7:
            a, k, m = pick(), rng.randrange(1, 5), rng.randrange(2, 5)
            text.append(f"{head}(x, y) :- {a}(x, y), (x * {k} + y) % {m} != 0.")
            rules.append((head, "filter", (a, k, m)))
        elif kind < 8:
            a, e = pick(), rng.choice(["e0", "e1"])
            text.append(f"{head}(x, y) :- {a}(x, y).")
            text.append(f"{head}(x, y) :- {e}(y, x).")
            rules.append((head, "union", (a, e)))
        elif kind < 9 and counts:
            a, c = pick(), rng.choice(counts[-3:])
            text.append(f"{head}(x, y) :- {a}(x, y), {c}(n), x + y < n.")
            rules.append((head, "bound", (a, c)))
        else:
            a, k = pick(), rng.randrange(1, DOMAIN)
            text.append(f"{head}(y, (x + {k}) % {DOMAIN}) :- {a}(x, y).")
            rules.append((head, "shift", (a, k)))
        decls.append(f".decl {head}(x:number, y:number)")
        binary.append(head)
    names = ["tc"] + [h for h, _, _ in rules if h != "tc"]
    io = [f".printsize {n}" for n in names]
    io += [f".output {n}" for n in binary[-OUTPUTS:]]
    source = "\n".join(decls + text + io) + "\n"
    return source, edb, rules


def evaluate(edb, rules):
    """Naive bottom-up evaluation in definition order."""
    rel = {name: set(rows) for name, rows in edb.items()}
    for head, shape, args in rules:
        if shape == "closure":
            edges = rel[args[0]]
            out = set(edges)
            while True:
                more = {(x, z) for x, y in out for y2, z in edges if y == y2}
                if more <= out:
                    break
                out |= more
        elif shape == "count":
            out = {(len(rel[args[0]]),)}
        elif shape == "join":
            right = rel[args[1]]
            out = {(x, z) for x, y in rel[args[0]] for y2, z in right
                   if y == y2}
        elif shape == "antijoin":
            neg = rel[args[1]]
            out = {(x, y) for x, y in rel[args[0]] if (y, x) not in neg}
        elif shape == "filter":
            _, k, m = args
            out = {(x, y) for x, y in rel[args[0]] if (x * k + y) % m != 0}
        elif shape == "union":
            out = rel[args[0]] | {(y, x) for x, y in rel[args[1]]}
        elif shape == "bound":
            (n,), = rel[args[1]]
            out = {(x, y) for x, y in rel[args[0]] if x + y < n}
        else:
            k = args[1]
            out = {(y, (x + k) % DOMAIN) for x, y in rel[args[0]]}
        rel[head] = out
    return rel


def prepare(workdir, seed):
    """Writes every generated program with its facts; returns the jobs in
    the format of suites.prepare."""
    jobs = []
    for index, size in enumerate(SIZES):
        rng = random.Random(seed * 7919 + index)
        source, edb, rules = generate(rng, size)
        rel = evaluate(edb, rules)
        name = f"wide-{size}"
        pdir = os.path.join(workdir, name)
        facts_dir, out_dir = os.path.join(pdir, "facts"), os.path.join(pdir, "out")
        os.makedirs(facts_dir, exist_ok=True)
        os.makedirs(out_dir, exist_ok=True)
        for r, rows in edb.items():
            with open(os.path.join(facts_dir, r + ".facts"), "w") as f:
                f.write("".join(f"{x}\t{y}\n" for x, y in rows))
        program = os.path.join(pdir, "program.dl")
        with open(program, "w") as f:
            f.write(source)
        outputs = [h for h, _, _ in rules if h.startswith("r")][-OUTPUTS:]
        expect = {o: rel[o] for o in outputs}
        expect["sizes"] = {h: len(rel[h]) for h, _, _ in rules}
        jobs.append({"suite": "wide", "name": name, "program": program,
                     "facts": facts_dir, "out": out_dir, "expect": expect})
    return jobs
