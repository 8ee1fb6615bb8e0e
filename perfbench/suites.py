"""The analysis-batch workload: the 13 programs of the paper's Fig 15 suites.

Each program is one of three suite programs (programs/*.dl) over facts
generated here from the run's seed, at the shapes and sizes of the
repository's synthetic vpc, ddisasm and doop suites.  Every check below is a
plain reference computation of the suite's semantics, written apart from
stird: subnet BFS and pair filters for vpc, the straight-line `code` walk,
the `moved_label` predicate and per-size pair counts for ddisasm, and a
worklist Andersen fixpoint for doop.
"""

import bisect
import os
import random
from collections import defaultdict

# (suite, name, generator parameters).  Sizes follow the repository's
# vpc/ddisasm/doop suites; only the random draws depend on the seed.
PROGRAMS = [
    ("vpc", "vpc-small", (40, 500)),
    ("vpc", "vpc-medium", (60, 900)),
    ("vpc", "vpc-large", (80, 1400)),
    ("ddisasm", "gzip-like", (3000, 500, 1500, 0)),
    ("ddisasm", "bzip2-like", (4000, 700, 2000, 0)),
    ("ddisasm", "mcf-like", (2500, 400, 1200, 0)),
    ("ddisasm", "gamess-like", (6000, 1000, 3000, 0)),
    ("ddisasm", "gcc-like", (8000, 1200, 3500, 0)),
    ("ddisasm", "specrand-like", (30, 5, 5, 600)),
    ("doop", "antlr-like", (320, 2)),
    ("doop", "bloat-like", (400, 2)),
    ("doop", "chart-like", (480, 2)),
    ("doop", "luindex-like", (360, 3)),
]

HERE = os.path.dirname(os.path.abspath(__file__))


def write_facts(path, rows):
    with open(path, "w") as f:
        f.write("".join("\t".join(map(str, r)) + "\n" for r in rows))


def read_rows(path):
    with open(path) as f:
        return {tuple(int(c) for c in line.split("\t")) for line in f
                if line.strip()}


# ---------------------------------------------------------------- vpc

def gen_vpc(rng, subnets, instances):
    in_subnet = [(i, rng.randrange(subnets)) for i in range(instances)]
    allows = [(i, rng.randint(20, 25)) for i in range(instances)]
    listens = [(i, rng.randint(20, 25)) for i in range(instances)]
    links, acl = [], []
    for s in range(subnets):
        links.append((s, (s + 1) % subnets))
        if s % 4 == 0:
            links.append((s, (s * 7 + 3) % subnets))
        acl += [(s, p) for p in range(20, 26) if (s + p) % 3 != 0]
    return {"in_subnet": in_subnet, "subnet_link": links, "acl_allow": acl,
            "allows": allows, "listens": listens}


def ref_vpc(facts):
    succ = defaultdict(set)
    for a, b in facts["subnet_link"]:
        succ[a].add(b)
    reach = set()
    for start in list(succ):
        seen, todo = set(), list(succ[start])
        while todo:
            n = todo.pop()
            if n not in seen:
                seen.add(n)
                todo.extend(succ[n])
        reach |= {(start, n) for n in seen}
    subnet = dict(facts["in_subnet"])
    acl = set(facts["acl_allow"])
    listeners = defaultdict(list)
    for b, p in facts["listens"]:
        listeners[p].append(b)
    can_talk = set()
    for a, p in facts["allows"]:
        for b in listeners[p]:
            if (a != b and (a ^ b) & 1023 != 1023
                    and ((a << 2) ^ (b >> 1)) & 8191 != 8191
                    and (a * 31 + b * 17) % 127 != 126
                    and (a | b) & 511 != 511
                    and (subnet[a], subnet[b]) in reach
                    and (subnet[b], p) in acl):
                can_talk.add((a, b, p))
    return {"subnet_reach": reach,
            "exposed": {(b,) for _, b, p in can_talk if p == 22},
            "sizes": {"can_talk": len(can_talk)}}


# ---------------------------------------------------------------- ddisasm

def gen_ddisasm(rng, instructions, immediates, regions, extra_rules):
    facts = {}
    if extra_rules:
        facts["aux0"] = [(1,), (2,), (3,)]
    instr, ea = [], 0x1000
    for _ in range(instructions):
        sz = rng.randint(1, 8)
        instr.append((ea, sz))
        ea += sz
    facts["instruction"] = instr
    facts["entry"] = [(0x1000,)]
    facts["op_immediate"] = [
        (0x1000 + rng.randint(0, 1 << 20) % (instructions * 4),
         rng.randint(0, 1 << 20)) for _ in range(immediates)]
    reg, begin = [], 1 << 19
    for _ in range(regions):
        sz = 64 + rng.randint(0, 1 << 20) % 4096
        reg.append((begin, sz))
        begin += sz + rng.randint(0, 1 << 20) % 512
    facts["data_region"] = reg
    return facts


def ddisasm_source(extra_rules):
    """The ddisasm program, plus specrand-like's chain of extra rules."""
    with open(os.path.join(HERE, "programs", "ddisasm.dl")) as f:
        src = f.read()
    if extra_rules:
        src += "\n.decl aux0(x:number)\n.input aux0\n"
        for i in range(1, extra_rules + 1):
            src += (f".decl aux{i}(x:number)\n"
                    f"aux{i}(x) :- aux{i - 1}(x), x + {i} >= 0, "
                    f"x band 262143 != 262143.\n")
        src += f".printsize aux{extra_rules}\n"
    return src


def ref_ddisasm(facts, extra_rules):
    size = dict(facts["instruction"])
    code, ea = set(), facts["entry"][0][0]
    code.add(ea)
    while ea in size and ea + size[ea] < 16777216:
        ea += size[ea]
        code.add(ea)
    regions = sorted(facts["data_region"])
    starts = [b for b, _ in regions]
    moved = set()
    for ea, v in facts["op_immediate"]:
        i = bisect.bisect_right(starts, v) - 1
        # Regions are disjoint, so at most the last one starting at or
        # before v can contain it.
        if i < 0:
            continue
        b, sz = regions[i]
        if ((v ^ b) & 134217728 == 0 and b <= v < b + sz
                and (v - b) % 8 == 0 and ea + v > b + 4):
            moved.add((ea, b))
    imms = defaultdict(set)
    for ea, v in facts["op_immediate"]:
        imms[ea].add(v)
    sym_diff = {(ea, v - b) for ea, b in moved for v in imms[ea]}
    code_imm = {(ea, v) for ea, v in facts["op_immediate"] if ea in code}
    per_size = defaultdict(int)
    for _, sz in facts["instruction"]:
        per_size[sz] += 1
    sizes = {"moved_label": len(moved),
             "same_size": sum(n * (n - 1) // 2 for n in per_size.values())}
    if extra_rules:
        sizes[f"aux{extra_rules}"] = 3
    return {"code": {(c,) for c in code}, "moved_label": moved,
            "sym_diff": sym_diff, "code_imm": code_imm, "sizes": sizes}


# ---------------------------------------------------------------- doop

def gen_doop(rng, nvars, copy_factor):
    var = lambda: rng.randrange(nvars)
    return {
        "new_": [(v, v // 5) for v in range(0, nvars, 5)],
        "assign": [(var(), var()) for _ in range(nvars * copy_factor)],
        "store": [(var(), rng.randrange(8), var()) for _ in range(nvars // 3)],
        "load": [(var(), var(), rng.randrange(8)) for _ in range(nvars // 3)],
    }


def bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def ref_doop(facts):
    """Andersen fixpoint over bitsets: points-to sets of variables (vpt) and
    heap fields (hpt) grow by the four inclusion rules until none changes."""
    pts = defaultdict(int)            # v -> bitset of objects
    heap = defaultdict(int)           # (o, f) -> bitset of objects
    for v, o in facts["new_"]:
        pts[v] |= 1 << o
    changed = True
    while changed:
        changed = False
        for v, w in facts["assign"]:
            if pts[w] & ~pts[v]:
                pts[v] |= pts[w]
                changed = True
        for v, f, w in facts["store"]:
            for o in bits(pts[v]):
                if pts[w] & ~heap[(o, f)]:
                    heap[(o, f)] |= pts[w]
                    changed = True
        for v, w, f in facts["load"]:
            for o in bits(pts[w]):
                if heap[(o, f)] & ~pts[v]:
                    pts[v] |= heap[(o, f)]
                    changed = True
    vpt = {(v, o) for v, m in pts.items() for o in bits(m)}
    holders = defaultdict(int)        # o -> bitset of variables
    for v, o in vpt:
        holders[o] |= 1 << v
    alias = 0
    for a, m in pts.items():
        shared = 0
        for o in bits(m):
            shared |= holders[o]
        alias += bin(shared >> (a + 1)).count("1")
    return {"vpt": vpt,
            "hpt": {(o, f, p) for (o, f), m in heap.items() for p in bits(m)},
            "sizes": {"vpt": len(vpt), "alias": alias}}


# ---------------------------------------------------------------- jobs

def prepare(workdir, seed):
    """Writes each program and its facts under workdir; returns the jobs.

    A job is a dict with the program's suite, name, .dl path, fact and
    output directories, and `expect`: the reference outputs (relation ->
    tuple set) and `.printsize` counts the run must reproduce.
    """
    jobs = []
    for index, (suite, name, params) in enumerate(PROGRAMS):
        rng = random.Random(seed * 1000003 + index)
        pdir = os.path.join(workdir, name)
        facts_dir, out_dir = os.path.join(pdir, "facts"), os.path.join(pdir, "out")
        os.makedirs(facts_dir, exist_ok=True)
        os.makedirs(out_dir, exist_ok=True)
        if suite == "vpc":
            facts = gen_vpc(rng, *params)
            src = open(os.path.join(HERE, "programs", "vpc.dl")).read()
            expect = ref_vpc(facts)
        elif suite == "ddisasm":
            facts = gen_ddisasm(rng, *params)
            src = ddisasm_source(params[3])
            expect = ref_ddisasm(facts, params[3])
        else:
            facts = gen_doop(rng, *params)
            src = open(os.path.join(HERE, "programs", "doop.dl")).read()
            expect = ref_doop(facts)
        for rel, rows in facts.items():
            write_facts(os.path.join(facts_dir, rel + ".facts"), rows)
        program = os.path.join(pdir, "program.dl")
        with open(program, "w") as f:
            f.write(src)
        jobs.append({"suite": suite, "name": name, "program": program,
                     "facts": facts_dir, "out": out_dir, "expect": expect})
    return jobs


def check(job, stdout):
    """Compares one run's written outputs and .printsize lines with the
    reference; returns a list of mismatch descriptions (empty when right)."""
    errors = []
    expect = job["expect"]
    printed = {}
    for line in stdout.splitlines():
        parts = line.split("\t")
        if len(parts) == 2 and parts[1].isdigit():
            printed[parts[0]] = int(parts[1])
    for rel, n in expect["sizes"].items():
        if printed.get(rel) != n:
            errors.append(f"{job['name']}: .printsize {rel} = "
                          f"{printed.get(rel)}, reference {n}")
    for rel, want in expect.items():
        if rel == "sizes":
            continue
        path = os.path.join(job["out"], rel + ".csv")
        got = read_rows(path) if os.path.exists(path) else None
        if got != want:
            errors.append(f"{job['name']}: {rel}.csv has "
                          f"{None if got is None else len(got)} rows, "
                          f"reference {len(want)}"
                          + ("" if got is None else
                             f", {len(got ^ want)} differ"))
    return errors
