"""Output checks of the benchmark.

Every check tests a property the simulation method must have, not a
stored copy of an earlier output: access conservation between the
cores, the private hierarchies, the home and DRAM, a clean invariant
verifier, determinism across repetitions, and equality of the traced
run's stats dump with the untraced Driver::run dump.

self_check() feeds the same checks perturbed copies of a real output
and reports any perturbation they fail to reject.
"""


def _sum(d, *names):
    return sum(d[n] for n in names)


def check_dump(dump, cores, accesses_per_core, warmup_per_core,
               driver_accesses):
    """Conservation laws of one stats dump. Returns a list of problems."""
    d = dict(dump)
    problems = []

    def expect(what, got, want):
        if got != want:
            problems.append(f"{what}: {got} != {want}")

    issued = _sum(d, "core.loads", "core.stores", "core.ifetches")
    expect("loads+stores+ifetches vs cores x accesses/core", issued,
           cores * accesses_per_core)
    expect("Driver::run accesses vs cores x (accesses + warmup)",
           driver_accesses, cores * (accesses_per_core + warmup_per_core))
    expect("priv_hits+misses+upgrades vs loads+stores+ifetches",
           _sum(d, "core.priv_hits", "core.misses", "core.upgrades"),
           issued)
    home = _sum(d, "core.misses", "core.upgrades")
    expect("llc.accesses vs misses+upgrades", d["llc.accesses"], home)
    expect("latency.samples vs misses+upgrades", d["latency.samples"],
           home)
    expect("dram.accesses vs llc.data_misses+wb.dirty",
           d["dram.accesses"], _sum(d, "llc.data_misses", "wb.dirty"))
    return problems


def compare_dumps(reference, other, what):
    """Entry-for-entry equality (names, order and values)."""
    if len(reference) != len(other):
        return [f"{what}: {len(other)} entries, expected "
                f"{len(reference)}"]
    for (rn, rv), (on, ov) in zip(reference, other):
        if rn != on or rv != ov:
            return [f"{what}: first difference at {rn}={rv} vs {on}={ov}"]
    return []


def check_cell(doc, cell):
    """Conservation laws of one untraced cell."""
    return check_dump(cell["dump"], doc["cores"], doc["accesses_per_core"],
                      cell["effective_warmup_per_core"], cell["accesses"])


def check_untraced(doc):
    """All checks of one untraced run document."""
    problems = []
    if not doc["cells"]:
        return ["no cell completed"]
    first = {}
    for i, cell in enumerate(doc["cells"]):
        what = f"cell {i} (seed {cell['seed']})"
        if not cell["verify_ok"]:
            problems.append(f"{what}: Verifier::check found violations")
        problems += [f"{what}: {p}" for p in check_cell(doc, cell)]
        ref = first.setdefault(cell["seed"], cell)
        problems += compare_dumps(ref["dump"], cell["dump"],
                                  f"{what} vs its first run (determinism)")
    return problems


def check_traced(trace, untraced, min_attributed):
    """Checks of a traced run against the untraced run of its seed."""
    problems = []
    if not trace["verify_ok"]:
        problems.append("traced run: Verifier::check found violations")
    twin = untraced["cells"][0]
    if trace["seed"] != twin["seed"]:
        return [f"traced seed {trace['seed']} != untraced {twin['seed']}"]
    problems += compare_dumps(twin["dump"], trace["dump"],
                              "traced dump vs Driver::run dump")
    if trace["accesses"] != twin["accesses"]:
        problems.append(f"traced run executed {trace['accesses']} "
                        f"accesses, Driver::run {twin['accesses']}")
    attributed = sum(s["raw_ns"] for s in trace["spans"]
                     if s["parent"] == "root") / trace["wall_ns"]
    if attributed < min_attributed:
        problems.append(f"named layers cover {attributed:.3f} of the "
                        f"traced wall time (< {min_attributed})")
    return problems


# Counters that take part in check_dump's conservation laws.
CHECKED_COUNTERS = (
    "core.loads", "core.stores", "core.ifetches", "core.priv_hits",
    "core.misses", "core.upgrades", "llc.accesses", "latency.samples",
    "dram.accesses", "llc.data_misses", "wb.dirty",
)


def self_check(doc, trace=None):
    """Prove the checks can fail on this run's own outputs.

    Each checked counter is perturbed by one in a copy of the first
    cell's dump, and every entry of the traced dump in turn; each
    perturbed copy must be rejected. Returns the perturbations that
    were (wrongly) accepted.
    """
    missed = []
    cell = doc["cells"][0]
    for name in CHECKED_COUNTERS:
        bad = dict(cell)
        bad["dump"] = [(n, v + 1 if n == name else v)
                       for n, v in cell["dump"]]
        if not check_cell(doc, bad):
            missed.append(f"dump with {name}+1 accepted")
    if trace is not None:
        for i, (name, value) in enumerate(trace["dump"]):
            bad = list(trace["dump"])
            bad[i] = (name, 1 if value is None else value + 1)
            if not compare_dumps(cell["dump"], bad, "self-check"):
                missed.append(f"traced dump with {name}+1 accepted")
    return missed
