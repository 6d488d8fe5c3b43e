"""One pass of a benchmark workload, in a fresh interpreter.

run.py starts this script once per pass; a pass never shares a process
with another, so each pays the module-global ``is_cover`` cache cold and
leaves no recursion-limit change behind, as a ``latcover`` CLI call does.

The script prints one JSON object: the moment ``import latcover``
finished, the pass's wall time and peak resident memory, the outputs
that run.py checks against the golden table and, when traced, the
per-layer metrics and spans.
"""

import time

import latcover  # noqa: F401  (set-up time ends here)

READY_NS = time.monotonic_ns()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402

from latcover import catalog, enumeration, forms, groebner, lattices, modular  # noqa: E402
from latcover.mat2 import RatMat2, parse_mat2  # noqa: E402

import golden  # noqa: E402
import oracles  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402


def _system_name(elements) -> str:
    return "-".join(elements)


# -- workloads: prepare(seed) returns a closure run(t) over ready inputs ---


def prepare_certificates(seed: int):
    systems = list(golden.CERTIFICATE_SYSTEMS)
    random.Random(seed).shuffle(systems)
    gens = {
        s: groebner.pair_system(*s) if len(s) == 2 else groebner.triple_system(*s)
        for s in systems
    }
    norm_form = groebner.COEFF_POLYS["R"][2]  # t1^2 + t1*t3 + t3^2

    def run(t):
        out = {}
        for s in systems:
            name = _system_name(s)
            with t.span("certificates." + name):
                basis = groebner.strong_groebner(gens[s])
                res = {
                    "contains_3": groebner.contains_constant(3, basis),
                    "basis_size": len(basis),
                }
                if name == golden.NORM_FORM_SYSTEM:
                    res["norm_form_in_ideal"] = groebner.reduces_to_zero(norm_form, basis)
            out[name] = res
        return {"systems": out}

    return run


def prepare_catalog(seed: int):
    # The same stream as oracles.catalog_inputs, consumed query by query
    # and with equal subgroups shared, so that the inputs add little to
    # the pass's peak memory.
    rng = random.Random(seed)
    shared = {}
    queries = [
        [shared.setdefault(s, s) for s in map(lattices.canonicalize, members)]
        for members in oracles.cover_batch(rng, oracles.COVER_QUERIES)
    ]
    matrices = [RatMat2(*e) for e in oracles.matrix_batch(rng, oracles.LATTICE_MATRICES)]

    # Keep the raw solution count, which generate_catalog does not return.
    raw = {}
    inner = enumeration.raw_solutions

    def raw_solutions(*args, **kwargs):
        sols = inner(*args, **kwargs)
        raw["count"] = len(sols)
        return sols

    enumeration.raw_solutions = raw_solutions

    def run(t):
        with t.span("catalog.generate"):
            cat = catalog.generate_catalog()
        with t.span("catalog.roundtrip"):
            back = catalog.parse(catalog.serialize(cat))
        with t.span("catalog.verify"):
            checks = catalog.verify_catalog(back)
        with t.span("catalog.batch_is_cover"):
            cover_bits = "".join("1" if lattices.is_cover(q) else "0" for q in queries)
        with t.span("catalog.batch_lattice_of"):
            lats = [lattices.lattice_of(g) for g in matrices]
        return {
            "counts_by_length": {k: len(cat.by_length(k)) for k in (3, 4, 5, 6)},
            "total": len(cat.entries),
            "raw_count": raw.get("count"),
            "verify": {r.name: r.ok for r in checks},
            "roundtrip_equal": back.entries == cat.entries,
            "cover_bits": cover_bits,
            "lattices": [list(map(list, s.gens)) for s in lats],
        }

    return run


def prepare_scans(seed: int):
    systems = [(s, "pair") for s in itertools.combinations(golden.ELEMENTS, 2)]
    systems += [(s, "triple") for s in itertools.combinations(golden.ELEMENTS, 3)]
    random.Random(seed).shuffle(systems)
    reference = [  # the paper's forms: (name, form, conjugator, group)
        ("F0", forms.F0, parse_mat2("1,0;0,1"), "d3"),
        ("sextic-1-0", forms.sextic(1, 0), forms.SEXTIC_CONJUGATOR, "d6"),
        ("XY(X+3Y)", forms.BinaryForm.of(0, 1, 3, 0), parse_mat2("1/3,0;0,1"), "d3"),
    ]
    f0, f0_dagger = forms.F0, forms.dagger(forms.F0)

    def run(t):
        with t.span("scans.modular"):
            reports = modular.run_all_scans()
        with t.span("scans.mod7"):
            zeros = {
                _system_name(s): groebner.has_common_zero_mod7(s, kind)
                for s, kind in systems
            }
        with t.span("scans.verdicts"):
            verdicts = {
                name: forms.extraordinary_by_C3(f, conj, group)
                for name, f, conj, group in reference
            }
        with t.span("scans.values"):
            values = forms.cross_value_check(f0, f0_dagger, 10, 60)
        return {
            "reports": [[r.name, r.modulus, r.ok] for r in reports],
            "mod7_zero": zeros,
            "form_verdicts": verdicts,
            "value_sets_ok": values.ok,
        }

    return run


WORKLOADS = {
    "certificates": prepare_certificates,
    "catalog": prepare_catalog,
    "scans": prepare_scans,
}


# -- per-layer metrics of a traced pass ------------------------------------


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def layer_metrics(t: tracer.Tracer, outputs: dict) -> dict:
    """Every per-layer metric; a layer the workload does not load reads 0."""
    gen = "catalog.generate"
    batch = "catalog.batch_is_cover"
    raw_s = t.total("enumeration.raw_solutions")
    m = {
        "enumeration.search_nodes": t.count(gen, "enumeration.find_lattices"),
        "enumeration.raw_count": outputs.get("raw_count") or 0,
        "enumeration.raw_solutions_s": raw_s,
        "enumeration.filter_s": t.total("enumeration.enumerate_minimal_coverings") - raw_s,
        "enumeration.precedes_calls": t.count(gen, "enumeration.precedes"),
        "enumeration.precedes_s": t.time_in(gen, "enumeration.precedes"),
        "lattices.is_cover_calls": t.count(gen, "lattices.is_cover"),
        "lattices.is_cover_s": t.time_in(gen, "lattices.is_cover"),
        "lattices.is_cover_repeat_ratio": _ratio(
            t.count(gen, "lattices.is_cover.repeat"), t.count(gen, "lattices.is_cover")
        ),
        "lattices.canonicalize_calls": t.count(gen, "lattices.canonicalize"),
        "lattices.batch_s": t.total(batch),
        "lattices.batch_is_cover_calls": t.count(batch, "lattices.is_cover"),
        "lattices.batch_repeat_ratio": _ratio(
            t.count(batch, "lattices.is_cover.repeat"), t.count(batch, "lattices.is_cover")
        ),
        "lattices.lattice_of_s": t.total("catalog.batch_lattice_of"),
        "catalog.generate_s": t.total(gen),
        "catalog.roundtrip_s": t.total("catalog.roundtrip"),
        "catalog.verify_s": t.total("catalog.verify"),
    }
    pairs_s = triples_s = 0.0
    for s in golden.CERTIFICATE_SYSTEMS:
        name = _system_name(s)
        dt = t.total("certificates." + name)
        m[f"groebner.system.{name}_s"] = dt
        if len(s) == 2:
            pairs_s += dt
        else:
            triples_s += dt
    sizes = [v["basis_size"] for v in outputs.get("systems", {}).values()]
    m.update({
        "groebner.pairs_s": pairs_s,
        "groebner.triples_s": triples_s,
        "groebner.pair_select_s": t.self_time("groebner.strong_groebner", "poly.normal_form"),
        "groebner.basis_size_sum": sum(sizes),
        "groebner.basis_size_max": max(sizes, default=0),
        "groebner.membership_s": t.total("groebner.contains_constant")
        + t.total("groebner.reduces_to_zero"),
        "groebner.mod7_oracle_s": t.total("scans.mod7"),
        "poly.normal_form_calls": t.count_all("poly.normal_form"),
        "poly.normal_form_s": t.time_all("poly.normal_form"),
        "poly.leading_term_calls": t.count_all("poly.leading_term"),
        "modular.scans_s": t.total("scans.modular"),
        "forms.cross_value_check_s": t.total("scans.values"),
        "forms.evaluate_calls": t.count_all("forms.evaluate"),
        "forms.verdicts_s": t.total("scans.verdicts"),
    })
    return m


def peak_rss_mb() -> float:
    """This process's resident-memory high-water mark.

    ``ru_maxrss`` is not used: Linux carries the parent's high-water mark
    over fork and exec, so a child of a large parent would report it.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def timed_raw_solutions(workers: int) -> dict:
    """One cold ``raw_solutions`` call, at reference speed."""
    stages = speed.Stages(tracer.NullTracer())
    with stages.span("raw_solutions"):
        count = len(enumeration.raw_solutions(workers=workers))
    return {"workers": workers, "seconds": stages.wall_s(), "raw_count": count}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--run-id", default="")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--raw-workers", type=int)
    args = ap.parse_args()

    payload = {"ready_ns": READY_NS, "latcover": latcover.__file__}
    if args.setup_only:
        payload["calibration_s"] = speed.boundary_samples()
    elif args.raw_workers:
        payload["raw"] = timed_raw_solutions(args.raw_workers)
    else:
        run = WORKLOADS[args.workload](args.seed)
        t = tracer.Tracer(args.run_id) if args.trace else tracer.NullTracer()
        if args.trace:
            t.install(tracer.TRACE_PLAN)
        stages = speed.Stages(t)
        outputs = run(stages)
        payload["wall_s"] = stages.wall_s()
        payload["raw_wall_s"] = stages.raw_wall_s()
        payload["stages"] = stages.records
        payload["peak_rss_mb"] = peak_rss_mb()
        payload["outputs"] = outputs
        if args.trace:
            # Layer times are rescaled like the pass; counts are exact.
            factor = stages.wall_s() / stages.raw_wall_s()
            payload["layers"] = {
                name: value * factor if name.endswith("_s") else value
                for name, value in layer_metrics(t, outputs).items()
            }
            payload["spans"] = t.spans
    print(json.dumps(payload))


if __name__ == "__main__":
    main()
