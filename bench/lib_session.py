"""One library session of the lib-sweep workload.

Reads a JSON job on stdin:

    {"fields": [{"p": 1021, "k": 1, "orders": [...], "nu_primes": [...]}],
     "spans": null or "path/to/spans.json"}

Imports ``cyclokit``, builds the field profiles, prints the monotonic
instant it is ready and the CPU time it used until then, then runs the
queries in order.  Each field gets one
field query (``s_max``, ``full_moduli``, ``g2``, ``nu``) and one query per
order n (``min_poly``, ``kappa_class``, ``galois_image``, ``s_n``,
``field_equal``, and ``radical_generator`` or ``artin_schreier_generator``).
Caches persist across queries, as in one interactive session.  The last
stdout line is a JSON object with per-query latency (wall and CPU time) and
results.
"""

import json
import sys
import time
import traceback


def field_query(ck, field, nu_primes):
    moduli = ck.full_moduli(field)
    partition = ck.s_max(field)
    order_two = ck.g2(field)
    nu = {r: ck.nu(field, r) for r in nu_primes}
    return lambda: {
        "full_moduli_cardinality": moduli.cardinality,
        "s_max_classes": len(partition.classes),
        "s_max_cardinality": sum(c.cardinality for c in partition.classes),
        "g2_cardinality": order_two.cardinality,
        "nu": {str(r): v.to_json() for r, v in nu.items()},
    }


def order_query(ck, field, n, q):
    poly = ck.min_poly(field, n)
    kappa = ck.kappa_class(field, ck.canonical(n, 1))
    image = ck.galois_image(field, n)
    primes = ck.s_n(field, n)
    equal = ck.field_equal(field, n, q * q - 1)
    if field.characteristic == 2:
        ck.artin_schreier_generator(field, n)
    else:
        ck.radical_generator(field, n)
    return lambda: {
        "yogh": poly.yogh.value,
        "kappa_in_field": kappa.in_field,
        "galois_image": [c.value for c in image],
        "s_n": sorted(primes),
        "field_equal": equal,
    }


def main() -> None:
    job = json.loads(sys.stdin.read())
    start = time.perf_counter()
    import cyclokit as ck

    import_s = time.perf_counter() - start

    fields = [ck.finite_field(f["p"], f["k"]) for f in job["fields"]]
    print(json.dumps({"ready": time.monotonic(), "ready_cpu_s": time.process_time(),
                      "import_s": import_s}), flush=True)

    tracer = None
    if job.get("spans"):
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)

    clock, cpu = time.perf_counter, time.process_time
    records = []
    for index, (spec, field) in enumerate(zip(job["fields"], fields)):
        q = spec["p"] ** spec["k"]
        queries = [(None, lambda: field_query(ck, field, spec["nu_primes"]))]
        queries += [(n, lambda n=n: order_query(ck, field, n, q)) for n in spec["orders"]]
        for n, query in queries:
            if tracer is not None:
                tracer.op = len(records)
            record = {"field": index, "n": n}
            start, start_cpu = clock(), cpu()
            try:
                render = query()
                record["lat_s"], record["cpu_s"] = clock() - start, cpu() - start_cpu
                record["result"] = render()
            except Exception:
                record["lat_s"], record["cpu_s"] = clock() - start, cpu() - start_cpu
                record["error"] = traceback.format_exc()
            records.append(record)

    if tracer is not None:
        tracer.dump(job["spans"])
    print(json.dumps({"ops": records}))


if __name__ == "__main__":
    main()
